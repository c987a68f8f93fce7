#include "mbq/api/mbqc_backend.h"

#include "mbq/api/prepared.h"
#include "mbq/mbqc/compiled.h"

namespace mbq::api {

namespace {

/// X-byproduct mask over the problem register for one finished run
/// (empty frames when quantum corrections were emitted).
std::uint64_t byproduct_flips(const core::CompiledPattern& cp, int n,
                              const std::vector<int>& outcomes) {
  std::uint64_t flip = 0;
  for (int q = 0; q < n; ++q)
    if (!cp.final_fx[q].empty() && cp.final_fx[q].evaluate(outcomes))
      flip |= std::uint64_t{1} << q;
  return flip;
}

}  // namespace

std::string MbqcBackend::name() const {
  return mode_ == core::CorrectionMode::Quantum ? "mbqc" : "mbqc-classical";
}

Capabilities MbqcBackend::capabilities() const {
  Capabilities caps;
  caps.summary =
      mode_ == core::CorrectionMode::Quantum
          ? "full adaptive measurement protocol with quantum corrections"
          : "adaptive protocol, byproducts fixed by classical post-processing";
  // Live-width ~ problem register + gadget ancillas; the threaded
  // chunked kernels and the optional f32 storage push the practical
  // ceiling past the old n = 20.
  caps.max_qubits = 24;
  // The dynamic-statevector runner models the entangler depolarizing
  // channel, so noisy workloads execute here (and only here).
  caps.supports_noise = true;
  // The same runner owns the f32 statevector storage path.
  caps.supports_f32_storage = true;
  return caps;
}

namespace {

mbqc::ExecOptions exec_options_for(const Workload& w) {
  mbqc::ExecOptions opt;
  opt.entangler_noise = w.entangler_noise();
  opt.precision = w.precision();
  return opt;
}

}  // namespace

std::shared_ptr<const Prepared> MbqcBackend::prepare(
    const Workload& w, const qaoa::Angles& a) const {
  auto prep = std::make_shared<PreparedPattern>();
  prep->compiled =
      w.compile_pattern(a, mode_ == core::CorrectionMode::Quantum);
  // Lower to the flat op tape here, once per (workload, angles):
  // Session's prepare-cache keeps the whole artifact, so every
  // subsequent expectation/sample shot replays the tape only.
  prep->executable =
      std::make_shared<const mbqc::CompiledPattern>(prep->compiled.pattern);
  return prep;
}

real MbqcBackend::expectation(const Workload& w, const qaoa::Angles& a,
                              Rng& rng, const Prepared* prep) const {
  std::shared_ptr<const Prepared> local;
  if (prep == nullptr) {
    local = prepare(w, a);
    prep = local.get();
  }
  const core::CompiledPattern& cp = pattern_of(prep);
  // One adaptive run; determinism makes the output state branch-free
  // (under entangler noise the run is a single noisy trajectory, so the
  // value is a stochastic estimate — deterministic in the rng stream,
  // but no longer the exact noiseless <C>).  In classical mode the X
  // byproducts permute basis states, so <C> is computed on the corrected
  // distribution by folding the flip mask into the cost-table index.  The
  // table's entries equal cost().evaluate(x) bit for bit (constant first,
  // then each term in canonical order).  The fold reads the executor's
  // arena in place, so a steady-state evaluation allocates nothing.
  mbqc::PatternExecutor& executor =
      mbqc::thread_local_executor(executable_of(prep), exec_options_for(w));
  executor.run_in_place(rng);
  const std::uint64_t flip =
      byproduct_flips(cp, w.num_qubits(), executor.last_outcomes());
  return executor.output_expectation(*w.cost_table(), flip);
}

std::uint64_t MbqcBackend::sample_one(const Workload& w, const qaoa::Angles& a,
                                      Rng& rng, const Prepared* prep) const {
  std::shared_ptr<const Prepared> local;
  if (prep == nullptr) {
    local = prepare(w, a);
    prep = local.get();
  }
  const core::CompiledPattern& cp = pattern_of(prep);
  // The tape replays on this thread's warm executor arena: the whole
  // shot loop above us (Session::sample fans shots across threads)
  // performs no per-shot validation, lowering, or basis construction,
  // and the final computational-basis readout samples straight from the
  // arena — no per-shot output_state copy either.
  mbqc::PatternExecutor& executor =
      mbqc::thread_local_executor(executable_of(prep), exec_options_for(w));
  const std::uint64_t x = executor.run_sample(rng).x;
  // Classical correction mode: X byproducts flip readout bits.
  return x ^ byproduct_flips(cp, w.num_qubits(), executor.last_outcomes());
}

}  // namespace mbq::api
