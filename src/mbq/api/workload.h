#pragma once
// The unit of work every execution backend accepts.
//
// A Workload bundles a cost Hamiltonian with the ansatz that prepares the
// trial state and the options controlling its measurement-based
// compilation.  The ansatz semantics live HERE, not in the backends: a
// workload knows both its gate-model reference state (what the
// statevector backend runs) and its measurement-pattern compilation (what
// the MBQC/stabilizer/ZX backends run), so every backend executes the
// same mathematical object and the paper's equivalence claims (Sec. III,
// Eq. 12) become assertions over interchangeable adapters.
//
// Internally a Workload is a declarative WorkloadSpec (workload_spec.h) —
// pure, serializable data — plus at most one opaque escape hatch.  The
// ansatz kinds:
//
//   QaoaDiagonal   — standard QAOA_p: phase layers for the cost function
//                    alternating with transverse-field mixers (Sec. III);
//                    covers MaxCut, QUBO, and arbitrary-order PUBO costs
//                    (the Sec. II-C higher-order extension);
//   MisConstrained — the constraint-preserving MIS ansatz over a graph
//                    (Sec. IV), starting from the feasible state |0...0>;
//                    optionally vertex-weighted (c(x) = sum w_v x_v);
//   ParamCircuit   — a DECLARATIVE angle-parameterized circuit acting on
//                    |+...+> (XY-mixer colorings of Sec. V, HEA, ...),
//                    held as a qaoa::ParamCircuit gate list: value
//                    semantics, serializable, shardable;
//   Registered     — an ansatz kind resolved by name through
//                    api::AnsatzKindRegistry (ansatz_registry.h): the
//                    spec carries the name and a generic int/real
//                    payload; the registry's hooks build the declarative
//                    circuit.  Pure data — serializes, fingerprints, and
//                    (for library-registered names) shards;
//   CustomCircuit  — the std::function escape hatch: an arbitrary
//                    angle-parameterized builder acting on |+...+>.  The
//                    closure cannot cross a process boundary, so custom
//                    workloads are the ONLY kind that cannot shard.
//
// Lowering runs through the spec compiler (speccomp/speccomp.h):
// lowered() holds the optimized spec + scheduling hints the backends
// consume, while spec() stays the raw description — fingerprints, the
// prepare caches, and every wire format key on the PRE-optimization
// bytes, so optimization is a per-host lowering detail.
//
// Thread safety: every const method may run concurrently on one
// Workload (Session prepares batch points in parallel).  The lowering
// and a Registered kind's circuit are computed eagerly whenever the
// workload is built or a with_* setter changes it; the 2^n cost table
// stays lazy behind std::call_once.

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mbq/api/workload_spec.h"
#include "mbq/circuit/circuit.h"
#include "mbq/speccomp/speccomp.h"
#include "mbq/core/compiler.h"
#include "mbq/graph/graph.h"
#include "mbq/qaoa/hamiltonian.h"
#include "mbq/qaoa/param_circuit.h"
#include "mbq/qaoa/qaoa.h"
#include "mbq/sim/statevector.h"

namespace mbq::api {

/// Angle-parameterized circuit on |+...+> for AnsatzKind::CustomCircuit.
using CircuitBuilder = std::function<Circuit(const qaoa::Angles&)>;

class Workload {
 public:
  /// Standard QAOA over an arbitrary Ising cost function (any term order).
  static Workload qaoa(qaoa::CostHamiltonian cost);
  /// QAOA for MaxCut on a graph.
  static Workload maxcut(const Graph& g);
  /// QAOA for weighted MaxCut; weights are indexed like g.edges().
  static Workload maxcut_weighted(const Graph& g,
                                  const std::vector<real>& weights);
  /// QAOA for a higher-order PUBO over 0/1 variables (see
  /// qaoa::CostHamiltonian::pubo).
  static Workload pubo(int n, const std::vector<qaoa::PuboTerm>& terms,
                       real constant = 0.0);
  /// Constraint-preserving MIS ansatz (Sec. IV); cost is the set size.
  static Workload mis(const Graph& g);
  /// Weighted MIS: cost is sum_v weights[v] x_v and the phase layer
  /// rotates vertex v by weights[v] * gamma; the mixer still preserves
  /// independence.  weights must have one entry per vertex.
  static Workload mis_weighted(const Graph& g, std::vector<real> weights);
  /// Declarative parameterized-circuit ansatz (convention: acts on
  /// |+...+>).  Serializable, so it shards across worker processes.
  static Workload parameterized(qaoa::CostHamiltonian cost,
                                qaoa::ParamCircuit circuit);
  /// Custom ansatz circuit (convention: acts on |+...+>).  The explicit
  /// escape hatch: the closure is opaque, so the workload cannot be
  /// serialized or sharded — prefer parameterized() when the ansatz can
  /// be written as a gate list.
  static Workload custom(qaoa::CostHamiltonian cost, CircuitBuilder builder);
  /// Ansatz kind registered by name in api::AnsatzKindRegistry; the
  /// int/real payload's meaning is defined by the kind's hooks (e.g.
  /// "hea-line" reads ints = {layers}).  Validates eagerly, including
  /// the kind's own payload validation.
  static Workload registered(std::string name, qaoa::CostHamiltonian cost,
                             std::vector<int> ints = {},
                             std::vector<real> reals = {});
  /// Rebuild from a declarative spec (validated; throws on inconsistent
  /// specs, and on CustomCircuit kinds — the closure cannot travel).
  static Workload from_spec(WorkloadSpec spec);

  /// The declarative description (always present; for CustomCircuit it
  /// describes everything except the closure itself).
  const WorkloadSpec& spec() const noexcept { return spec_; }

  const qaoa::CostHamiltonian& cost() const noexcept { return spec_.cost; }
  AnsatzKind ansatz() const noexcept { return spec_.kind; }
  int num_qubits() const noexcept { return spec_.cost.num_qubits(); }
  /// Graph of the MIS ansatz; throws for other kinds.
  const Graph& mis_graph() const;
  /// Per-vertex weights of the MIS ansatz (empty = unweighted); throws
  /// for other kinds.
  const std::vector<real>& mis_weights() const;
  /// Declarative circuit of the ParamCircuit ansatz; throws otherwise.
  const qaoa::ParamCircuit& param_circuit() const;
  /// True only for the CustomCircuit escape hatch.
  bool has_custom_builder() const noexcept { return circuit_ != nullptr; }

  // --- chainable compile / execution options ---------------------------
  Workload& with_linear_style(core::LinearTermStyle style);
  Workload& with_max_wire_degree(int degree);
  /// Depolarizing probability after every entangling command of the
  /// measurement-based execution (mbqc/runner.h's entangler_noise);
  /// must be in [0, 1].  Noise draws are part of the per-shot rng
  /// stream, so noisy results stay bit-identical at every thread and
  /// process count; only noise-capable backends (mbqc, mbqc-classical)
  /// accept the workload.
  Workload& with_entangler_noise(real probability);
  /// Statevector storage precision of the measurement-based execution
  /// (default Precision::F64).  F32 halves the amplitude footprint —
  /// roughly one extra qubit of reach at a fixed memory budget — and is
  /// deterministic within the precision (same seed -> same stream at
  /// every ISA, thread and process count), but f32 streams are NOT
  /// bit-comparable to f64's.  Routes to f32-capable backends only
  /// (Capabilities::supports_f32_storage) and travels with the spec, so
  /// sharded/served execution uses the same storage as local.
  Workload& with_precision(Precision p);
  core::LinearTermStyle linear_style() const noexcept {
    return spec_.linear_style;
  }
  int max_wire_degree() const noexcept { return spec_.max_wire_degree; }
  real entangler_noise() const noexcept { return spec_.entangler_noise; }
  Precision precision() const noexcept { return spec_.precision; }

  core::CompileOptions compile_options(bool final_corrections) const;

  /// The spec-compiler output this workload lowers from (computed when
  /// the workload is built or reconfigured, shared across copies).
  /// reference_state/compile_pattern consume lowered().spec and
  /// lowered().hints; spec(), the fingerprints, and the shard/serve wire
  /// formats always use the raw spec, so equal raw specs stay equal on
  /// the wire however each host optimizes.
  const speccomp::CompiledSpec& lowered() const noexcept { return *lowered_; }

  /// Override the spec-compiler pass set for this workload (default:
  /// SpecCompileOptions::from_env(), i.e. MBQ_SPEC_OPT or the standard
  /// bit-neutral set).  Chainable; re-lowers the workload.
  Workload& with_spec_compile(const speccomp::SpecCompileOptions& options);

  /// Full cost table c(x), x in [0, 2^n), built on first use (safe to
  /// race) and shared across copies of this workload.  Entries equal
  /// cost().evaluate(x) bit for bit.  Read by the statevector and zx
  /// backends, by the mbqc backends' expectation() (<C> folds over it),
  /// and by the bench scorer (bench::best_cost).  Sampling on mbqc never
  /// builds it: Session scores shots with cost().evaluate().  The table
  /// holds 2^n doubles, so once an mbqc expectation has run at n = 24
  /// the workload holds 128 MiB.
  std::shared_ptr<const std::vector<real>> cost_table() const;

  /// Gate-model reference state at the given angles (each ansatz kind
  /// fixes its own initial state; see the header comment).
  Statevector reference_state(const qaoa::Angles& a) const;

  /// Measurement-pattern compilation of the same ansatz.  With
  /// final_corrections the pattern is deterministic and its output state
  /// equals reference_state() on every branch; without, the byproduct
  /// frames are exported for classical post-processing.
  core::CompiledPattern compile_pattern(const qaoa::Angles& a,
                                        bool final_corrections) const;

 private:
  explicit Workload(WorkloadSpec spec) : spec_(std::move(spec)) { lower(); }

  /// Recompute lowered_ and registered_circuit_ from spec_ and spec_opt_.
  void lower();

  struct CostTable {
    std::once_flag once;
    std::shared_ptr<const std::vector<real>> table;
  };

  WorkloadSpec spec_;
  CircuitBuilder circuit_;  // CustomCircuit escape hatch only
  speccomp::SpecCompileOptions spec_opt_ =
      speccomp::SpecCompileOptions::from_env();
  std::shared_ptr<const speccomp::CompiledSpec> lowered_;
  // Built circuit of a Registered ansatz (null for other kinds).
  std::shared_ptr<const qaoa::ParamCircuit> registered_circuit_;
  // cost_table()'s memo; copies share it, and no setter changes the cost.
  std::shared_ptr<CostTable> table_ = std::make_shared<CostTable>();
};

}  // namespace mbq::api
