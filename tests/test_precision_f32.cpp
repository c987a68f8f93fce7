// Optional float32 statevector storage: within-precision determinism of
// the f32 path (bit-identical across ISA flavors AND kernel thread
// counts), its documented NON-comparability to f64 (close, never
// bitwise), the precision field riding the spec codec / JSON / the
// fingerprint, and the capability-gated routing that sends F32
// workloads to the one backend that can store them.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "mbq/api/registry.h"
#include "mbq/api/router_backend.h"
#include "mbq/api/session.h"
#include "mbq/api/workload.h"
#include "mbq/api/workload_spec.h"
#include "mbq/api/workload_spec_json.h"
#include "mbq/common/error.h"
#include "mbq/common/parallel.h"
#include "mbq/common/rng.h"
#include "mbq/core/compiler.h"
#include "mbq/graph/generators.h"
#include "mbq/mbqc/runner.h"
#include "mbq/qaoa/qaoa.h"
#include "mbq/sim/collapse_kernels.h"
#include "mbq/sim/dynamic_statevector.h"

namespace mbq {
namespace {

bool same_bits(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

::testing::AssertionResult buffers_bit_equal(const std::vector<cplx>& want,
                                             const std::vector<cplx>& got) {
  if (want.size() != got.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  for (std::size_t i = 0; i < want.size(); ++i)
    if (!same_bits(want[i].real(), got[i].real()) ||
        !same_bits(want[i].imag(), got[i].imag()))
      return ::testing::AssertionFailure()
             << "amplitude " << i << ": (" << got[i].real() << ", "
             << got[i].imag() << ") != (" << want[i].real() << ", "
             << want[i].imag() << ")";
  return ::testing::AssertionSuccess();
}

struct IsaGuard {
  SimdIsa saved;
  IsaGuard() : saved(active_simd_isa()) {}
  // force_simd_isa throws when a flavor fails its self-check; a throwing
  // destructor would end the binary, so record it as this test's failure.
  ~IsaGuard() {
    try {
      force_simd_isa(saved);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "restoring " << isa_name(saved) << ": " << e.what();
    }
  }
};

struct ThreadGuard {
  int saved;
  ThreadGuard() : saved(num_threads()) {}
  ~ThreadGuard() { set_num_threads(saved); }
};

// --- the f32 kernel tables ---------------------------------------------

TEST(PrecisionF32, EveryHostFlavorHasAVerifiedF32Table) {
  for (SimdIsa isa : supported_simd_isas()) {
    const CollapseKernelsF32* k = kernels_for_isa_f32(isa);
    ASSERT_NE(k, nullptr) << isa_name(isa);
    EXPECT_EQ(k->isa, isa);
    EXPECT_TRUE(verify_kernels_f32(*k)) << isa_name(isa);
  }
  EXPECT_EQ(kernels_t<float>().isa, active_simd_isa_f32());
  EXPECT_EQ(kernels_t<double>().isa, active_simd_isa());
}

// --- within-precision determinism --------------------------------------

// The same scripted run as the f64 ISA-sweep test, on f32 storage, at a
// register size crossing the chunk cutoff.  state_in_order widens f32
// amplitudes to f64 EXACTLY, so a bitwise comparison of the widened
// values is a bitwise comparison of the stored floats.
struct ScriptResult {
  std::vector<int> outcomes;
  std::vector<cplx> amps;
  double fold;
};

ScriptResult run_script(Precision p, SimdIsa isa, int threads,
                        std::uint64_t seed, int wires) {
  force_simd_isa(isa);
  set_num_threads(threads);
  DynamicStatevector dsv(p);
  EXPECT_EQ(dsv.precision(), p);
  Rng rng(seed);
  for (int w = 0; w < wires; ++w) dsv.add_wire(w);
  const std::uint64_t cz_masks[2] = {0b11, 0b1100};
  dsv.apply_cz_masks(cz_masks, 2);
  dsv.apply_rz(1, 0.37);
  dsv.apply_pauli_masks(0b0010, 0b0100, true);
  ScriptResult r;
  r.outcomes.push_back(dsv.prep_cz_measure(
      wires, 0b101, measurement_basis(MeasBasis::XY, 0.3), rng));
  r.outcomes.push_back(dsv.prep_cz_teleport_measure(
      wires + 1, 0b1000, 1, measurement_basis(MeasBasis::YZ, 0.9), rng));
  dsv.apply_h(2);
  r.outcomes.push_back(
      dsv.measure_remove(2, measurement_basis(MeasBasis::X, 0.0), rng));
  dsv.normalize();
  r.amps = dsv.state_in_order(dsv.wire_order());
  r.fold = dsv.norm_fold();
  return r;
}

TEST(PrecisionF32, StatevectorBitIdenticalAcrossIsasAndThreads) {
  IsaGuard isa_guard;
  ThreadGuard thread_guard;
  // 5 wires stays on the plain paths; 15 wires crosses the chunk cutoff
  // and exercises every chunked f32 driver.
  for (int wires : {5, 15}) {
    const ScriptResult want =
        run_script(Precision::F32, SimdIsa::Scalar, 1, 42, wires);
    for (SimdIsa isa : supported_simd_isas()) {
      for (int t : {1, 2, 8}) {
        const ScriptResult got =
            run_script(Precision::F32, isa, t, 42, wires);
        SCOPED_TRACE(std::string("isa=") + isa_name(isa) +
                     " threads=" + std::to_string(t) +
                     " wires=" + std::to_string(wires));
        EXPECT_EQ(want.outcomes, got.outcomes);
        EXPECT_TRUE(buffers_bit_equal(want.amps, got.amps));
        EXPECT_PRED2(same_bits, want.fold, got.fold);
      }
    }
  }
}

TEST(PrecisionF32, TracksF64WithinPrecisionButNotBitwise) {
  IsaGuard isa_guard;
  ThreadGuard thread_guard;
  const ScriptResult f64 =
      run_script(Precision::F64, SimdIsa::Scalar, 1, 7, 6);
  const ScriptResult f32 =
      run_script(Precision::F32, SimdIsa::Scalar, 1, 7, 6);
  ASSERT_EQ(f64.amps.size(), f32.amps.size());
  // Same sampled branch under the same rng draws (the probabilities
  // differ only at f32 rounding, far from the draw boundaries here)...
  EXPECT_EQ(f64.outcomes, f32.outcomes);
  // ...amplitudes agree to f32 accuracy but NOT bitwise.
  bool any_differs = false;
  for (std::size_t i = 0; i < f64.amps.size(); ++i) {
    EXPECT_LT(std::abs(f64.amps[i] - f32.amps[i]), 1e-3) << i;
    any_differs |= !same_bits(f64.amps[i].real(), f32.amps[i].real()) ||
                   !same_bits(f64.amps[i].imag(), f32.amps[i].imag());
  }
  EXPECT_TRUE(any_differs)
      << "f32 bit-identical to f64 — the storage is not actually f32";
}

// Compiled executor == interpreted runner on f32 storage too, on a
// forced branch (branch choice held fixed so the comparison is exact).
TEST(PrecisionF32, CompiledMatchesInterpretedOnF32) {
  Rng setup(3);
  const qaoa::Angles angles = qaoa::Angles::random(2, setup);
  const auto cost = qaoa::CostHamiltonian::maxcut(cycle_graph(4));
  const mbqc::Pattern pattern = core::compile_qaoa(cost, angles).pattern;

  mbqc::RunOptions options;
  options.precision = Precision::F32;
  options.forced.assign(
      static_cast<std::size_t>(pattern.num_measurements()), 0);
  for (std::size_t i = 0; i < options.forced.size(); i += 3)
    options.forced[i] = 1;

  Rng ra(1), rb(1);
  const mbqc::RunResult compiled = mbqc::run(pattern, ra, options);
  const mbqc::RunResult interpreted =
      mbqc::run_interpreted(pattern, rb, options);
  EXPECT_EQ(compiled.outcomes, interpreted.outcomes);
  EXPECT_TRUE(
      buffers_bit_equal(compiled.output_state, interpreted.output_state));
}

// --- the precision field on the spec -----------------------------------

TEST(PrecisionF32, SpecCodecAndJsonCarryPrecision) {
  api::Workload w = api::Workload::maxcut(cycle_graph(4));
  EXPECT_EQ(w.precision(), Precision::F64);
  const std::uint64_t fp64 = api::spec_fingerprint(w.spec());

  w.with_precision(Precision::F32);
  EXPECT_EQ(w.precision(), Precision::F32);
  EXPECT_NE(api::spec_fingerprint(w.spec()), fp64)
      << "fingerprint must distinguish storage precisions";

  // Binary codec round trip.
  const auto frame = api::serialize_spec(w.spec());
  const api::Workload back = api::Workload::from_spec(api::parse_spec(frame));
  EXPECT_EQ(back.precision(), Precision::F32);
  EXPECT_EQ(api::spec_fingerprint(back.spec()),
            api::spec_fingerprint(w.spec()));

  // JSON codec round trip; the field is spelled with the enum name.
  const std::string json = api::spec_to_json(w.spec());
  EXPECT_NE(json.find("\"precision\""), std::string::npos);
  EXPECT_NE(json.find("\"f32\""), std::string::npos);
  const api::WorkloadSpec parsed = api::spec_from_json(json);
  EXPECT_EQ(parsed.precision, Precision::F32);

  // A spec without the field (older producer) defaults to f64.
  const std::string json64 =
      api::spec_to_json(api::Workload::maxcut(cycle_graph(4)).spec());
  EXPECT_EQ(api::spec_from_json(json64).precision, Precision::F64);

  EXPECT_STREQ(precision_name(Precision::F64), "f64");
  EXPECT_STREQ(precision_name(Precision::F32), "f32");
  EXPECT_EQ(parse_precision("f32"), Precision::F32);
  EXPECT_THROW(parse_precision("f16"), Error);
}

// --- capability-gated routing ------------------------------------------

TEST(PrecisionF32, OnlyTheMbqcAdapterAcceptsF32Storage) {
  auto& registry = api::BackendRegistry::instance();
  Rng setup(11);
  const qaoa::Angles angles = qaoa::Angles::random(1, setup);
  api::Workload w = api::Workload::maxcut(cycle_graph(4));
  w.with_precision(Precision::F32);

  const auto mbqc = registry.create("mbqc");
  EXPECT_TRUE(mbqc->capabilities().supports_f32_storage);
  EXPECT_EQ(mbqc->unsupported_reason(w, angles, nullptr), "");

  for (const char* name : {"statevector", "clifford", "zx"}) {
    const auto b = registry.create(name);
    EXPECT_FALSE(b->capabilities().supports_f32_storage) << name;
    const std::string reason = b->unsupported_reason(w, angles, nullptr);
    EXPECT_FALSE(reason.empty()) << name;
  }
  // The statevector adapter is capable of these angles — its rejection
  // must be the precision one, spelled out.
  const std::string sv_reason =
      registry.create("statevector")->unsupported_reason(w, angles, nullptr);
  EXPECT_NE(sv_reason.find("f32"), std::string::npos) << sv_reason;
}

TEST(PrecisionF32, RouterRoutesF32WorkloadsToMbqc) {
  api::RouterBackend router{api::RouterOptions{}};
  EXPECT_TRUE(router.capabilities().supports_f32_storage);

  Rng setup(13);
  const qaoa::Angles angles = qaoa::Angles::random(1, setup);
  api::Workload w = api::Workload::maxcut(cycle_graph(4));
  w.with_precision(Precision::F32);

  const api::RouteDecision d = router.route(w, angles);
  EXPECT_EQ(d.backend_name, "mbqc");
  bool statevector_rejected_for_precision = false;
  for (const auto& [name, why] : d.rejected)
    if (name == "statevector")
      statevector_rejected_for_precision =
          why.find("f32") != std::string::npos;
  EXPECT_TRUE(statevector_rejected_for_precision);
}

// --- the Session face ---------------------------------------------------

TEST(PrecisionF32, SessionRunsF32EndToEndAndTracksF64) {
  Rng setup(17);
  const qaoa::Angles angles = qaoa::Angles::random(2, setup);
  const auto make = [&](Precision p) {
    return api::Session(
        api::Workload::maxcut(cycle_graph(6)).with_precision(p), "mbqc");
  };

  auto s64 = make(Precision::F64);
  auto s32a = make(Precision::F32);
  auto s32b = make(Precision::F32);
  EXPECT_EQ(s32a.workload().precision(), Precision::F32);

  const real e64 = s64.expectation(angles);
  const real e32 = s32a.expectation(angles);
  EXPECT_TRUE(std::isfinite(e32));
  EXPECT_NEAR(e64, e32, 1e-3);

  // Within-precision determinism through the full Session stack: two
  // identically-seeded f32 sessions produce identical shot streams.
  // (call-index k of one session vs call-index k of the other — the
  // Session determinism contract is per (seed, call index, shot).)
  EXPECT_PRED2(same_bits, static_cast<double>(e32),
               static_cast<double>(s32b.expectation(angles)));
  const auto sa = s32a.sample(angles, 64);
  const auto sb = s32b.sample(angles, 64);
  ASSERT_EQ(sa.shots.size(), sb.shots.size());
  for (std::size_t i = 0; i < sa.shots.size(); ++i)
    EXPECT_EQ(sa.shots[i].x, sb.shots[i].x) << i;
}

// Sharded sampling re-derives the workload from the serialized spec in
// freshly exec'd worker processes — so bit-identical shards prove the
// precision field actually rides the codec (remote ≡ local).
TEST(PrecisionF32, ShardedSamplingMatchesInProcessOnF32) {
  Rng setup(23);
  const qaoa::Angles angles = qaoa::Angles::random(1, setup);
  api::Workload w = api::Workload::maxcut(cycle_graph(6));
  w.with_precision(Precision::F32);

  api::SessionOptions serial;
  serial.seed = 7;
  serial.num_processes = 1;
  api::SessionOptions sharded;
  sharded.seed = 7;
  sharded.num_processes = 2;
  api::Session s1(w, "mbqc", serial);
  api::Session s2(w, "mbqc", sharded);

  const auto r1 = s1.sample(angles, 96);
  const auto r2 = s2.sample(angles, 96);
  ASSERT_GT(s2.shard_workers(), 0)
      << "sharding fell back in-process; the cross-process half of this "
         "test would be vacuous";
  ASSERT_EQ(r1.shots.size(), r2.shots.size());
  for (std::size_t i = 0; i < r1.shots.size(); ++i)
    ASSERT_EQ(r1.shots[i].x, r2.shots[i].x) << "shot " << i;
}

}  // namespace
}  // namespace mbq
