#pragma once
// The unified execution-backend interface.
//
// Every way this library can evaluate a QAOA workload — fast diagonal
// statevector, full adaptive MBQC protocol, stabilizer tableau at
// Clifford angles, ZX tensor contraction — implements this one
// interface, so benches, examples and the variational outer loop are
// written once against Backend and select implementations by registry
// name (see registry.h).  The paper's central equivalence claim then
// reads: all backends agree on expectation() for every workload they
// support.
//
// Backends are STATELESS (all methods const): per-(workload, angles)
// artifacts that are worth reusing across calls — compiled measurement
// patterns, evaluated amplitude tables — are returned by prepare() as an
// opaque Prepared and threaded back in by the caller.  Session (see
// session.h) owns the cache and the batching; backends stay pure
// adapters.

#include <cstdint>
#include <memory>
#include <string>

#include "mbq/api/workload.h"
#include "mbq/common/rng.h"

namespace mbq::api {

/// What a backend can and cannot do, for dispatch and documentation.
struct Capabilities {
  /// One-line human description.
  std::string summary;
  /// Largest problem register the backend can handle.
  int max_qubits = 28;
  /// expectation() is exact (deterministic protocol / full contraction),
  /// not a shot-based estimate.
  bool exact_expectation = true;
  bool supports_sampling = true;
  /// Only angles compiling to pi/2-multiple measurement patterns run.
  bool clifford_angles_only = false;
  bool supports_mis_ansatz = true;
  /// Arbitrary angle-parameterized circuits — covers both the
  /// declarative ParamCircuit ansatz and the CustomCircuit escape hatch.
  bool supports_custom_ansatz = true;
  /// Largest Ising-term order |S| the backend can evaluate (0 =
  /// unlimited).  Higher-order PUBO costs expand into |S| > 2 terms;
  /// a bounded backend rejects them and the router passes it over.
  int max_term_order = 0;
  /// Whether the backend can execute workloads with entangler_noise > 0
  /// (the mbqc runner's depolarizing channel).  Ideal backends
  /// (statevector, clifford, zx) are noiseless by construction and
  /// reject noisy workloads, so the router sends them to a
  /// measurement-based adapter.
  bool supports_noise = false;
  /// Whether the backend honors WorkloadSpec::precision == F32 (the
  /// simulator's float32 statevector storage).  Backends that compute in
  /// f64 regardless — exact contraction, tableau, the dense reference
  /// statevector — must reject f32 workloads rather than silently run
  /// them at the wrong precision, so the router sends those to an
  /// f32-capable measurement-based adapter.
  bool supports_f32_storage = false;
};

/// Opaque reusable per-(workload, angles) compilation artifact.
class Prepared {
 public:
  virtual ~Prepared() = default;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Stable identifier; also the default registry key.
  virtual std::string name() const = 0;
  virtual Capabilities capabilities() const = 0;

  /// Empty string when the backend can run (workload, angles); otherwise
  /// a human-readable reason it cannot.  The default checks the generic
  /// Capabilities constraints; backends refine it.  `prep`, when
  /// available, lets a backend whose check needs the compiled artifact
  /// (e.g. clifford's angle test) reuse it instead of recompiling.
  virtual std::string unsupported_reason(const Workload& w,
                                         const qaoa::Angles& a,
                                         const Prepared* prep = nullptr) const;

  /// Compile whatever is reusable across expectation/sample calls at
  /// fixed angles.  May return null (nothing worth caching).
  virtual std::shared_ptr<const Prepared> prepare(const Workload& w,
                                                  const qaoa::Angles& a) const;

  /// <C> at the given angles.  `prep`, when non-null, must come from
  /// prepare() on the same (workload, angles).
  virtual real expectation(const Workload& w, const qaoa::Angles& a, Rng& rng,
                           const Prepared* prep = nullptr) const = 0;

  /// One measurement of the problem register.  Shots are drawn by
  /// Session::sample, which gives shot s of call k the stream
  /// rng.stream(k).stream(s).
  virtual std::uint64_t sample_one(const Workload& w, const qaoa::Angles& a,
                                   Rng& rng,
                                   const Prepared* prep = nullptr) const = 0;
};

}  // namespace mbq::api
