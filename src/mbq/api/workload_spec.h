#pragma once
// The declarative workload IR.
//
// A WorkloadSpec is the value-semantic description of everything a
// Workload is: which ansatz prepares the trial state, the cost
// Hamiltonian it optimizes, the measurement-compilation options, and the
// entangler-noise level of its measurement-based execution.  Every
// built-in ansatz is pure data here — the QAOA-diagonal ansatz is its
// cost function, the (weighted) MIS ansatz is a graph plus per-vertex
// weights, and parameterized circuits (XY mixers, HEA, ...) are
// declarative qaoa::ParamCircuit gate lists instead of std::function
// closures.  Data serializes: encode()/decode() give an exact binary
// round trip over common/serialize.h, which is what lets the shard
// layer ship ANY built-in workload to a worker process and replay it
// bit-identically.  Only the CustomCircuit escape hatch (an arbitrary
// CircuitBuilder closure, held by Workload itself, not the spec) is
// opaque — and it is the only workload shape that cannot shard.
//
// The spec owns heavyweight members behind shared_ptr (the MIS graph,
// the gate list), so copying a Workload — which Session, the shard
// requests and the batch paths all do freely — costs two refcounts, not
// a graph copy.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mbq/common/serialize.h"
#include "mbq/common/types.h"
#include "mbq/core/compiler.h"
#include "mbq/graph/graph.h"
#include "mbq/qaoa/hamiltonian.h"
#include "mbq/qaoa/param_circuit.h"

namespace mbq::api {

enum class AnsatzKind : std::uint8_t {
  QaoaDiagonal,
  MisConstrained,
  CustomCircuit,
  ParamCircuit,
};

std::string ansatz_kind_name(AnsatzKind k);
/// Every ansatz kind name, comma separated, for error messages.
std::string ansatz_kind_listing();

struct WorkloadSpec {
  AnsatzKind kind = AnsatzKind::QaoaDiagonal;
  qaoa::CostHamiltonian cost{1};

  /// MisConstrained: the constraint graph (never null for that kind) and
  /// optional per-vertex weights (empty = unweighted, all ones).
  std::shared_ptr<const Graph> graph;
  std::vector<real> vertex_weights;

  /// ParamCircuit: the declarative ansatz (never null for that kind).
  std::shared_ptr<const qaoa::ParamCircuit> circuit;

  // --- compile / execution options ------------------------------------
  core::LinearTermStyle linear_style = core::LinearTermStyle::Gadget;
  int max_wire_degree = 0;
  /// Depolarizing probability after every entangling command of the
  /// measurement-based execution (mbqc/runner.h); 0 = noiseless.  Ideal
  /// backends (statevector, clifford, zx) reject noisy workloads — see
  /// Capabilities::supports_noise.
  real entangler_noise = 0.0;
  /// Statevector storage precision of the measurement-based execution
  /// (common/types.h).  F32 halves the amplitude footprint — roughly one
  /// extra qubit of reach — and is deterministic within the precision,
  /// but NOT bit-comparable to F64 runs.  Part of the codec, so a
  /// sharded or served f32 workload executes f32 remotely too, and the
  /// fingerprint (= every prepare-cache key) distinguishes precisions.
  /// Only f32-capable backends accept F32 — see
  /// Capabilities::supports_f32_storage.
  Precision precision = Precision::F64;

  /// CustomCircuit specs describe everything EXCEPT the closure, so they
  /// are the one kind that cannot round-trip through encode().
  bool serializable() const noexcept {
    return kind != AnsatzKind::CustomCircuit;
  }

  /// Throws Error (with the first inconsistency) unless the spec is
  /// internally consistent: kind-specific members present, weight/width
  /// counts matching, options in range.  decode() always returns a
  /// validated spec; hand-built specs go through Workload::from_spec,
  /// which calls this.
  void validate() const;
};

/// Stable 64-bit FNV-1a hash of the spec's exact codec bytes.  Two specs
/// fingerprint equal iff they encode equal — so the fingerprint survives
/// a serialize/parse round trip unchanged, distinguishes any two specs
/// the codec distinguishes (different costs, angles aside, noise levels,
/// compile options...), and is stable across processes and runs (FNV-1a
/// over little-endian bytes has no seed and no pointer dependence).
/// Used as the serving daemon's warm prepare-cache key, and handy as a
/// compact workload label in logs and bench output.  Throws Error for
/// CustomCircuit specs (they do not serialize).
std::uint64_t spec_fingerprint(const WorkloadSpec& spec);

/// FNV-1a 64 over raw bytes — the primitive under spec_fingerprint,
/// exposed so other layers can hash wire payloads the same way (the
/// daemon keys (spec, angles) pairs by chaining angle bytes onto the
/// spec fingerprint).
std::uint64_t fnv1a64(std::span<const std::byte> bytes,
                      std::uint64_t seed = 14695981039346656037ULL);

/// Exact binary codec over common/serialize.h.  encode() requires
/// serializable(); decode() never trusts the frame — malformed input
/// throws Error, and the returned spec is validate()d.  decode(encode(s))
/// reproduces s bit-exactly (f64 members travel as IEEE-754 bit
/// patterns), so a workload rebuilt in a worker process executes
/// bit-identically to the parent's.
void encode_spec(ByteWriter& out, const WorkloadSpec& spec);
WorkloadSpec decode_spec(ByteReader& in);

/// Frame-level conveniences for tests and tooling.
std::vector<std::byte> serialize_spec(const WorkloadSpec& spec);
WorkloadSpec parse_spec(std::span<const std::byte> frame);

}  // namespace mbq::api
