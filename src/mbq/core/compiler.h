#pragma once
// The paper's contribution: compiling QAOA (for arbitrary depth p, on
// arbitrary QUBO/PUBO cost functions) into deterministic measurement
// patterns — Sec. III, Eqs. (8), (9), (10) and (12).
//
// Construction, per QAOA layer k (angles gamma_k, beta_k):
//
//  * each Ising term w_S Z_S becomes ONE ancilla, CZ-entangled to every
//    wire in S, measured in the YZ plane at angle 2 gamma_k w_S (sign
//    adapted by the accumulated X-frame parity of S — the paper's
//    (-1)^{...} adaptations); the outcome adds a Z byproduct to every
//    wire of S (the "m_uv pi" spiders of Eq. (8)).  |S| = 2 is the
//    per-edge gadget; |S| = 1 is the single-qubit rotation of Eq. (10)
//    ("one additional qubit and entangling gate per vertex"); |S| > 2
//    covers the higher-order extension mentioned in Sec. III.
//
//  * the mixer exp(-i beta_k X_v) becomes the two-ancilla J-chain of
//    Eq. (9): J(2 beta_k) . J(0); the wire qubit is measured in XY and
//    its state teleports to the second ancilla, with the first
//    measurement angle sign-adapted — the paper's (-1)^{m_u} beta.
//
// Byproduct frames are tracked symbolically (SignalExpr), so the emitted
// pattern contains the paper's adaptive parities (P_u etc.) explicitly
// and is deterministic by construction; tests verify branch-independence
// and gflow existence.

#include <unordered_map>

#include "mbq/circuit/circuit.h"
#include "mbq/mbqc/pattern.h"
#include "mbq/qaoa/hamiltonian.h"
#include "mbq/qaoa/qaoa.h"

namespace mbq::core {

/// Whether byproduct operators are fixed by terminal X/Z correction
/// commands in the pattern (Quantum) or exported as frames and applied
/// to samples classically (ClassicalPostProcess) — the resource-free
/// hardware option benchmarked by bench_ablations.
enum class CorrectionMode : std::uint8_t { Quantum, ClassicalPostProcess };

enum class LinearTermStyle : std::uint8_t {
  /// Paper-faithful: one YZ-gadget ancilla per vertex with a linear term
  /// (Eq. (10); +1 qubit, +1 CZ per vertex per layer).
  Gadget,
  /// Optimization (ablation): fold the linear rotation into the first
  /// mixer J angle — J(2 beta) J(phi) instead of J(2 beta) J(0); zero
  /// extra ancillas.
  FusedIntoMixer,
};

struct CompileOptions {
  LinearTermStyle linear_style = LinearTermStyle::Gadget;
  /// Emit terminal X/Z correction commands (quantum corrections).  When
  /// false the byproduct frames are exported for classical
  /// post-processing of samples instead.
  bool final_corrections = true;
  /// Bound on the number of CZ edges any single physical qubit may carry
  /// (0 = unlimited).  When a wire is about to exceed the bound, an
  /// identity teleport J(0)∘J(0) = I moves it to a fresh qubit — the
  /// "un-fusing" the paper points to for compiling the resource state
  /// onto degree-limited hardware graphs (Sec. III, ref [49]).  Costs two
  /// ancillas and two CZ per split; must be >= 3 when set.
  int max_wire_degree = 0;
};

struct CompiledPattern {
  mbqc::Pattern pattern;
  /// Output wire per logical qubit.
  std::vector<int> output_wires;
  /// Final byproduct frames per logical qubit (empty when corrections
  /// were emitted): a set X^{fx} Z^{fz} relating the raw output state to
  /// the ideal one.  In sampling mode only fx matters: it flips bits.
  std::vector<SignalExpr> final_fx;
  std::vector<SignalExpr> final_fz;
};

/// Compile QAOA_p for the given cost function and angles.
CompiledPattern compile_qaoa(const qaoa::CostHamiltonian& cost,
                             const qaoa::Angles& angles,
                             const CompileOptions& options = {});

/// Tailored translation of a general circuit acting on |+...+>: diagonal
/// gates (Rz, S, T, Z, phase gadgets) use zero-teleportation YZ gadgets;
/// only Hadamard-like gates consume wires via J steps.  Used for the MIS
/// ansatz (Sec. IV) and the XY mixers (Sec. V).
CompiledPattern compile_circuit_tailored(const Circuit& circuit,
                                         const CompileOptions& options = {});

}  // namespace mbq::core
