#pragma once
// Generic circuit -> measurement-pattern translation via J(alpha)
// decomposition.
//
// This is the "general method to translate gate-based algorithms into the
// MBQC model" that the paper's introduction contrasts against: every gate
// is decomposed into CZ and J(alpha) = H Rz(alpha), and each J consumes
// one fresh ancilla.  It is correct for arbitrary circuits but pays a
// significant resource overhead compared to the tailored compiler in
// mbq/core (bench_resources quantifies the gap, reproducing the paper's
// discussion).
//
// Byproduct bookkeeping: the translator tracks a symbolic Pauli frame
// (X^fx Z^fz per wire).  A J-step measures the wire in XY at angle
// -alpha with sign domain fx and outcome-flip domain fz; the recorded
// outcome becomes the new X frame and the old X frame becomes the Z
// frame.  CZ conjugates frames as CZ X_u = X_u Z_v CZ.

#include "mbq/circuit/circuit.h"
#include "mbq/mbqc/pattern.h"

namespace mbq::mbqc {

/// Translate a circuit into a pattern.
/// plus_inputs == true:  the pattern N-prepares the initial wires, i.e. it
///                       computes circuit|+...+> (the QAOA setting).
/// plus_inputs == false: initial wires are pattern inputs.
Pattern pattern_from_circuit(const Circuit& c, bool plus_inputs);

}  // namespace mbq::mbqc
