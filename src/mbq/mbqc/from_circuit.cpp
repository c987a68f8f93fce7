#include "mbq/mbqc/from_circuit.h"

#include "mbq/common/error.h"

namespace mbq::mbqc {

namespace {

class Translator {
 public:
  Translator(Pattern& p, int n, bool plus_inputs) : p_(p) {
    cur_.resize(n);
    fx_.resize(n);
    fz_.resize(n);
    for (int q = 0; q < n; ++q) {
      cur_[q] = next_wire_++;
      if (plus_inputs) {
        p_.add_prep(cur_[q]);
      } else {
        p_.add_input(cur_[q]);
      }
    }
  }

  /// J(alpha) = H Rz(alpha) on logical qubit q, consuming one ancilla.
  void j(int q, real alpha) {
    const int a = next_wire_++;
    p_.add_prep(a);
    p_.add_entangle(cur_[q], a);
    const signal_t m =
        p_.add_measure(cur_[q], MeasBasis::XY, -alpha, fx_[q], fz_[q]);
    fz_[q] = fx_[q];
    fx_[q] = SignalExpr(m);
    cur_[q] = a;
  }

  void cz(int u, int v) {
    p_.add_entangle(cur_[u], cur_[v]);
    // CZ X_u^s = X_u^s Z_v^s CZ (and symmetrically).
    const SignalExpr fxu = fx_[u];
    fz_[u] ^= fx_[v];
    fz_[v] ^= fxu;
  }

  void rz(int q, real theta) {
    j(q, theta);
    j(q, 0.0);
  }

  void rx(int q, real theta) {
    j(q, 0.0);
    j(q, theta);
  }

  void gate(const Gate& g) {
    switch (g.kind) {
      case GateKind::H: j(g.qubits[0], 0.0); break;
      case GateKind::Rz: rz(g.qubits[0], g.angle); break;
      case GateKind::Rx: rx(g.qubits[0], g.angle); break;
      case GateKind::Z: rz(g.qubits[0], kPi); break;
      case GateKind::X: rx(g.qubits[0], kPi); break;
      case GateKind::Y:
        rz(g.qubits[0], kPi);
        rx(g.qubits[0], kPi);
        break;
      case GateKind::S: rz(g.qubits[0], kPi / 2); break;
      case GateKind::Sdg: rz(g.qubits[0], -kPi / 2); break;
      case GateKind::T: rz(g.qubits[0], kPi / 4); break;
      case GateKind::Tdg: rz(g.qubits[0], -kPi / 4); break;
      case GateKind::Cz: cz(g.qubits[0], g.qubits[1]); break;
      case GateKind::Cx:
        j(g.qubits[1], 0.0);
        cz(g.qubits[0], g.qubits[1]);
        j(g.qubits[1], 0.0);
        break;
      case GateKind::PhaseGadget: {
        // Generic CX-ladder compilation (deliberately not the tailored
        // gadget): CX chain down, Rz on the last, CX chain up.
        const auto& s = g.qubits;
        for (std::size_t i = 0; i + 1 < s.size(); ++i) {
          j(s[i + 1], 0.0);
          cz(s[i], s[i + 1]);
          j(s[i + 1], 0.0);
        }
        rz(s.back(), g.angle);
        for (std::size_t i = s.size() - 1; i-- > 0;) {
          j(s[i + 1], 0.0);
          cz(s[i], s[i + 1]);
          j(s[i + 1], 0.0);
        }
        break;
      }
      case GateKind::ControlledExpX:
        throw InternalError(
            "ControlledExpX must be expanded before pattern translation");
    }
  }

  void finish() {
    std::vector<int> outs;
    for (std::size_t q = 0; q < cur_.size(); ++q) {
      if (!fx_[q].empty()) p_.add_correct_x(cur_[q], fx_[q]);
      if (!fz_[q].empty()) p_.add_correct_z(cur_[q], fz_[q]);
      outs.push_back(cur_[q]);
    }
    p_.set_outputs(std::move(outs));
  }

 private:
  Pattern& p_;
  int next_wire_ = 0;
  std::vector<int> cur_;
  std::vector<SignalExpr> fx_, fz_;
};

}  // namespace

Pattern pattern_from_circuit(const Circuit& circuit, bool plus_inputs) {
  const Circuit c = circuit.expand_controlled_gates();
  Pattern p;
  Translator tr(p, c.num_qubits(), plus_inputs);
  for (const Gate& g : c.gates()) tr.gate(g);
  tr.finish();
  p.validate();
  return p;
}

}  // namespace mbq::mbqc
