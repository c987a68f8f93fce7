#include "mbq/core/compiler.h"

#include "mbq/common/error.h"

namespace mbq::core {

namespace {

/// Shared emission machinery: wires with symbolic byproduct frames,
/// YZ phase gadgets and XY J-steps.
class GadgetCompiler {
 public:
  GadgetCompiler(mbqc::Pattern& p, int n, int max_wire_degree = 0)
      : p_(p), max_degree_(max_wire_degree), cur_(n), degree_(n, 0), fx_(n),
        fz_(n) {
    MBQ_REQUIRE(max_degree_ == 0 || max_degree_ >= 3,
                "max_wire_degree must be 0 (unlimited) or >= 3, got "
                    << max_degree_);
    for (int q = 0; q < n; ++q) {
      cur_[q] = next_wire_++;
      p_.add_prep(cur_[q]);  // |+>^n initial state (Sec. II-C)
    }
  }

  /// YZ-gadget: exp(-i theta/2 Z_S) on logical qubits S (Eq. (8)/(10)).
  /// Identically-zero angles emit nothing: exp(0) = I contributes no
  /// phase on ANY branch, and the skipped outcome's Z-byproducts drop
  /// with it, so the pattern stays deterministic with one fewer ancilla.
  void phase_gadget(const std::vector<int>& support, real theta) {
    if (theta == 0.0) return;
    for (int q : support) reserve_degree(q, 1);
    const int a = next_wire_++;
    p_.add_prep(a);
    SignalExpr sign;
    for (int q : support) {
      p_.add_entangle(a, cur_[q]);
      ++degree_[q];
      sign ^= fx_[q];
    }
    const signal_t m = p_.add_measure(a, MeasBasis::YZ, theta, sign, {});
    for (int q : support) fz_[q] ^= SignalExpr(m);
  }

  /// J(alpha) = H Rz(alpha) on logical qubit q (one Eq. (9) step).
  void j_step(int q, real alpha) {
    const int a = next_wire_++;
    p_.add_prep(a);
    p_.add_entangle(cur_[q], a);
    const signal_t m =
        p_.add_measure(cur_[q], MeasBasis::XY, -alpha, fx_[q], fz_[q]);
    fz_[q] = fx_[q];
    fx_[q] = SignalExpr(m);
    cur_[q] = a;
    degree_[q] = 1;  // the fresh qubit already carries the teleport edge
  }

  /// Un-fusing (Sec. III / ref [49]): if attaching `extra` more CZ edges
  /// to q's current qubit would exceed the degree bound, teleport the
  /// wire to a fresh qubit through an identity J(0) J(0) = I chain.  The
  /// byproduct frames absorb the corrections automatically.
  void reserve_degree(int q, int extra) {
    if (max_degree_ == 0) return;
    // Keep one slot spare for the edge that eventually teleports this
    // qubit out (mixer or identity J-step), so the final graph degree
    // never exceeds the bound.
    if (degree_[q] + extra + 1 <= max_degree_) return;
    j_step(q, 0.0);
    j_step(q, 0.0);
  }

  /// exp(-i beta X_q), optionally preceded by Rz(phi):
  /// RX(2 beta) Rz(phi) = J(2 beta) J(phi) — the Eq. (9) chain.
  void mixer(int q, real beta, real fused_rz_angle = 0.0) {
    j_step(q, fused_rz_angle);
    j_step(q, 2.0 * beta);
  }

  /// CZ between two logical wires (frames commute as CZ X_u = X_u Z_v CZ).
  void cz(int u, int v) {
    reserve_degree(u, 1);
    reserve_degree(v, 1);
    p_.add_entangle(cur_[u], cur_[v]);
    ++degree_[u];
    ++degree_[v];
    const SignalExpr fxu = fx_[u];
    fz_[u] ^= fx_[v];
    fz_[v] ^= fxu;
  }

  CompiledPattern finish(bool final_corrections) {
    CompiledPattern out;
    for (std::size_t q = 0; q < cur_.size(); ++q) {
      if (final_corrections) {
        if (!fx_[q].empty()) p_.add_correct_x(cur_[q], fx_[q]);
        if (!fz_[q].empty()) p_.add_correct_z(cur_[q], fz_[q]);
        out.final_fx.emplace_back();
        out.final_fz.emplace_back();
      } else {
        out.final_fx.push_back(fx_[q]);
        out.final_fz.push_back(fz_[q]);
      }
      out.output_wires.push_back(cur_[q]);
    }
    p_.set_outputs(out.output_wires);
    return out;
  }

 private:
  mbqc::Pattern& p_;
  int max_degree_ = 0;
  int next_wire_ = 0;
  std::vector<int> cur_;
  std::vector<int> degree_;  // CZ edges on each wire's CURRENT qubit
  std::vector<SignalExpr> fx_, fz_;
};

}  // namespace

CompiledPattern compile_qaoa(const qaoa::CostHamiltonian& cost,
                             const qaoa::Angles& angles,
                             const CompileOptions& options) {
  const int n = cost.num_qubits();
  CompiledPattern out;
  mbqc::Pattern pattern;
  GadgetCompiler gc(pattern, n, options.max_wire_degree);

  // Linear coefficients, for the fused-mixer variant.
  std::vector<real> linear(n, 0.0);
  for (const auto& t : cost.terms())
    if (t.support.size() == 1) linear[t.support[0]] = t.coeff;

  for (int k = 0; k < angles.p(); ++k) {
    const real gamma = angles.gamma[k];
    const real beta = angles.beta[k];
    // Phase-separation layer: one gadget per Ising term (all terms
    // commute, so emission order is irrelevant).
    for (const auto& t : cost.terms()) {
      if (t.support.size() == 1 &&
          options.linear_style == LinearTermStyle::FusedIntoMixer)
        continue;
      gc.phase_gadget(t.support, 2.0 * gamma * t.coeff);
    }
    // Mixing layer.
    for (int q = 0; q < n; ++q) {
      const real fused =
          options.linear_style == LinearTermStyle::FusedIntoMixer
              ? 2.0 * gamma * linear[q]
              : 0.0;
      gc.mixer(q, beta, fused);
    }
  }

  CompiledPattern result = gc.finish(options.final_corrections);
  result.pattern = std::move(pattern);
  result.pattern.validate();
  return result;
}

CompiledPattern compile_circuit_tailored(const Circuit& circuit,
                                         const CompileOptions& options) {
  const Circuit c = circuit.expand_controlled_gates();
  CompiledPattern out;
  mbqc::Pattern pattern;
  GadgetCompiler gc(pattern, c.num_qubits(), options.max_wire_degree);

  for (const Gate& g : c.gates()) {
    switch (g.kind) {
      case GateKind::H:
        gc.j_step(g.qubits[0], 0.0);
        break;
      case GateKind::Rz:
        gc.phase_gadget({g.qubits[0]}, g.angle);
        break;
      case GateKind::Z:
        gc.phase_gadget({g.qubits[0]}, kPi);
        break;
      case GateKind::S:
        gc.phase_gadget({g.qubits[0]}, kPi / 2);
        break;
      case GateKind::Sdg:
        gc.phase_gadget({g.qubits[0]}, -kPi / 2);
        break;
      case GateKind::T:
        gc.phase_gadget({g.qubits[0]}, kPi / 4);
        break;
      case GateKind::Tdg:
        gc.phase_gadget({g.qubits[0]}, -kPi / 4);
        break;
      case GateKind::Rx:
        gc.j_step(g.qubits[0], 0.0);
        gc.j_step(g.qubits[0], g.angle);
        break;
      case GateKind::X:
        gc.j_step(g.qubits[0], 0.0);
        gc.j_step(g.qubits[0], kPi);
        break;
      case GateKind::Y:
        gc.phase_gadget({g.qubits[0]}, kPi);
        gc.j_step(g.qubits[0], 0.0);
        gc.j_step(g.qubits[0], kPi);
        break;
      case GateKind::PhaseGadget:
        gc.phase_gadget(g.qubits, g.angle);
        break;
      case GateKind::Cz:
        gc.cz(g.qubits[0], g.qubits[1]);
        break;
      case GateKind::Cx:
        gc.j_step(g.qubits[1], 0.0);
        gc.cz(g.qubits[0], g.qubits[1]);
        gc.j_step(g.qubits[1], 0.0);
        break;
      case GateKind::ControlledExpX:
        throw InternalError("controlled gates were expanded above");
    }
  }

  CompiledPattern result = gc.finish(options.final_corrections);
  result.pattern = std::move(pattern);
  result.pattern.validate();
  return result;
}

}  // namespace mbq::core
