#include "mbq/api/workload.h"

#include "mbq/common/error.h"
#include "mbq/core/mis.h"
#include "mbq/qaoa/mixers.h"

namespace mbq::api {

Workload Workload::qaoa(qaoa::CostHamiltonian cost) {
  WorkloadSpec spec;
  spec.cost = std::move(cost);
  return Workload(std::move(spec));
}

Workload Workload::maxcut(const Graph& g) {
  return Workload::qaoa(qaoa::CostHamiltonian::maxcut(g));
}

Workload Workload::maxcut_weighted(const Graph& g,
                                   const std::vector<real>& weights) {
  return Workload::qaoa(qaoa::CostHamiltonian::maxcut_weighted(g, weights));
}

Workload Workload::pubo(int n, const std::vector<qaoa::PuboTerm>& terms,
                        real constant) {
  return Workload::qaoa(qaoa::CostHamiltonian::pubo(n, terms, constant));
}

Workload Workload::mis(const Graph& g) {
  WorkloadSpec spec;
  spec.kind = AnsatzKind::MisConstrained;
  spec.cost = qaoa::CostHamiltonian::independent_set_size(g.num_vertices());
  spec.graph = std::make_shared<const Graph>(g);
  return Workload(std::move(spec));
}

Workload Workload::mis_weighted(const Graph& g, std::vector<real> weights) {
  MBQ_REQUIRE(static_cast<int>(weights.size()) == g.num_vertices(),
              "MIS weight count " << weights.size() << " != vertex count "
                                  << g.num_vertices());
  WorkloadSpec spec;
  spec.kind = AnsatzKind::MisConstrained;
  spec.cost = qaoa::CostHamiltonian::weighted_independent_set(weights);
  spec.graph = std::make_shared<const Graph>(g);
  spec.vertex_weights = std::move(weights);
  return Workload(std::move(spec));
}

Workload Workload::parameterized(qaoa::CostHamiltonian cost,
                                 qaoa::ParamCircuit circuit) {
  MBQ_REQUIRE(circuit.num_qubits() == cost.num_qubits(),
              "declarative circuit acts on " << circuit.num_qubits()
                                             << " qubits, cost on "
                                             << cost.num_qubits());
  WorkloadSpec spec;
  spec.kind = AnsatzKind::ParamCircuit;
  spec.cost = std::move(cost);
  spec.circuit =
      std::make_shared<const qaoa::ParamCircuit>(std::move(circuit));
  return Workload(std::move(spec));
}

Workload Workload::custom(qaoa::CostHamiltonian cost, CircuitBuilder builder) {
  MBQ_REQUIRE(builder != nullptr, "custom workload needs a circuit builder");
  WorkloadSpec spec;
  spec.kind = AnsatzKind::CustomCircuit;
  spec.cost = std::move(cost);
  Workload w(std::move(spec));
  w.circuit_ = std::move(builder);
  return w;
}

Workload Workload::from_spec(WorkloadSpec spec) {
  MBQ_REQUIRE(spec.kind != AnsatzKind::CustomCircuit,
              "a custom-circuit workload cannot be rebuilt from a spec: the "
              "CircuitBuilder closure is not part of it — use "
              "Workload::custom");
  spec.validate();
  return Workload(std::move(spec));
}

const Graph& Workload::mis_graph() const {
  MBQ_REQUIRE(spec_.kind == AnsatzKind::MisConstrained,
              "workload has no MIS graph (ansatz is "
                  << ansatz_kind_name(spec_.kind)
                  << "; only the constraint-preserving MIS ansatz carries "
                     "one; known kinds: " << ansatz_kind_listing() << ")");
  return *spec_.graph;
}

const std::vector<real>& Workload::mis_weights() const {
  MBQ_REQUIRE(spec_.kind == AnsatzKind::MisConstrained,
              "workload has no MIS vertex weights (ansatz is "
                  << ansatz_kind_name(spec_.kind)
                  << "; known kinds: " << ansatz_kind_listing() << ")");
  return spec_.vertex_weights;
}

const qaoa::ParamCircuit& Workload::param_circuit() const {
  MBQ_REQUIRE(spec_.kind == AnsatzKind::ParamCircuit,
              "workload has no declarative circuit (ansatz is "
                  << ansatz_kind_name(spec_.kind)
                  << "; known kinds: " << ansatz_kind_listing() << ")");
  return *spec_.circuit;
}

Workload& Workload::with_linear_style(core::LinearTermStyle style) {
  spec_.linear_style = style;
  return *this;
}

Workload& Workload::with_max_wire_degree(int degree) {
  MBQ_REQUIRE(degree == 0 || degree >= 3,
              "max_wire_degree must be 0 (unlimited) or >= 3, got " << degree);
  spec_.max_wire_degree = degree;
  return *this;
}

Workload& Workload::with_entangler_noise(real probability) {
  MBQ_REQUIRE(probability >= 0.0 && probability <= 1.0,
              "entangler noise probability out of range: " << probability);
  spec_.entangler_noise = probability;
  return *this;
}

Workload& Workload::with_precision(Precision p) {
  const auto v = static_cast<std::uint8_t>(p);
  MBQ_REQUIRE(v <= static_cast<std::uint8_t>(Precision::F32),
              "invalid precision " << int{v});
  spec_.precision = p;
  return *this;
}

core::CompileOptions Workload::compile_options(bool final_corrections) const {
  core::CompileOptions o;
  o.linear_style = spec_.linear_style;
  o.final_corrections = final_corrections;
  o.max_wire_degree = spec_.max_wire_degree;
  return o;
}

std::shared_ptr<const std::vector<real>> Workload::cost_table() const {
  std::call_once(table_->once, [this] {
    table_->table =
        std::make_shared<const std::vector<real>>(spec_.cost.cost_table());
  });
  return table_->table;
}

Statevector Workload::reference_state(const qaoa::Angles& a) const {
  switch (spec_.kind) {
    case AnsatzKind::QaoaDiagonal: {
      const auto table = cost_table();
      return qaoa::qaoa_state(spec_.cost, a, table.get());
    }
    case AnsatzKind::MisConstrained: {
      Statevector sv(num_qubits());  // feasible start |0...0>
      const Circuit c =
          spec_.vertex_weights.empty()
              ? qaoa::mis_qaoa_circuit(*spec_.graph, a)
              : qaoa::mis_qaoa_circuit_weighted(*spec_.graph,
                                                spec_.vertex_weights, a);
      c.apply_to(sv);
      return sv;
    }
    case AnsatzKind::ParamCircuit: {
      Statevector sv = Statevector::all_plus(num_qubits());
      spec_.circuit->instantiate(a).apply_to(sv);
      return sv;
    }
    case AnsatzKind::CustomCircuit: {
      Statevector sv = Statevector::all_plus(num_qubits());
      circuit_(a).apply_to(sv);
      return sv;
    }
  }
  throw InternalError("unreachable ansatz kind");
}

core::CompiledPattern Workload::compile_pattern(const qaoa::Angles& a,
                                                bool final_corrections) const {
  const core::CompileOptions options = compile_options(final_corrections);
  switch (spec_.kind) {
    case AnsatzKind::QaoaDiagonal:
      return core::compile_qaoa(spec_.cost, a, options);
    case AnsatzKind::MisConstrained:
      return spec_.vertex_weights.empty()
                 ? core::compile_mis_qaoa(*spec_.graph, a, options)
                 : core::compile_mis_qaoa_weighted(
                       *spec_.graph, spec_.vertex_weights, a, options);
    case AnsatzKind::ParamCircuit:
      return core::compile_circuit_tailored(spec_.circuit->instantiate(a),
                                            options);
    case AnsatzKind::CustomCircuit:
      return core::compile_circuit_tailored(circuit_(a), options);
  }
  throw InternalError("unreachable ansatz kind");
}

}  // namespace mbq::api
