#include "mbq/api/workload_spec.h"

#include "mbq/common/error.h"

namespace mbq::api {

std::string ansatz_kind_name(AnsatzKind k) {
  switch (k) {
    case AnsatzKind::QaoaDiagonal: return "qaoa";
    case AnsatzKind::MisConstrained: return "mis";
    case AnsatzKind::CustomCircuit: return "custom";
    case AnsatzKind::ParamCircuit: return "param-circuit";
  }
  return "?";
}

std::string ansatz_kind_listing() {
  return "qaoa, mis, custom, param-circuit";
}

void WorkloadSpec::validate() const {
  const auto k = static_cast<std::uint8_t>(kind);
  MBQ_REQUIRE(k <= static_cast<std::uint8_t>(AnsatzKind::ParamCircuit),
              "invalid ansatz kind " << int{k} << " (known kinds: "
                                     << ansatz_kind_listing() << ")");
  const auto style = static_cast<std::uint8_t>(linear_style);
  MBQ_REQUIRE(
      style <= static_cast<std::uint8_t>(core::LinearTermStyle::FusedIntoMixer),
      "invalid linear-term style " << int{style});
  MBQ_REQUIRE(max_wire_degree == 0 || max_wire_degree >= 3,
              "max_wire_degree must be 0 (unlimited) or >= 3, got "
                  << max_wire_degree);
  MBQ_REQUIRE(entangler_noise >= 0.0 && entangler_noise <= 1.0,
              "entangler noise probability out of range: " << entangler_noise);
  const auto prec = static_cast<std::uint8_t>(precision);
  MBQ_REQUIRE(prec <= static_cast<std::uint8_t>(Precision::F32),
              "invalid precision " << int{prec});

  // Kind-specific members are canonical: present exactly when the kind
  // uses them, so equal workloads have equal (and equal-encoding) specs.
  if (kind == AnsatzKind::MisConstrained) {
    MBQ_REQUIRE(graph != nullptr, "MIS spec needs a constraint graph");
    MBQ_REQUIRE(graph->num_vertices() == cost.num_qubits(),
                "MIS graph has " << graph->num_vertices()
                                 << " vertices, cost acts on "
                                 << cost.num_qubits() << " qubits");
    MBQ_REQUIRE(vertex_weights.empty() ||
                    static_cast<int>(vertex_weights.size()) ==
                        graph->num_vertices(),
                "MIS weight count " << vertex_weights.size()
                                    << " != vertex count "
                                    << graph->num_vertices());
  } else {
    MBQ_REQUIRE(graph == nullptr && vertex_weights.empty(),
                "only MIS specs carry a graph / vertex weights (kind is "
                    << ansatz_kind_name(kind) << ")");
  }
  if (kind == AnsatzKind::ParamCircuit) {
    MBQ_REQUIRE(circuit != nullptr,
                "param-circuit spec needs a declarative circuit");
    MBQ_REQUIRE(circuit->num_qubits() == cost.num_qubits(),
                "declarative circuit acts on " << circuit->num_qubits()
                                               << " qubits, cost on "
                                               << cost.num_qubits());
  } else {
    MBQ_REQUIRE(circuit == nullptr,
                "only param-circuit specs carry a declarative circuit "
                "(kind is " << ansatz_kind_name(kind) << ")");
  }
}

namespace {

void encode_cost(ByteWriter& out, const qaoa::CostHamiltonian& c) {
  out.i32(c.num_qubits());
  out.f64(c.constant());
  out.u32(static_cast<std::uint32_t>(c.terms().size()));
  for (const qaoa::IsingTerm& t : c.terms()) {
    out.f64(t.coeff);
    out.i32_vec(t.support);
  }
}

qaoa::CostHamiltonian decode_cost(ByteReader& in) {
  const int n = in.i32();
  const real constant = in.f64();
  qaoa::CostHamiltonian c(n, constant);
  const std::uint32_t terms = in.u32();
  for (std::uint32_t i = 0; i < terms; ++i) {
    const real coeff = in.f64();
    c.add_term(in.i32_vec(), coeff);
  }
  return c;
}

void encode_graph(ByteWriter& out, const Graph& g) {
  out.i32(g.num_vertices());
  out.u32(static_cast<std::uint32_t>(g.edges().size()));
  for (const Edge& e : g.edges()) {
    out.i32(e.u);
    out.i32(e.v);
  }
}

Graph decode_graph(ByteReader& in) {
  const int n = in.i32();
  MBQ_REQUIRE(n >= 0, "malformed spec frame: negative vertex count " << n);
  Graph g(n);
  const std::uint32_t edges = in.u32();
  for (std::uint32_t i = 0; i < edges; ++i) {
    const int u = in.i32();
    const int v = in.i32();
    g.add_edge(u, v);  // rejects out-of-range/self/duplicate edges
  }
  return g;
}

void encode_circuit(ByteWriter& out, const qaoa::ParamCircuit& pc) {
  out.i32(pc.num_qubits());
  out.u32(static_cast<std::uint32_t>(pc.gates().size()));
  for (const qaoa::ParamGate& g : pc.gates()) {
    out.u8(static_cast<std::uint8_t>(g.kind));
    out.i32_vec(g.qubits);
    out.u8(static_cast<std::uint8_t>(g.angle.source));
    out.i32(g.angle.index);
    out.f64(g.angle.scale);
    out.f64(g.angle.offset);
    out.i32(g.ctrl_value);
  }
}

qaoa::ParamCircuit decode_circuit(ByteReader& in) {
  const int n = in.i32();
  qaoa::ParamCircuit pc(n);
  const std::uint32_t gates = in.u32();
  for (std::uint32_t i = 0; i < gates; ++i) {
    qaoa::ParamGate g;
    const std::uint8_t kind = in.u8();
    MBQ_REQUIRE(kind <= static_cast<std::uint8_t>(GateKind::ControlledExpX),
                "malformed spec frame: gate kind " << int{kind});
    g.kind = static_cast<GateKind>(kind);
    g.qubits = in.i32_vec();
    const std::uint8_t source = in.u8();
    MBQ_REQUIRE(
        source <= static_cast<std::uint8_t>(qaoa::Param::Source::Beta),
        "malformed spec frame: param source " << int{source});
    g.angle.source = static_cast<qaoa::Param::Source>(source);
    g.angle.index = in.i32();
    g.angle.scale = in.f64();
    g.angle.offset = in.f64();
    g.ctrl_value = in.i32();
    pc.append(std::move(g));  // re-validates qubits, arity, index
  }
  return pc;
}

}  // namespace

void encode_spec(ByteWriter& out, const WorkloadSpec& spec) {
  MBQ_REQUIRE(spec.serializable(),
              "custom-circuit workloads hold an arbitrary CircuitBuilder "
              "closure that cannot be serialized");
  spec.validate();
  out.u8(static_cast<std::uint8_t>(spec.kind));
  out.u8(static_cast<std::uint8_t>(spec.linear_style));
  out.i32(spec.max_wire_degree);
  out.f64(spec.entangler_noise);
  out.u8(static_cast<std::uint8_t>(spec.precision));
  encode_cost(out, spec.cost);
  switch (spec.kind) {
    case AnsatzKind::QaoaDiagonal:
      break;
    case AnsatzKind::MisConstrained:
      encode_graph(out, *spec.graph);
      out.f64_vec(spec.vertex_weights);
      break;
    case AnsatzKind::ParamCircuit:
      encode_circuit(out, *spec.circuit);
      break;
    case AnsatzKind::CustomCircuit:
      break;  // unreachable: guarded above
  }
}

WorkloadSpec decode_spec(ByteReader& in) {
  WorkloadSpec spec;
  const std::uint8_t kind = in.u8();
  MBQ_REQUIRE(kind <= static_cast<std::uint8_t>(AnsatzKind::ParamCircuit) &&
                  kind != static_cast<std::uint8_t>(AnsatzKind::CustomCircuit),
              "malformed spec frame: ansatz kind " << int{kind}
                                                   << " (known kinds: "
                                                   << ansatz_kind_listing()
                                                   << ")");
  spec.kind = static_cast<AnsatzKind>(kind);
  const std::uint8_t style = in.u8();
  MBQ_REQUIRE(
      style <= static_cast<std::uint8_t>(core::LinearTermStyle::FusedIntoMixer),
      "malformed spec frame: linear-term style " << int{style});
  spec.linear_style = static_cast<core::LinearTermStyle>(style);
  spec.max_wire_degree = in.i32();
  spec.entangler_noise = in.f64();
  const std::uint8_t prec = in.u8();
  MBQ_REQUIRE(prec <= static_cast<std::uint8_t>(Precision::F32),
              "malformed spec frame: precision " << int{prec});
  spec.precision = static_cast<Precision>(prec);
  spec.cost = decode_cost(in);
  switch (spec.kind) {
    case AnsatzKind::QaoaDiagonal:
      break;
    case AnsatzKind::MisConstrained:
      spec.graph = std::make_shared<const Graph>(decode_graph(in));
      spec.vertex_weights = in.f64_vec();
      break;
    case AnsatzKind::ParamCircuit:
      spec.circuit =
          std::make_shared<const qaoa::ParamCircuit>(decode_circuit(in));
      break;
    case AnsatzKind::CustomCircuit:
      break;  // unreachable: guarded above
  }
  spec.validate();
  return spec;
}

std::uint64_t fnv1a64(std::span<const std::byte> bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t spec_fingerprint(const WorkloadSpec& spec) {
  return fnv1a64(serialize_spec(spec));
}

std::vector<std::byte> serialize_spec(const WorkloadSpec& spec) {
  ByteWriter out;
  encode_spec(out, spec);
  return out.take();
}

WorkloadSpec parse_spec(std::span<const std::byte> frame) {
  ByteReader in(frame);
  WorkloadSpec spec = decode_spec(in);
  MBQ_REQUIRE(in.done(), "malformed spec frame: " << in.remaining()
                                                  << " trailing bytes");
  return spec;
}

}  // namespace mbq::api
