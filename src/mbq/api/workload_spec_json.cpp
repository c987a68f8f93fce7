#include "mbq/api/workload_spec_json.h"

#include <cmath>
#include <sstream>

#include "mbq/common/error.h"
#include "mbq/common/json.h"

namespace mbq::api {

namespace {

using json::field;
using json::JsonArray;
using json::JsonObject;
using json::JsonValue;
using json::read_int;
using json::read_real;

/// Finite reals as exact 17-digit numbers (readable, bit-exact);
/// non-finite as IEEE-754 bit strings.  read_real accepts both plus
/// explicit "0x..." bit patterns, so emission stays canonical while
/// input stays lenient.
std::string json_real(real v) {
  if (std::isfinite(v)) return json::json_double(v);
  return json::json_real_bits(v);
}

const char* ansatz_json_name(api::AnsatzKind k) {
  switch (k) {
    case api::AnsatzKind::QaoaDiagonal: return "qaoa";
    case api::AnsatzKind::MisConstrained: return "mis";
    case api::AnsatzKind::ParamCircuit: return "param-circuit";
    case api::AnsatzKind::CustomCircuit: break;
  }
  throw Error("custom-circuit specs do not serialize");
}

api::AnsatzKind ansatz_from_json_name(const std::string& s) {
  if (s == "qaoa") return api::AnsatzKind::QaoaDiagonal;
  if (s == "mis") return api::AnsatzKind::MisConstrained;
  if (s == "param-circuit") return api::AnsatzKind::ParamCircuit;
  throw Error("JSON spec: unknown ansatz kind '" + s + "' (known kinds: " +
              api::ansatz_kind_listing() + "; custom does not serialize)");
}

const char* gate_json_name(GateKind k) {
  switch (k) {
    case GateKind::H: return "h";
    case GateKind::X: return "x";
    case GateKind::Y: return "y";
    case GateKind::Z: return "z";
    case GateKind::S: return "s";
    case GateKind::Sdg: return "sdg";
    case GateKind::T: return "t";
    case GateKind::Tdg: return "tdg";
    case GateKind::Rx: return "rx";
    case GateKind::Rz: return "rz";
    case GateKind::Cz: return "cz";
    case GateKind::Cx: return "cx";
    case GateKind::PhaseGadget: return "phase-gadget";
    case GateKind::ControlledExpX: return "controlled-exp-x";
  }
  throw Error("JSON spec: unencodable gate kind");
}

GateKind gate_from_json_name(const std::string& s) {
  static const std::pair<const char*, GateKind> kNames[] = {
      {"h", GateKind::H},     {"x", GateKind::X},
      {"y", GateKind::Y},     {"z", GateKind::Z},
      {"s", GateKind::S},     {"sdg", GateKind::Sdg},
      {"t", GateKind::T},     {"tdg", GateKind::Tdg},
      {"rx", GateKind::Rx},   {"rz", GateKind::Rz},
      {"cz", GateKind::Cz},   {"cx", GateKind::Cx},
      {"phase-gadget", GateKind::PhaseGadget},
      {"controlled-exp-x", GateKind::ControlledExpX},
  };
  for (const auto& [name, kind] : kNames)
    if (s == name) return kind;
  std::ostringstream os;
  os << "JSON spec: unknown gate kind '" << s << "' (known:";
  for (const auto& [name, kind] : kNames) os << " " << name;
  os << ")";
  throw Error(os.str());
}

const char* source_json_name(qaoa::Param::Source s) {
  switch (s) {
    case qaoa::Param::Source::Constant: return "constant";
    case qaoa::Param::Source::Gamma: return "gamma";
    case qaoa::Param::Source::Beta: return "beta";
  }
  throw Error("JSON spec: unencodable param source");
}

qaoa::Param::Source source_from_json_name(const std::string& s) {
  if (s == "constant") return qaoa::Param::Source::Constant;
  if (s == "gamma") return qaoa::Param::Source::Gamma;
  if (s == "beta") return qaoa::Param::Source::Beta;
  throw Error("JSON spec: unknown param source '" + s +
              "' (known: constant, gamma, beta)");
}

void emit_int_array(std::ostringstream& os, const std::vector<int>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i ? ", " : "") << v[i];
  os << "]";
}

void emit_real_array(std::ostringstream& os, const std::vector<real>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i ? ", " : "") << json_real(v[i]);
  os << "]";
}

std::vector<int> read_int_array(const JsonValue& v) {
  std::vector<int> out;
  for (const JsonValue& x : v.array()) out.push_back(read_int(x));
  return out;
}

std::vector<real> read_real_array(const JsonValue& v) {
  std::vector<real> out;
  for (const JsonValue& x : v.array()) out.push_back(read_real(x));
  return out;
}

}  // namespace

std::string spec_to_json(const api::WorkloadSpec& spec) {
  MBQ_REQUIRE(spec.serializable(),
              "custom-circuit workloads hold an arbitrary CircuitBuilder "
              "closure that cannot be serialized");
  spec.validate();
  std::ostringstream os;
  os << "{\n";
  os << "  \"mbq_spec\": 1,\n";
  os << "  \"kind\": \"" << ansatz_json_name(spec.kind) << "\",\n";
  os << "  \"linear_style\": \""
     << (spec.linear_style == core::LinearTermStyle::FusedIntoMixer
             ? "fused-into-mixer"
             : "gadget")
     << "\",\n";
  os << "  \"max_wire_degree\": " << spec.max_wire_degree << ",\n";
  os << "  \"entangler_noise\": " << json_real(spec.entangler_noise) << ",\n";
  os << "  \"precision\": \"" << precision_name(spec.precision) << "\",\n";
  os << "  \"cost\": {\n";
  os << "    \"num_qubits\": " << spec.cost.num_qubits() << ",\n";
  os << "    \"constant\": " << json_real(spec.cost.constant()) << ",\n";
  os << "    \"terms\": [";
  const auto& terms = spec.cost.terms();
  for (std::size_t i = 0; i < terms.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    os << "      {\"coeff\": " << json_real(terms[i].coeff)
       << ", \"support\": ";
    emit_int_array(os, terms[i].support);
    os << "}";
  }
  os << (terms.empty() ? "]\n" : "\n    ]\n");
  os << "  }";
  switch (spec.kind) {
    case api::AnsatzKind::QaoaDiagonal:
      break;
    case api::AnsatzKind::MisConstrained: {
      os << ",\n  \"graph\": {\n";
      os << "    \"num_vertices\": " << spec.graph->num_vertices() << ",\n";
      os << "    \"edges\": [";
      const auto& edges = spec.graph->edges();
      for (std::size_t i = 0; i < edges.size(); ++i)
        os << (i ? ", " : "") << "[" << edges[i].u << ", " << edges[i].v
           << "]";
      os << "]\n  },\n";
      os << "  \"vertex_weights\": ";
      emit_real_array(os, spec.vertex_weights);
      break;
    }
    case api::AnsatzKind::ParamCircuit: {
      os << ",\n  \"circuit\": {\n";
      os << "    \"num_qubits\": " << spec.circuit->num_qubits() << ",\n";
      os << "    \"gates\": [";
      const auto& gates = spec.circuit->gates();
      for (std::size_t i = 0; i < gates.size(); ++i) {
        const qaoa::ParamGate& g = gates[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "      {\"kind\": \"" << gate_json_name(g.kind)
           << "\", \"qubits\": ";
        emit_int_array(os, g.qubits);
        os << ", \"angle\": {\"source\": \""
           << source_json_name(g.angle.source)
           << "\", \"index\": " << g.angle.index
           << ", \"scale\": " << json_real(g.angle.scale)
           << ", \"offset\": " << json_real(g.angle.offset) << "}"
           << ", \"ctrl_value\": " << g.ctrl_value << "}";
      }
      os << (gates.empty() ? "]\n" : "\n    ]\n");
      os << "  }";
      break;
    }
    case api::AnsatzKind::CustomCircuit:
      break;  // unreachable: guarded above
  }
  os << "\n}\n";
  return os.str();
}

api::WorkloadSpec spec_from_json(const std::string& text) {
  const JsonValue root = json::parse_json(text);
  const JsonObject& obj = root.object();
  MBQ_REQUIRE(json::read_u64(field(obj, "mbq_spec")) == 1,
              "JSON spec: unsupported format version");

  api::WorkloadSpec spec;
  spec.kind = ansatz_from_json_name(field(obj, "kind").str());
  // The workload knobs are optional on input (defaults match a freshly
  // constructed WorkloadSpec); canonical output always emits them.
  if (const auto it = obj.find("linear_style"); it != obj.end()) {
    const std::string& style = it->second.str();
    if (style == "gadget") {
      spec.linear_style = core::LinearTermStyle::Gadget;
    } else if (style == "fused-into-mixer") {
      spec.linear_style = core::LinearTermStyle::FusedIntoMixer;
    } else {
      throw Error("JSON spec: unknown linear_style '" + style +
                  "' (known: gadget, fused-into-mixer)");
    }
  }
  if (const auto it = obj.find("max_wire_degree"); it != obj.end())
    spec.max_wire_degree = read_int(it->second);
  if (const auto it = obj.find("entangler_noise"); it != obj.end())
    spec.entangler_noise = read_real(it->second);
  if (const auto it = obj.find("precision"); it != obj.end())
    spec.precision = parse_precision(it->second.str().c_str());

  const JsonObject& cost = field(obj, "cost").object();
  qaoa::CostHamiltonian c(read_int(field(cost, "num_qubits")),
                          cost.count("constant")
                              ? read_real(field(cost, "constant"))
                              : 0.0);
  for (const JsonValue& item : field(cost, "terms").array()) {
    const JsonObject& t = item.object();
    c.add_term(read_int_array(field(t, "support")),
               read_real(field(t, "coeff")));
  }
  spec.cost = std::move(c);

  switch (spec.kind) {
    case api::AnsatzKind::QaoaDiagonal:
      break;
    case api::AnsatzKind::MisConstrained: {
      const JsonObject& gobj = field(obj, "graph").object();
      Graph g(read_int(field(gobj, "num_vertices")));
      for (const JsonValue& e : field(gobj, "edges").array()) {
        const JsonArray& pair = e.array();
        MBQ_REQUIRE(pair.size() == 2,
                    "JSON spec: an edge must be a [u, v] pair, got "
                        << pair.size() << " entries");
        g.add_edge(read_int(pair[0]), read_int(pair[1]));
      }
      spec.graph = std::make_shared<const Graph>(std::move(g));
      spec.vertex_weights = read_real_array(field(obj, "vertex_weights"));
      break;
    }
    case api::AnsatzKind::ParamCircuit: {
      const JsonObject& cobj = field(obj, "circuit").object();
      qaoa::ParamCircuit pc(read_int(field(cobj, "num_qubits")));
      for (const JsonValue& item : field(cobj, "gates").array()) {
        const JsonObject& gj = item.object();
        qaoa::ParamGate g;
        g.kind = gate_from_json_name(field(gj, "kind").str());
        g.qubits = read_int_array(field(gj, "qubits"));
        const JsonObject& aj = field(gj, "angle").object();
        g.angle.source = source_from_json_name(field(aj, "source").str());
        g.angle.index = read_int(field(aj, "index"));
        g.angle.scale = read_real(field(aj, "scale"));
        g.angle.offset = read_real(field(aj, "offset"));
        g.ctrl_value = read_int(field(gj, "ctrl_value"));
        pc.append(std::move(g));  // re-validates qubits, arity, index
      }
      spec.circuit =
          std::make_shared<const qaoa::ParamCircuit>(std::move(pc));
      break;
    }
    case api::AnsatzKind::CustomCircuit:
      break;  // unreachable: ansatz_from_json_name rejects "custom"
  }
  spec.validate();
  return spec;
}

}  // namespace mbq::api
