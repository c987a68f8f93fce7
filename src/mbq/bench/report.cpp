#include "mbq/bench/report.h"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "mbq/common/error.h"
#include "mbq/common/json.h"

namespace mbq::bench {

namespace {

// All reading/writing machinery lives in common/json.h, shared with the
// JSON spec codec (api/workload_spec_json.cpp).
using json::field;
using json::json_double;
using json::json_escape;
using json::json_hex64;
using json::JsonObject;
using json::JsonValue;
using json::parse_json;
using json::read_double;
using json::read_hex64;
using json::read_u64;

}  // namespace

std::string to_json(const Report& r) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"mbq_bench_report\": 1,\n";
  os << "  \"corpus\": \"" << json_escape(r.corpus) << "\",\n";
  os << "  \"backend\": \"" << json_escape(r.backend) << "\",\n";
  // Hex like the fingerprints: any 64-bit seed survives (JSON numbers
  // are exact only up to 2^53).
  os << "  \"seed\": " << json_hex64(r.seed) << ",\n";
  os << "  \"noise\": " << json_double(r.noise) << ",\n";
  os << "  \"timing\": " << (r.timing ? "true" : "false") << ",\n";
  if (r.timing) {
    os << "  \"processes\": " << r.processes << ",\n";
    os << "  \"endpoint\": \"" << json_escape(r.endpoint) << "\",\n";
  }
  os << "  \"instances\": [";
  for (std::size_t i = 0; i < r.instances.size(); ++i) {
    const InstanceResult& x = r.instances[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\n";
    os << "      \"id\": \"" << json_escape(x.id) << "\",\n";
    os << "      \"family\": \"" << family_name(x.family) << "\",\n";
    os << "      \"num_qubits\": " << x.num_qubits << ",\n";
    os << "      \"shots\": " << x.shots << ",\n";
    os << "      \"spec_fingerprint\": " << json_hex64(x.spec_fingerprint)
       << ",\n";
    os << "      \"outcomes_fnv\": " << json_hex64(x.outcomes_fnv) << ",\n";
    os << "      \"distinct_outcomes\": " << x.distinct_outcomes << ",\n";
    os << "      \"hellinger_distance\": " << json_double(x.hellinger_distance)
       << ",\n";
    os << "      \"hellinger_fidelity\": " << json_double(x.hellinger_fidelity)
       << ",\n";
    os << "      \"tvd\": " << json_double(x.tvd) << ",\n";
    os << "      \"chi_squared\": " << json_double(x.chi_squared) << ",\n";
    os << "      \"mean_cost\": " << json_double(x.mean_cost) << ",\n";
    os << "      \"best_cost\": " << json_double(x.best_cost) << ",\n";
    os << "      \"approximation_ratio\": "
       << json_double(x.approximation_ratio);
    if (r.timing) {
      os << ",\n";
      os << "      \"elapsed_ms\": " << json_double(x.elapsed_ms) << ",\n";
      os << "      \"shots_per_sec\": " << json_double(x.shots_per_sec)
         << "\n";
    } else {
      os << "\n";
    }
    os << "    }";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

Report report_from_json(const std::string& json) {
  const JsonValue root = parse_json(json);
  const JsonObject& obj = root.object();
  MBQ_REQUIRE(read_u64(field(obj, "mbq_bench_report")) == 1,
              "JSON report: unsupported report version");
  Report r;
  r.corpus = field(obj, "corpus").str();
  r.backend = field(obj, "backend").str();
  r.seed = read_hex64(field(obj, "seed"));
  r.noise = read_double(field(obj, "noise"));
  r.timing = field(obj, "timing").boolean();
  if (r.timing) {
    r.processes = static_cast<int>(read_u64(field(obj, "processes")));
    r.endpoint = field(obj, "endpoint").str();
  }
  for (const JsonValue& item : field(obj, "instances").array()) {
    const JsonObject& o = item.object();
    InstanceResult x;
    x.id = field(o, "id").str();
    x.family = family_from_name(field(o, "family").str());
    x.num_qubits = static_cast<int>(read_u64(field(o, "num_qubits")));
    x.shots = read_u64(field(o, "shots"));
    x.spec_fingerprint = read_hex64(field(o, "spec_fingerprint"));
    x.outcomes_fnv = read_hex64(field(o, "outcomes_fnv"));
    x.distinct_outcomes =
        static_cast<std::int64_t>(read_u64(field(o, "distinct_outcomes")));
    x.hellinger_distance = read_double(field(o, "hellinger_distance"));
    x.hellinger_fidelity = read_double(field(o, "hellinger_fidelity"));
    x.tvd = read_double(field(o, "tvd"));
    x.chi_squared = read_double(field(o, "chi_squared"));
    x.mean_cost = read_double(field(o, "mean_cost"));
    x.best_cost = read_double(field(o, "best_cost"));
    x.approximation_ratio = read_double(field(o, "approximation_ratio"));
    if (r.timing) {
      x.elapsed_ms = read_double(field(o, "elapsed_ms"));
      x.shots_per_sec = read_double(field(o, "shots_per_sec"));
    }
    r.instances.push_back(std::move(x));
  }
  return r;
}

void write_report(const std::string& path, const Report& r) {
  std::ofstream os(path, std::ios::trunc);
  MBQ_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  os << to_json(r);
  MBQ_REQUIRE(os.good(), "short write to '" << path << "'");
}

Report read_report(const std::string& path) {
  std::ifstream is(path);
  MBQ_REQUIRE(is.good(), "cannot open '" << path << "' for reading");
  std::ostringstream buf;
  buf << is.rdbuf();
  return report_from_json(buf.str());
}

std::vector<FamilySummary> summarize(const Report& r) {
  std::map<Family, FamilySummary> agg;
  for (const InstanceResult& x : r.instances) {
    FamilySummary& s = agg[x.family];
    if (s.instances == 0) {
      s.family = x.family;
      s.min_fidelity = x.hellinger_fidelity;
    }
    ++s.instances;
    s.mean_fidelity += x.hellinger_fidelity;
    s.min_fidelity = std::min(s.min_fidelity, x.hellinger_fidelity);
    s.mean_ratio += x.approximation_ratio;
  }
  std::vector<FamilySummary> out;
  for (auto& [family, s] : agg) {
    s.mean_fidelity /= s.instances;
    s.mean_ratio /= s.instances;
    out.push_back(s);
  }
  return out;
}

}  // namespace mbq::bench
