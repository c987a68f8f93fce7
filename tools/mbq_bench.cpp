// mbq_bench — benchmark corpus generator, replay harness, and scorer.
//
// Generate a versioned on-disk corpus of MaxCut instances (SK /
// Erdos-Renyi / random-regular / hardware-grid families):
//
//   mbq_bench generate --out corpus/ [--families sk,er,regular,grid]
//             [--sizes 4,6,8] [--instances 2] [--seed S] [--shots 4096]
//             [--depth 1] [--name NAME]
//
// Replay a corpus through any execution configuration and emit a scored
// JSON report (Hellinger fidelity / TVD / chi-squared against the exact
// reference distribution, approximation ratio, outcome-stream digest):
//
//   mbq_bench run --corpus corpus/ --report report.json
//             [--backend router] [--processes N] [--endpoint EP]
//             [--worker PATH] [--seed S] [--noise X] [--shots N]
//             [--deterministic] [--quiet]
//
// --deterministic omits wall-clock and execution-context fields, so two
// such reports from equivalent runs (any process count, local or via a
// daemon at --endpoint) are byte-identical — `cmp` is the CI gate.
//
// Summarize a report per family:
//
//   mbq_bench score --report report.json
//
// See docs/benchmarks.md for the corpus format and scoring definitions.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "mbq/api/registry.h"
#include "mbq/api/workload_spec_json.h"
#include "mbq/bench/corpus.h"
#include "mbq/bench/generators.h"
#include "mbq/bench/harness.h"
#include "mbq/bench/report.h"
#include "mbq/qaoa/qaoa.h"

namespace {

int usage(int code) {
  std::cerr <<
      "usage: mbq_bench generate --out DIR [--families LIST] [--sizes LIST]\n"
      "                 [--instances N] [--seed S] [--shots N] [--depth P]\n"
      "                 [--name NAME] [--json]\n"
      "       mbq_bench run --corpus DIR --report FILE [--backend NAME]\n"
      "                 [--processes N] [--endpoint ENDPOINT] [--worker PATH]\n"
      "                 [--seed S] [--noise X] [--shots N] [--deterministic]\n"
      "                 [--quiet]\n"
      "       mbq_bench score --report FILE\n"
      "\n"
      "Families: sk, er, regular, grid (default: all four).  Sizes and\n"
      "families are comma-separated lists; sizes up to 28 qubits score\n"
      "against the exact dense reference (larger corpora generate fine,\n"
      "but `run` refuses to score them with a clear error).  ENDPOINT is\n"
      "unix:/path or tcp:host:port (a running mbqd).  --deterministic\n"
      "omits wall-clock and execution-context fields so equivalent runs\n"
      "produce byte-identical reports.  generate --json also writes each\n"
      "spec as instances/<id>.spec.json text (the JSON spec codec) next\n"
      "to the binary frame.\n";
  return code;
}

bool parse_int(const char* s, int& out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = static_cast<int>(v);
  return true;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (end == s || *end != '\0') return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

int cmd_generate(int argc, char** argv) {
  using namespace mbq;

  std::string out_dir;
  std::string name = "mbq-bench";
  std::string families_csv = "sk,er,regular,grid";
  std::string sizes_csv = "4,6,8";
  int instances = 2;
  std::uint64_t seed = 1;
  std::uint64_t shots = 4096;
  int depth = 1;
  bool json = false;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "mbq_bench: " << arg << " needs a value\n";
        std::exit(usage(2));
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_dir = value();
    } else if (arg == "--name") {
      name = value();
    } else if (arg == "--families") {
      families_csv = value();
    } else if (arg == "--sizes") {
      sizes_csv = value();
    } else if (arg == "--instances") {
      if (!parse_int(value(), instances)) return usage(2);
    } else if (arg == "--seed") {
      if (!parse_u64(value(), seed)) return usage(2);
    } else if (arg == "--shots") {
      if (!parse_u64(value(), shots)) return usage(2);
    } else if (arg == "--depth") {
      if (!parse_int(value(), depth)) return usage(2);
    } else if (arg == "--json") {
      json = true;
    } else {
      std::cerr << "mbq_bench: unknown argument '" << arg << "'\n";
      return usage(2);
    }
  }
  if (out_dir.empty()) {
    std::cerr << "mbq_bench: generate needs --out DIR\n";
    return usage(2);
  }
  if (instances < 1 || depth < 1 || shots < 1) {
    std::cerr << "mbq_bench: --instances/--depth/--shots must be >= 1\n";
    return usage(2);
  }

  std::vector<bench::Family> families;
  for (const std::string& f : split_list(families_csv))
    families.push_back(bench::family_from_name(f));
  std::vector<int> sizes;
  for (const std::string& s : split_list(sizes_csv)) {
    int n = 0;
    if (!parse_int(s.c_str(), n) || n < 2) {
      std::cerr << "mbq_bench: bad size '" << s << "'\n";
      return usage(2);
    }
    sizes.push_back(n);
  }
  if (families.empty() || sizes.empty()) {
    std::cerr << "mbq_bench: --families and --sizes must be non-empty\n";
    return usage(2);
  }

  const qaoa::Angles angles = qaoa::Angles::linear_ramp(depth);

  bench::Corpus corpus;
  corpus.name = name;
  for (const bench::Family family : families) {
    for (const int n : sizes) {
      for (int k = 0; k < instances; ++k) {
        bench::Instance inst;
        inst.family = family;
        inst.num_qubits = n;
        inst.index = static_cast<std::uint64_t>(k);
        inst.id = bench::family_name(family) + "-n" + std::to_string(n) +
                  "-i" + std::to_string(k);
        inst.angles = angles;
        inst.shots = shots;
        inst.spec = bench::make_instance(family, n, inst.index, seed);
        corpus.instances.push_back(std::move(inst));
      }
    }
  }
  bench::write_corpus(out_dir, corpus);
  if (json) {
    // Text twins of the binary frames, for non-C++ consumers; read back
    // with api::spec_from_json or `mbq_spec encode`.
    for (const bench::Instance& inst : corpus.instances) {
      const std::filesystem::path path = std::filesystem::path(out_dir) /
                                         "instances" /
                                         (inst.id + ".spec.json");
      std::ofstream os(path, std::ios::trunc);
      if (!os.good()) {
        std::cerr << "mbq_bench: cannot open '" << path.string() << "'\n";
        return 1;
      }
      os << api::spec_to_json(inst.spec);
    }
  }
  std::cout << "mbq_bench: wrote " << corpus.instances.size()
            << " instances to " << out_dir << " (seed " << seed << ")"
            << (json ? " with JSON spec twins" : "") << "\n";
  return 0;
}

int cmd_run(int argc, char** argv) {
  using namespace mbq;

  std::string corpus_dir;
  std::string report_path;
  bool quiet = false;
  bench::RunOptions opts;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "mbq_bench: " << arg << " needs a value\n";
        std::exit(usage(2));
      }
      return argv[++i];
    };
    if (arg == "--corpus") {
      corpus_dir = value();
    } else if (arg == "--report") {
      report_path = value();
    } else if (arg == "--backend") {
      opts.backend = value();
    } else if (arg == "--processes") {
      if (!parse_int(value(), opts.processes)) return usage(2);
    } else if (arg == "--endpoint") {
      opts.endpoint = value();
    } else if (arg == "--worker") {
      opts.worker_path = value();
    } else if (arg == "--seed") {
      if (!parse_u64(value(), opts.seed)) return usage(2);
    } else if (arg == "--noise") {
      double x = 0.0;
      if (!parse_double(value(), x)) return usage(2);
      opts.noise = x;
    } else if (arg == "--shots") {
      if (!parse_u64(value(), opts.shots_override)) return usage(2);
    } else if (arg == "--deterministic") {
      opts.timing = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "mbq_bench: unknown argument '" << arg << "'\n";
      return usage(2);
    }
  }
  if (corpus_dir.empty() || report_path.empty()) {
    std::cerr << "mbq_bench: run needs --corpus DIR and --report FILE\n";
    return usage(2);
  }
  // Reject unknown backends before touching the corpus: failing on argv
  // beats failing mid-replay after minutes of scored instances.
  if (!api::BackendRegistry::instance().contains(opts.backend)) {
    std::cerr << "mbq_bench: unknown backend '" << opts.backend
              << "' (known:";
    for (const std::string& name : api::BackendRegistry::instance().names())
      std::cerr << " " << name;
    std::cerr << ")\n";
    return usage(2);
  }

  if (!quiet) {
    opts.progress = [](const bench::InstanceResult& r) {
      std::fprintf(stderr, "mbq_bench: %-16s fidelity=%.4f ratio=%.4f",
                   r.id.c_str(), r.hellinger_fidelity, r.approximation_ratio);
      if (r.shots_per_sec >= 0.0)
        std::fprintf(stderr, " %.0f shots/s", r.shots_per_sec);
      std::fprintf(stderr, "\n");
    };
  }

  const bench::Corpus corpus = bench::read_corpus(corpus_dir);
  const bench::Report report = bench::run_corpus(corpus, opts);
  bench::write_report(report_path, report);
  std::cout << "mbq_bench: scored " << report.instances.size()
            << " instances -> " << report_path << "\n";
  return 0;
}

int cmd_score(int argc, char** argv) {
  using namespace mbq;

  std::string report_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--report") {
      if (i + 1 >= argc) {
        std::cerr << "mbq_bench: --report needs a value\n";
        return usage(2);
      }
      report_path = argv[++i];
    } else {
      std::cerr << "mbq_bench: unknown argument '" << arg << "'\n";
      return usage(2);
    }
  }
  if (report_path.empty()) {
    std::cerr << "mbq_bench: score needs --report FILE\n";
    return usage(2);
  }

  const bench::Report report = bench::read_report(report_path);
  std::printf("corpus:  %s\nbackend: %s  seed: %llu  noise: %g\n\n",
              report.corpus.c_str(), report.backend.c_str(),
              static_cast<unsigned long long>(report.seed), report.noise);
  std::printf("%-10s %9s %14s %13s %10s\n", "family", "instances",
              "mean_fidelity", "min_fidelity", "mean_ratio");
  for (const bench::FamilySummary& s : bench::summarize(report))
    std::printf("%-10s %9d %14.4f %13.4f %10.4f\n",
                bench::family_name(s.family).c_str(), s.instances,
                s.mean_fidelity, s.min_fidelity, s.mean_ratio);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(2);
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h") return usage(0);
  try {
    if (cmd == "generate") return cmd_generate(argc - 2, argv + 2);
    if (cmd == "run") return cmd_run(argc - 2, argv + 2);
    if (cmd == "score") return cmd_score(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::cerr << "mbq_bench: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "mbq_bench: unknown subcommand '" << cmd << "'\n";
  return usage(2);
}
