// mbqd — the persistent mbq serving daemon.
//
// Serve mode (the default) binds the requested endpoints, spawns the
// worker fleet and runs until SIGINT/SIGTERM:
//
//   mbqd --listen unix:/tmp/mbqd.sock --listen tcp:localhost:7711
//        [--workers 4]
//
// The workers split mbqd's thread budget (OMP_NUM_THREADS, default one
// per core) between them; the startup line reports the split.
//
// Stats mode connects to a RUNNING daemon as a client and prints its
// counters (one shot; wire it to watch(1) for a live view):
//
//   mbqd --stats --endpoint unix:/tmp/mbqd.sock
//
// Clients are api::Sessions with SessionOptions::daemon_endpoint (or
// MBQ_DAEMON_ENDPOINT) pointing at any of the listen endpoints; see
// docs/serving.md for the deployment story.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "mbq/serve/client.h"
#include "mbq/serve/daemon.h"

namespace {

volatile sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage(int code) {
  std::cerr <<
      "usage: mbqd [--listen ENDPOINT]... [--workers N] [--name NAME]\n"
      "            [--max-pending N] [--slices-per-request N]\n"
      "            [--worker-timeout-ms N] [--worker PATH]\n"
      "       mbqd --stats --endpoint ENDPOINT\n"
      "\n"
      "ENDPOINT is unix:/path/to.sock or tcp:host:port (tcp port 0 binds\n"
      "an ephemeral port, printed at startup).  Default listen endpoint:\n"
      "unix:/tmp/mbqd.sock.  --workers 0 reads MBQ_NUM_PROCESSES\n"
      "(default 2); --worker-timeout-ms -1 reads MBQ_WORKER_TIMEOUT_MS.\n";
  return code;
}

bool parse_int(const char* s, int& out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = static_cast<int>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbq;

  bool stats_mode = false;
  std::string stats_endpoint;
  serve::DaemonOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "mbqd: " << arg << " needs a value\n";
        std::exit(usage(2));
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--stats") {
      stats_mode = true;
    } else if (arg == "--endpoint") {
      stats_endpoint = value();
    } else if (arg == "--listen") {
      opts.endpoints.emplace_back(value());
    } else if (arg == "--workers") {
      if (!parse_int(value(), opts.workers)) return usage(2);
    } else if (arg == "--name") {
      opts.name = value();
    } else if (arg == "--max-pending") {
      if (!parse_int(value(), opts.max_pending_requests)) return usage(2);
    } else if (arg == "--slices-per-request") {
      if (!parse_int(value(), opts.max_slices_per_request)) return usage(2);
    } else if (arg == "--worker-timeout-ms") {
      if (!parse_int(value(), opts.worker_timeout_ms)) return usage(2);
    } else if (arg == "--worker") {
      opts.worker_path = value();
    } else {
      std::cerr << "mbqd: unknown argument '" << arg << "'\n";
      return usage(2);
    }
  }

  if (stats_mode) {
    if (stats_endpoint.empty()) {
      if (const char* env = std::getenv("MBQ_DAEMON_ENDPOINT"))
        stats_endpoint = env;
    }
    if (stats_endpoint.empty()) {
      std::cerr << "mbqd: --stats needs --endpoint (or "
                   "MBQ_DAEMON_ENDPOINT)\n";
      return usage(2);
    }
    try {
      serve::DaemonClient client(stats_endpoint, "mbqd-stats");
      std::cout << serve::format_stats(client.stats());
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "mbqd: " << e.what() << "\n";
      return 1;
    }
  }

  if (opts.endpoints.empty()) opts.endpoints.push_back("unix:/tmp/mbqd.sock");

  try {
    serve::Daemon daemon(std::move(opts));
    daemon.start();
    for (const serve::Endpoint& ep : daemon.endpoints())
      std::cout << "mbqd: listening on " << ep.to_string() << "\n";
    const std::vector<int>& threads = daemon.worker_threads();
    const auto [fewest, most] =
        std::minmax_element(threads.begin(), threads.end());
    std::cout << "mbqd: serving with " << daemon.workers() << " workers × "
              << *fewest;
    if (*most != *fewest) std::cout << "–" << *most;
    std::cout << (*most == 1 ? " thread\n" : " threads\n") << std::flush;

    struct sigaction sa {};
    sa.sa_handler = on_signal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    while (g_stop == 0 && daemon.running()) ::pause();

    std::cout << "mbqd: shutting down\n";
    daemon.stop();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mbqd: " << e.what() << "\n";
    return 1;
  }
}
