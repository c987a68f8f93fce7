// mbq_worker — the shard worker process entrypoint.
//
// Spawned by the serving daemon's fleet (serve/daemon.h) — an mbqd, or
// the embedded daemon of a process-sharded Session — with one argument:
// the file descriptor of its AF_UNIX channel to the parent.  The loop is
// the whole program: read a request frame, execute it
// (shard::execute_request builds the backend from the registry and
// replays the slice's Rng streams), write the response frame, repeat
// until the parent closes the channel.
//
// Determinism: requests carry (seed, stream indices), never generator
// state, so results are independent of which worker runs a slice and of
// everything this process did before.  Each worker runs on one thread,
// for shots and simulator kernels alike: the fleet's process count is
// the parallelism axis, and results are bit-identical regardless.

#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "mbq/api/workload_spec.h"
#include "mbq/common/parallel.h"
#include "mbq/shard/protocol.h"
#include "mbq/shard/task.h"
#include "mbq/sim/collapse_threaded.h"
#include "mbq/speccomp/json.h"

namespace {

/// --decode-spec: read a JSON workload spec on stdin, rebuild it with
/// the same decode path a shard request would use, and answer with the
/// canonical JSON plus the wire fingerprint on stdout.  Exists so
/// non-C++ clients (and the CI smoke) can verify that the exact bytes a
/// worker process would execute match what they authored — the
/// worker-side half of the text codec.
int decode_spec_stdin() {
  try {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    const mbq::api::WorkloadSpec spec =
        mbq::speccomp::spec_from_json(buf.str());
    // Through the binary wire codec, exactly like a shard frame.
    const mbq::api::WorkloadSpec rebuilt =
        mbq::api::parse_spec(mbq::api::serialize_spec(spec));
    char fp[32];
    std::snprintf(fp, sizeof fp, "0x%016llx",
                  static_cast<unsigned long long>(
                      mbq::api::spec_fingerprint(rebuilt)));
    std::cout << "spec_fingerprint " << fp << "\n"
              << mbq::speccomp::spec_to_json(rebuilt);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mbq_worker: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbq;

  if (argc == 2 && std::string(argv[1]) == "--decode-spec")
    return decode_spec_stdin();

  if (argc != 2) {
    std::cerr << "usage: mbq_worker <channel-fd> | mbq_worker --decode-spec\n"
              << "(spawned by an mbq::serve::Daemon fleet; --decode-spec "
                 "reads a JSON spec on stdin and echoes the canonical form)\n";
    return 2;
  }
  const int fd = std::atoi(argv[1]);
  if (fd < 0 || std::to_string(fd) != argv[1]) {
    std::cerr << "mbq_worker: invalid channel fd '" << argv[1] << "'\n";
    return 2;
  }

  // One thread per worker: the fleet keys its size to the cores it may
  // use, and an OpenMP team in every child — over shots or inside the
  // chunked kernels — would oversubscribe the box.
  set_num_threads(1);
  thr::set_kernel_threads(1);

  try {
    while (true) {
      const auto frame = shard::read_frame(fd);
      if (!frame.has_value()) break;  // parent closed the channel: done
      shard::Response response;
      try {
        response = shard::execute_request(shard::decode_request(*frame));
      } catch (const std::exception& e) {
        // decode_request threw: answer with an error rather than dying,
        // so the parent gets the message instead of a broken channel.
        response.ok = false;
        response.error_message = e.what();
      }
      const auto out = shard::encode_response(response);
      shard::write_frame(fd, out);
    }
  } catch (const std::exception& e) {
    // Channel-level failure (parent died mid-frame, protocol corruption):
    // nothing sensible to answer, so report and exit nonzero.
    std::cerr << "mbq_worker: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
