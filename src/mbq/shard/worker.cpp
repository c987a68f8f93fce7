#include "mbq/shard/worker.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "mbq/common/error.h"

namespace mbq::shard {

namespace {

std::string self_exe_dir() {
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return {};
  return self.parent_path().string();
}

bool is_executable(const std::string& path) {
  return !path.empty() && ::access(path.c_str(), X_OK) == 0;
}

}  // namespace

SpawnedWorker spawn_worker(const std::string& worker_path, int threads) {
  MBQ_REQUIRE(is_executable(worker_path),
              "shard worker executable not found or not executable: '"
                  << worker_path << "'");
  MBQ_REQUIRE(threads >= 1, "worker thread budget must be >= 1, got "
                                << threads);
  // Built before fork: the child must not allocate before exec.
  const std::string threads_arg = std::to_string(threads);
  int sv[2];
  MBQ_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
              "socketpair failed: " << std::strerror(errno));
  // Parent end must not leak into this child (it gets sv[1]) or any
  // later sibling.
  ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    MBQ_REQUIRE(false, "fork failed: " << std::strerror(errno));
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls between fork and exec.  Move
    // the channel to a fixed descriptor and exec the worker.
    ::dup2(sv[1], 3);  // dup2 clears CLOEXEC on the new descriptor
    if (sv[1] != 3) ::close(sv[1]);
    const char* argv[] = {worker_path.c_str(), "3", threads_arg.c_str(),
                          nullptr};
    ::execve(worker_path.c_str(), const_cast<char**>(argv), environ);
    _exit(127);  // exec failed; parent sees EOF and reports
  }
  ::close(sv[1]);
  return {pid, sv[0]};
}

int worker_timeout_ms() {
  if (const char* env = std::getenv("MBQ_WORKER_TIMEOUT_MS"))
    if (const int ms = std::atoi(env); ms >= 1) return ms;
  return 0;
}

std::string resolve_worker_path(const std::string& override_path) {
  if (!override_path.empty()) {
    if (is_executable(override_path)) return override_path;
    return {};
  }
  if (const char* env = std::getenv("MBQ_WORKER"); env != nullptr && *env) {
    if (is_executable(env)) return env;
    return {};
  }
  const std::string dir = self_exe_dir();
  if (!dir.empty()) {
    const std::string beside = dir + "/mbq_worker";
    if (is_executable(beside)) return beside;
    // Benches and examples land one level below the binary dir root
    // (build/bench, build/examples) where mbq_worker lives.
    const std::string parent = dir + "/../mbq_worker";
    if (is_executable(parent)) return parent;
  }
  return {};
}

}  // namespace mbq::shard
