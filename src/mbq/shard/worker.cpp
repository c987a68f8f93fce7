#include "mbq/shard/worker.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <vector>

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

SpawnedWorker spawn_worker(const std::string& worker_path) {
  MBQ_REQUIRE(is_executable(worker_path),
              "shard worker executable not found or not executable: '"
                  << worker_path << "'");
  int sv[2];
  MBQ_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
              "socketpair failed: " << std::strerror(errno));
  // Parent end must not leak into this child (it gets sv[1]) or any
  // later sibling.
  ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
  // A worker runs on one thread (tools/mbq_worker.cpp).  The OpenMP cap
  // also bounds the teams it does not size itself — the kernel dispatch
  // self-check opens one of 8 — so no worker ever holds a thread pool.
  // Built before fork: the child may only make async-signal-safe calls.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "OMP_THREAD_LIMIT=", 17) != 0) env.emplace_back(*e);
  env.emplace_back("OMP_THREAD_LIMIT=1");
  std::vector<char*> envp;
  for (std::string& var : env) envp.push_back(var.data());
  envp.push_back(nullptr);

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
    const char* argv[] = {worker_path.c_str(), "3", nullptr};
    ::execve(worker_path.c_str(), const_cast<char**>(argv), envp.data());
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
