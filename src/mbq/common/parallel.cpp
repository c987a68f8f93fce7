#include "mbq/common/parallel.h"

#include <atomic>

namespace mbq {

namespace {

#ifdef MBQ_HAS_OPENMP
/// The startup thread count, captured during static initialization —
/// i.e. before main() and therefore before any set_num_threads override
/// can run.  The previous implementation captured it lazily inside
/// set_num_threads, so when the FIRST call was already an override
/// (set_num_threads(2)), some OpenMP runtimes reported the overridden
/// max back and "restore default" then restored the override instead of
/// the build default.
const int kStartupThreads = omp_get_max_threads();

/// The budget, shared by every thread of the process.  (OpenMP's own
/// omp_set_num_threads sets only the calling thread's value, so a
/// std::thread or std::async task would not see it; every team the
/// helpers open passes its width explicitly instead.)
std::atomic<int> g_budget{kStartupThreads};
#endif

}  // namespace

int default_num_threads() noexcept {
#ifdef MBQ_HAS_OPENMP
  return kStartupThreads;
#else
  return 1;
#endif
}

int num_threads() noexcept {
#ifdef MBQ_HAS_OPENMP
  return g_budget.load();
#else
  return 1;
#endif
}

void set_num_threads(int n) noexcept {
#ifdef MBQ_HAS_OPENMP
  g_budget.store(n >= 1 ? n : default_num_threads());
#else
  (void)n;
#endif
}

}  // namespace mbq
