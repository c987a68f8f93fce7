#pragma once
// Thin OpenMP wrappers, and the one thread budget they spend.
//
// The simulator kernels are expressed against these helpers so the library
// builds (and tests identically) with or without OpenMP.  Grain-size
// thresholds keep small problem instances on a single thread where the
// fork/join overhead would dominate.
//
// ONE BUDGET.  num_threads() — OMP_NUM_THREADS at startup, then whatever
// set_num_threads() last set, on any thread — is the only thread setting,
// and one value holds for the whole process.  Every helper below follows
// one rule for spending it: while a team is already active
// (omp_in_parallel()) its region runs on one thread, and no team is
// wider than num_threads().  So a call with two or more items (shots,
// batch points) runs the items in parallel and each item's chunked
// kernels on one thread, and a call with one item gives its kernels the
// whole budget.  No team of more than one thread ever nests inside
// another, whatever OMP_MAX_ACTIVE_LEVELS says.

#include <algorithm>
#include <cstdint>
#include <vector>

#ifdef MBQ_HAS_OPENMP
#include <omp.h>
#endif

#include "mbq/common/types.h"

namespace mbq {

/// The thread budget: the widest team any parallel helper opens.
int num_threads() noexcept;

/// The startup default thread count — what set_num_threads(0) restores.
/// Captured at static-initialization time (before main), so it reports
/// the build/environment default even when the first set_num_threads
/// call of the process is already an override.
int default_num_threads() noexcept;

/// Set the thread budget of the whole process for subsequent parallel
/// regions; n <= 0 restores default_num_threads().  No-op without
/// OpenMP.  Results are bit-identical at every budget, so this is purely
/// a wall-clock knob (and what the determinism tests sweep).
void set_num_threads(int n) noexcept;

/// True when compiled with OpenMP support.
constexpr bool has_openmp() noexcept {
#ifdef MBQ_HAS_OPENMP
  return true;
#else
  return false;
#endif
}

/// Minimum loop trip count before a kernel goes parallel; below this the
/// serial path is faster on every machine we care about.  Also the fixed
/// chunk size of parallel_sum.
inline constexpr std::int64_t kParallelGrain = 1 << 12;

namespace detail {

/// The widest team a helper may open now: the budget, or 1 inside an
/// active team, where the helper's region runs on the calling thread
/// alone (what OpenMP's default max-active-levels of 1 does, made
/// independent of OMP_MAX_ACTIVE_LEVELS).  The helpers still enter that
/// one-thread region rather than skip the pragma: skipping it changed
/// glibc's per-thread heap trimming enough to raise the mbqc-sample
/// benchmark's peak RSS by ~16% with the same live memory.
inline int team_width() noexcept {
#ifdef MBQ_HAS_OPENMP
  return omp_in_parallel() ? 1 : num_threads();
#else
  return 1;
#endif
}

}  // namespace detail

/// parallel_for(n, f): f(i) for i in [0, n), possibly in parallel.
template <typename F>
void parallel_for(std::int64_t n, F&& f) {
#ifdef MBQ_HAS_OPENMP
  if (n >= kParallelGrain) {
#pragma omp parallel for schedule(static) num_threads(detail::team_width())
    for (std::int64_t i = 0; i < n; ++i) f(i);
    return;
  }
#endif
  for (std::int64_t i = 0; i < n; ++i) f(i);
}

/// parallel_for with a caller-chosen grain.  Shot batches have trip
/// counts far below kParallelGrain but each iteration is an entire
/// pattern execution, so they parallelize profitably at grain 1; dynamic
/// scheduling absorbs the per-shot variance of adaptive runs.
template <typename F>
void parallel_for_grain(std::int64_t n, std::int64_t grain, F&& f) {
#ifdef MBQ_HAS_OPENMP
  if (n >= grain && n > 1) {
#pragma omp parallel for schedule(dynamic) num_threads(detail::team_width())
    for (std::int64_t i = 0; i < n; ++i) f(i);
    return;
  }
#else
  (void)grain;
#endif
  for (std::int64_t i = 0; i < n; ++i) f(i);
}

/// parallel_for with a caller-chosen thread count (capped by the budget)
/// and a static schedule, for loops whose every iteration is a fixed-size
/// chunk of work (the kernel chunk drivers in sim/collapse_threaded.h).
/// The trip count is the number of chunks — typically far below
/// kParallelGrain — so the decision to parallelize is the caller's, not
/// a grain heuristic's.  The WORK each f(i) performs is identical at
/// every team width, which is what keeps the chunked folds
/// thread-count-invariant.
template <typename F>
void parallel_for_threads(std::int64_t n, int threads, F&& f) {
#ifdef MBQ_HAS_OPENMP
  if (threads > 1 && n > 1) {
#pragma omp parallel for schedule(static) \
    num_threads(std::min(threads, detail::team_width()))
    for (std::int64_t i = 0; i < n; ++i) f(i);
    return;
  }
#else
  (void)threads;
#endif
  for (std::int64_t i = 0; i < n; ++i) f(i);
}

/// Sum over [0, n) of a real-valued f(i), bit-identical at every thread
/// count: [0, n) is cut into fixed kParallelGrain-sized chunks, each
/// chunk is summed serially from 0.0, and the chunk partials are added
/// in ascending chunk order.  The bits depend only on n (below
/// kParallelGrain entries this is the plain serial loop).
template <typename F>
real parallel_sum(std::int64_t n, F&& f) {
  const auto chunk_sum = [&](std::int64_t c) {
    const std::int64_t end = std::min(n, (c + 1) * kParallelGrain);
    real acc = 0.0;
    for (std::int64_t i = c * kParallelGrain; i < end; ++i) acc += f(i);
    return acc;
  };
  const std::int64_t chunks = (n + kParallelGrain - 1) / kParallelGrain;
  if (chunks <= 1) return chunk_sum(0);
  std::vector<real> partial(static_cast<std::size_t>(chunks));
  parallel_for_threads(chunks, num_threads(), [&](std::int64_t c) {
    partial[static_cast<std::size_t>(c)] = chunk_sum(c);
  });
  real acc = 0.0;
  for (const real p : partial) acc += p;
  return acc;
}

}  // namespace mbq
