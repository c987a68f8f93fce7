#pragma once
// ShardPlan: how a block of independent work items splits into slices
// for worker processes (the serving daemon cuts every request with it).
//
// Every request — sample_batch() (point, shot) pairs, expectation_batch()
// angle points — is a loop over a contiguous global index space in which
// item i's randomness is a pure function of (seed, i) via Rng::stream
// (see shard/task.h for the exact stream assignment).  A ShardPlan
// therefore only has to hand each worker a contiguous [begin, end) slice
// of that space: the worker replays exactly the streams the serial loop
// would, and the client merges the slices back in index order.  Merged results are
// bit-identical to the in-process path by construction, whatever the
// worker count.

#include <cstdint>
#include <vector>

namespace mbq::shard {

struct ShardRange {
  std::uint64_t begin = 0;  // inclusive global index
  std::uint64_t end = 0;    // exclusive
  std::uint64_t size() const noexcept { return end - begin; }
  bool empty() const noexcept { return begin == end; }
  friend bool operator==(const ShardRange&, const ShardRange&) = default;
};

class ShardPlan {
 public:
  /// Split [0, total) into `num_workers` contiguous ranges in index
  /// order.  Sizes differ by at most one (the first total % num_workers
  /// workers get the extra item); with total < num_workers the trailing
  /// ranges are empty.  Requires num_workers >= 1.
  ShardPlan(std::uint64_t total, int num_workers);

  std::uint64_t total() const noexcept { return total_; }
  int num_workers() const noexcept {
    return static_cast<int>(ranges_.size());
  }
  const std::vector<ShardRange>& ranges() const noexcept { return ranges_; }
  /// Workers with non-empty ranges (they are always a prefix).
  int active_workers() const noexcept;

 private:
  std::uint64_t total_ = 0;
  std::vector<ShardRange> ranges_;
};

}  // namespace mbq::shard
