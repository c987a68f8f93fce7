#pragma once
// Global heap-allocation counter for the zero-steady-state-allocation
// tests.  alloc_counter.cpp replaces the global operator new/delete of
// the test binary it is linked into; the replacements live in their own
// translation unit so the compiler never inlines them next to the
// allocations they count (GCC 12 then flags every std::allocator path
// with -Wmismatched-new-delete).

#include <cstdint>

namespace mbq::test {

/// Calls to the global operator new (and new[]) so far.  Monotonic:
/// tests snapshot it around the region that must not allocate.
std::uint64_t allocation_count() noexcept;

}  // namespace mbq::test
