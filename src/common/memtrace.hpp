// Memory-access tracing hook for the cache-simulation experiments
// (Figs. 15–16): datapath structures optionally report the addresses they
// touch per lookup; the perf::CacheSim replays them through a modeled
// L1/L2/L3 hierarchy.  Passing nullptr disables tracing at a single
// well-predicted branch per access.
#pragma once

#include <cstdint>
#include <vector>

namespace esw {

class MemTrace {
 public:
  /// Records the cache line(s) covering [p, p+bytes).
  void touch(const void* p, size_t bytes = 8) {
    const uintptr_t first = reinterpret_cast<uintptr_t>(p) >> 6;
    const uintptr_t last = (reinterpret_cast<uintptr_t>(p) + bytes - 1) >> 6;
    for (uintptr_t line = first; line <= last; ++line) lines_.push_back(line);
  }

  /// Records the ceil(bytes/64) lines a line-aligned block of `bytes` covers,
  /// from p's line on.  For modeled footprints (not real data) whose real
  /// placement is not what the model prices: the count is the same wherever
  /// the allocator put `p`.
  void touch_block(const void* p, size_t bytes) {
    const uintptr_t first = reinterpret_cast<uintptr_t>(p) >> 6;
    for (uintptr_t k = 0; k < (bytes + 63) / 64; ++k) lines_.push_back(first + k);
  }

  const std::vector<uintptr_t>& lines() const { return lines_; }
  void clear() { lines_.clear(); }

 private:
  std::vector<uintptr_t> lines_;
};

}  // namespace esw
