// Span recording for the traced run: each benchmark thread owns one Tracer
// and wraps the calls it makes into a switch module in a Span.  Spans live in
// memory (the first kKeep per thread are stored whole for the trace file;
// every span feeds the per-name aggregates) and are written out at the end.
//
// A span's self time is its duration minus the time its direct child spans
// cover; per-layer metrics are self time per item (packet, lookup, batch).
// With a null Tracer a Span reads no clock and records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "perf/bench_json.hpp"

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr size_t kKeep = 16384;

  /// Per-name aggregate over every span recorded under that name.
  struct Stat {
    uint64_t calls = 0;
    uint64_t items = 0;
    double total_ns = 0;
    double self_ns = 0;
  };

  explicit Tracer(std::string thread) : thread_(std::move(thread)) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// `name` must outlive the tracer (string literals).
  void begin(const char* name);
  void end(uint64_t items);

  /// Aggregate for `name` (zeros when never recorded).
  Stat stat(const char* name) const;
  /// Self time per item in ns (0 when nothing was recorded).
  double self_ns_per_item(const char* name) const;

  /// {"thread", "dropped", "spans": [[name, start_ns, end_ns, parent]...],
  ///  "self": {name: {calls, items, total_ns, self_ns}}}; `t0` is subtracted
  /// from every timestamp.
  esw::perf::Json to_json(int64_t t0) const;

 private:
  struct Open {
    const char* name;
    int64_t start;
    double child_ns;
    int32_t rec;  // stored record index, -1 when past kKeep
  };
  struct Rec {
    const char* name;
    int64_t start;
    int64_t end;
    int32_t parent;
  };
  Stat& stat_of(const char* name);

  std::string thread_;
  std::vector<Open> open_;
  std::vector<Rec> recs_;
  uint64_t dropped_ = 0;
  std::vector<std::pair<const char*, Stat>> stats_;
};

/// RAII span; no-op when the tracer is null.
class Span {
 public:
  Span(Tracer* t, const char* name, uint64_t items = 1) : t_(t), items_(items) {
    if (t_ != nullptr) t_->begin(name);
  }
  ~Span() {
    if (t_ != nullptr) t_->end(items_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_items(uint64_t n) { items_ = n; }

 private:
  Tracer* t_;
  uint64_t items_;
};

}  // namespace perfbench
