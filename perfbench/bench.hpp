// Shared declarations of the end-to-end switch benchmark (see README.md).
//
// One run drives one core::SwitchRuntime<core::Eswitch> with one packet
// worker through a seeded workload: a closed-loop saturated phase, an
// open-loop latency phase at a fixed offered rate, and (on l2_churn) a
// controller thread streaming FLOW_MOD batches over the OfAgent channel.
// The traced run adds per-layer timings of the calls the benchmark makes
// into each src/ module.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/eswitch.hpp"
#include "flow/pipeline.hpp"
#include "netio/pktgen.hpp"

namespace perfbench {

using namespace esw;

/// Faults the self-tests plant; each must trip its own check.
enum class Fault { kNone, kWrongPort, kWithhold, kRefuseMod, kLateGen };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Fault fault = Fault::kNone;
  std::string git_sha = "unknown";
  std::string result_path;  // JSON result document
  std::string trace_path;   // span dump of the traced run
};

/// Expected outcome of one frame, from the reference interpreter.
struct Expect {
  flow::Verdict::Kind kind = flow::Verdict::Kind::kDrop;
  uint32_t port = 0;  // egress port for kOutput
  bool operator==(const Expect&) const = default;
};

/// Tables one frame visits on the reference walk (-1 terminated).
using Visits = std::array<int16_t, 4>;

struct Workload {
  std::string name;
  flow::Pipeline pipeline;
  core::CompilerConfig cfg;
  net::TrafficSet traffic;
  uint32_t n_ports = 1;
  bool stateful = false;  // verdicts depend on connection state (ct_fw)
  bool churn = false;     // a controller thread streams FLOW_MODs (l2_churn)
  // Reference outcome of frame i on the first pass over the traffic and on
  // every later pass (identical unless the workload is stateful).
  std::vector<Expect> first, steady;
  std::vector<Visits> visits;  // empty for stateful workloads

  /// Expected outcome of the g-th frame the switch receives (frames are
  /// replayed round-robin from index 0).
  const Expect& expect(uint64_t g) const {
    return g < first.size() ? first[g] : steady[g % steady.size()];
  }
};

/// Builds the named workload's pipeline, 64 B traffic and reference from
/// `seed`.  Throws std::runtime_error on an unknown name.
Workload make_workload(const std::string& name, uint64_t seed);
const std::vector<std::string>& workload_names();

/// Named results of one run: value + unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

inline void put(Metrics& m, const std::string& name, double v, const char* unit) {
  m[name] = {v, unit};
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/// Outcome accounting shared by every phase.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> notes;  // failures per failed check
  void fail(uint64_t n, const std::string& why) {
    if (n == 0) return;
    failed += n;
    notes[why] += n;
  }
};

}  // namespace perfbench
