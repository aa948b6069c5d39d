// The runtime phases of one benchmark run: set-up, the closed-loop
// saturated phase, the open-loop latency phase and the l2_churn controller.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/switch_runtime.hpp"
#include "perf/latency.hpp"
#include "state/conntrack.hpp"
#include "trace.hpp"
#include "usecases/of_agent.hpp"

namespace perfbench {

using Runtime = core::SwitchRuntime<core::Eswitch>;

inline constexpr double kOfferedPps = 2.5e5;     // latency phase, every workload
inline constexpr double kChurnModsPerS = 20000;  // l2_churn controller
inline constexpr uint32_t kChurnBatch = 64;      // mods per BARRIER
/// Generator p99 lag above which a run is invalid: the generator did not
/// offer the load.  A single vCPU stall of tens of ms on a shared host moves
/// p99 by a few ms without making the measurement unsound.
inline constexpr double kMaxGenLagP99Us = 50000;
/// Reference speed of the core-speed loop (million iterations per second,
/// about what an idle vCPU of the 4-vCPU VM the benchmark was tuned on
/// runs); see Saturated.
inline constexpr double kRefCoreSpeed = 600;

/// CPUs the benchmark threads run on: pinned apart when at least three are
/// allowed.
struct Cpus {
  bool pinned = false;
  int worker = -1, gen = -1, ctl = -1;
  static Cpus choose();
  static void pin_self(int cpu);
};

/// Interpolated percentile of a histogram of ns samples: the bucket holding
/// the rank is treated as uniform between its neighbours' midpoints, so the
/// value keeps its digits instead of snapping to a bucket representative.
double percentile(const perf::LatencyHistogram& h, double pct);

/// Mean of the middle half of a histogram's samples (ranks p25..p75, each
/// bucket at its representative value).  Moves smoothly when the share of
/// samples in two latency modes shifts, where the median jumps between them.
double interquartile_mean(const perf::LatencyHistogram& h);

/// Million iterations per second of a fixed integer loop on the calling
/// thread's CPU (about 28 ms of work): the core speed the host grants now.
double core_speed();

/// Wall time of one construction + install, raw and scaled to the reference
/// core speed (raw × core_speed() measured just before / kRefCoreSpeed).
struct SetupTime {
  double raw_s = 0;
  double norm_s = 0;
};

/// Constructs a one-worker runtime and installs the workload.
std::unique_ptr<Runtime> make_runtime(const Workload& wl, bool sink_tx, SetupTime* t);

/// The l2_churn controller: add/delete FLOW_MOD pairs in kChurnBatch-mod
/// batches, each closed by a BARRIER, offered on a fixed schedule over the
/// OfAgent socketpair.  Runs on its own thread between start() and stop();
/// the runtime's workers must be running throughout (start/stop of the
/// runtime is control-plane work the controller thread must not race).
class Churn {
 public:
  Churn(Runtime& rt, const Cpus& cpus, Fault fault);
  ~Churn() { stop(); }
  Churn(const Churn&) = delete;
  Churn& operator=(const Churn&) = delete;

  /// Spans of the controller thread go to `tr` (may be null).
  void start(Tracer* tr);
  void stop();

  perf::LatencyHistogram mod_lat_ns;  // batch due -> BARRIER_REPLY
  uint64_t batches = 0, mods = 0, refused = 0, unacked = 0;
  uint64_t reclaim_pending_max = 0;
  std::string error;  // an exception that ended the controller thread

 private:
  void run();

  Runtime& rt_;
  Cpus cpus_;
  Fault fault_;
  Tracer* tracer_ = nullptr;  // read by the wrapped batch callback
  std::unique_ptr<uc::OfAgent> agent_;
  std::unique_ptr<uc::OfController> ctrl_;
  uint64_t seq_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Saturated (closed-loop) phase state.  The source refills only the buffers
/// the pool hands it, so it can never overrun the switch.
///
/// Before each window the worker runs a fixed integer loop on its own CPU
/// (core_speed in runtime.cpp).  On a shared host the speed a vCPU gets
/// drifts by tens of percent over minutes; the loop's rate drifts with it, so
/// the window rate scaled by kRefCoreSpeed / loop rate — the rate at the
/// reference core speed — repeats across runs where the raw rate does not.
class Saturated {
 public:
  Saturated(Runtime& rt, const Workload& wl, const Cpus& cpus);

  struct Result {
    double mpps = 0;        // median window rate
    double norm_mpps = 0;   // median window rate at kRefCoreSpeed
    double core_speed = 0;  // median core-speed loop rate (M iterations/s)
    double busy_ratio = 0;  // polls that found work / polls
  };
  /// Runs for `warm_s` and at least one full pass over the traffic.
  void warm(double warm_s);
  /// Measures `windows` windows of `window_s`, worker spans to `tr`, with
  /// the controller running (its spans to `ctl_tr`) when given.  Checks
  /// verdict and port conservation over the measured frames into `tally`.
  Result measure(int windows, double window_s, Tracer* tr, Churn* churn, Tracer* ctl_tr,
                 Tally& tally);

 private:
  Runtime& rt_;
  const Workload& wl_;
  Cpus cpus_;
  size_t cursor_ = 0;           // worker-only while running
  uint64_t source_calls_ = 0;   // worker-only while running
  Tracer* tracer_ = nullptr;    // set only while stopped
  // Core-speed handshake: the measuring thread requests, the worker's
  // source runs core_speed() and publishes speed_.
  static constexpr int kSpeedIdle = 0, kSpeedRequested = 1, kSpeedDone = 2;
  std::atomic<int> speed_state_{kSpeedIdle};
  double speed_ = 0;
};

/// Open-loop latency phase: the calling thread injects frames at
/// kOfferedPps, stamping each frame's index and due time into its last 8
/// bytes, and drains the TX rings; every drained frame is checked against
/// the reference by its index.
struct LatencyResult {
  perf::LatencyHistogram lat_ns;  // due -> drained
  perf::LatencyHistogram lag_ns;  // due -> injected
  double pkts_per_poll = 0;
  double ct_hit_ratio = 0;
};
LatencyResult run_latency(Runtime& rt, const Workload& wl, const Cpus& cpus, double warm_s,
                          double measure_s, Tracer* tr, Churn* churn, Tracer* ctl_tr,
                          Fault fault, Tally& tally);

}  // namespace perfbench
