#include "runtime.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench {
namespace {

using Kind = flow::Verdict::Kind;

/// Churned MACs live under their own OUI (0x04...), disjoint from make_l2's
/// 0x02... table population and traffic, so churn never changes a verdict.
uint64_t churn_mac(uint64_t i) { return 0x04'00'00'00'00'00ULL | (i & 0xFFFFFF); }

uint64_t absdiff(uint64_t a, uint64_t b) { return a > b ? a - b : b - a; }

std::vector<uint64_t> port_tx(Runtime& rt) {
  std::vector<uint64_t> tx(rt.ports().size() + 1, 0);
  for (uint32_t p = 1; p <= rt.ports().size(); ++p)
    tx[p] = rt.ports().port(p).counters().tx_packets;
  return tx;
}

/// Waits until `t` (steady ns): sleeps while far off, spins the last 100 µs
/// so schedules stay accurate to the clock, not to the timer slack.
void wait_until(int64_t t, const std::atomic<bool>* stop = nullptr) {
  for (;;) {
    const int64_t left = t - now_ns();
    if (left <= 0 || (stop != nullptr && stop->load(std::memory_order_acquire))) return;
    if (left > 200'000) std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
  }
}

void start_on(Runtime& rt, const Cpus& cpus) {
  if (cpus.pinned) Cpus::pin_self(cpus.worker);  // the worker inherits this mask
  rt.start();
  if (cpus.pinned) Cpus::pin_self(cpus.gen);
}

/// Expected per-port TX, drops and packet-ins of frames [g0, g0 + n), checked
/// against the runtime's counter deltas.
void check_conservation(const Workload& wl, uint64_t g0, uint64_t n,
                        const Runtime::Counters& c0, const Runtime::Counters& c1,
                        const std::vector<uint64_t>& tx0, const std::vector<uint64_t>& tx1,
                        const char* phase, Tally& tally) {
  std::vector<uint64_t> exp_tx(tx0.size(), 0);
  uint64_t exp_drop = 0, exp_pin = 0;
  for (uint64_t g = g0; g < g0 + n; ++g) {
    const Expect& e = wl.expect(g);
    if (e.kind == Kind::kOutput)
      ++exp_tx[e.port < exp_tx.size() ? e.port : 0];
    else if (e.kind == Kind::kDrop)
      ++exp_drop;
    else
      ++exp_pin;
  }
  const std::string p = phase;
  uint64_t port_diff = exp_tx[0];  // outputs to ports the switch does not have
  for (size_t i = 1; i < exp_tx.size(); ++i) port_diff += absdiff(tx1[i] - tx0[i], exp_tx[i]);
  tally.fail(port_diff, p + ": per-port TX differs from the reference split");
  tally.fail(absdiff(c1.drops - c0.drops, exp_drop), p + ": drops differ from the reference");
  tally.fail(absdiff(c1.packet_ins - c0.packet_ins, exp_pin),
             p + ": packet-ins differ from the reference");
  tally.fail((c1.tx_rejected - c0.tx_rejected) + (c1.bad_port - c0.bad_port),
             p + ": TX rejected or sent to a missing port");
  tally.fail(absdiff(c1.processed - c0.processed, n), p + ": processed differs from offered");
}

}  // namespace

// --- CPUs -------------------------------------------------------------------

Cpus Cpus::choose() {
  Cpus c;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return c;
  std::vector<int> cpus;
  for (int i = 0; i < CPU_SETSIZE; ++i)
    if (CPU_ISSET(i, &set)) cpus.push_back(i);
  if (cpus.size() < 3) return c;  // nothing to separate the threads onto
  c.pinned = true;
  c.worker = cpus[1];
  c.gen = cpus[2];
  c.ctl = cpus[cpus.size() > 3 ? 3 : 0];
  return c;
}

void Cpus::pin_self(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// --- helpers ------------------------------------------------------------------

// Six interleaved dependency chains; noinline keeps its code the same
// whatever the callers look like.
__attribute__((noinline)) double core_speed() {
  constexpr uint64_t kIters = uint64_t{1} << 24;
  uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
  const int64_t t0 = now_ns();
  for (uint64_t i = 0; i < kIters; ++i) {
    a = a * 3 + b;
    b ^= a >> 3;
    c = c * 5 + d;
    d ^= c >> 7;
    e += f ^ a;
    f = (f << 1) ^ e;
  }
  const int64_t t1 = now_ns();
  asm volatile("" : : "r"(a ^ b ^ c ^ d ^ e ^ f));
  return static_cast<double>(kIters) * 1e3 / static_cast<double>(t1 - t0);
}

double percentile(const perf::LatencyHistogram& h, double pct) {
  using H = perf::LatencyHistogram;
  const uint64_t n = h.count();
  if (n == 0) return 0;
  const double rank = pct / 100.0 * static_cast<double>(n);
  double cum = 0;
  for (size_t i = 0; i < H::kNumBuckets; ++i) {
    const uint64_t c = h.bucket_count(i);
    if (c == 0) continue;
    if (cum + static_cast<double>(c) >= rank) {
      const double mid = static_cast<double>(H::bucket_value(i));
      const double lo = i == 0 ? mid : (static_cast<double>(H::bucket_value(i - 1)) + mid) / 2;
      const double hi = i + 1 >= H::kOverflowBucket
                            ? mid
                            : (mid + static_cast<double>(H::bucket_value(i + 1))) / 2;
      const double v = lo + (hi - lo) * (rank - cum) / static_cast<double>(c);
      return std::clamp(v, static_cast<double>(h.min()), static_cast<double>(h.max()));
    }
    cum += static_cast<double>(c);
  }
  return static_cast<double>(h.max());
}

double interquartile_mean(const perf::LatencyHistogram& h) {
  using H = perf::LatencyHistogram;
  const double n = static_cast<double>(h.count());
  if (n == 0) return 0;
  const double lo = 0.25 * n, hi = 0.75 * n;
  double cum = 0, sum = 0;
  for (size_t i = 0; i < H::kNumBuckets && cum < hi; ++i) {
    const double c = static_cast<double>(h.bucket_count(i));
    const double take = std::min(cum + c, hi) - std::max(cum, lo);
    if (take > 0) sum += take * static_cast<double>(H::bucket_value(i));
    cum += c;
  }
  return sum / (hi - lo);
}

std::unique_ptr<Runtime> make_runtime(const Workload& wl, bool sink_tx, SetupTime* t) {
  Runtime::Config rc;
  rc.n_workers = 1;
  rc.n_ports = wl.n_ports;
  rc.sink_tx = sink_tx;
  // Open loop: every ring can hold the whole pool, so a stalled generator
  // (TX side) or worker (RX side, the generator retries) shows as latency
  // and generator lag, never as loss.
  rc.port.ring_size = sink_tx ? 1024 : 16384;
  rc.pool_capacity = sink_tx ? 4096 : 16384;
  const double speed = core_speed();
  const int64_t t0 = now_ns();
  auto rt = std::make_unique<Runtime>(rc, wl.cfg);
  rt->backend().install(wl.pipeline);
  t->raw_s = static_cast<double>(now_ns() - t0) * 1e-9;
  t->norm_s = t->raw_s * speed / kRefCoreSpeed;
  return rt;
}

// --- l2_churn controller ----------------------------------------------------

Churn::Churn(Runtime& rt, const Cpus& cpus, Fault fault) : rt_(rt), cpus_(cpus), fault_(fault) {
  uc::OfAgent::Callbacks cbs = uc::make_dataplane_callbacks(rt.backend());
  ESW_CHECK_MSG(static_cast<bool>(cbs.on_flow_mod_batch), "backend lacks batched flow-mods");
  cbs.on_flow_mod_batch = [this, inner = cbs.on_flow_mod_batch](
                              const std::vector<flow::FlowMod>& fms) {
    Span s(tracer_, "core.apply_batch", 1);
    return inner(fms);
  };
  agent_ = std::make_unique<uc::OfAgent>(std::move(cbs));
  ctrl_ = std::make_unique<uc::OfController>(agent_->controller_fd());
  uc::run_handshake(*agent_, *ctrl_);
}

void Churn::start(Tracer* tr) {
  stop();
  tracer_ = tr;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] {
    try {
      run();
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
}

void Churn::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

void Churn::run() {
  if (cpus_.pinned) Cpus::pin_self(cpus_.ctl);
  const double period_ns = 1e9 * kChurnBatch / kChurnModsPerS;
  const int64_t t0 = now_ns();
  for (uint64_t k = 0;; ++k) {
    const int64_t due = t0 + static_cast<int64_t>(static_cast<double>(k) * period_ns);
    wait_until(due, &stop_);
    if (stop_.load(std::memory_order_acquire)) return;
    for (uint32_t j = 0; j < kChurnBatch / 2; ++j, ++seq_) {
      flow::FlowMod add;
      add.table_id = 0;
      add.priority = 10;
      add.match.set(flow::FieldId::kEthDst, churn_mac(seq_));
      add.actions = {flow::Action::output(1 + static_cast<uint32_t>(seq_ % 4))};
      // Self-test: a goto that does not lead forward, which the switch must
      // refuse with an OpenFlow error.
      if (fault_ == Fault::kRefuseMod && batches == 0 && j == 0) add.goto_table = 0;
      flow::FlowMod del = add;
      del.command = flow::FlowMod::Cmd::kDelete;
      ctrl_->send_flow_mod(std::move(add));
      ctrl_->send_flow_mod(std::move(del));
    }
    const uint32_t xid = ctrl_->send_barrier();
    bool acked = false;
    const int64_t deadline = now_ns() + 1'000'000'000;
    while (!acked && now_ns() < deadline) {
      {
        Span s(tracer_, "usecases.agent_poll", 0);
        agent_->poll();
      }
      ctrl_->poll();
      for (const uint32_t x : ctrl_->take_barrier_replies()) acked = acked || x == xid;
    }
    mod_lat_ns.record(static_cast<uint64_t>(std::max<int64_t>(0, now_ns() - due)));
    refused += ctrl_->take_errors().size();
    if (!acked) unacked += kChurnBatch;
    mods += kChurnBatch;
    ++batches;
    reclaim_pending_max = std::max(reclaim_pending_max, rt_.backend().reclaim_stats().pending);
  }
}

// --- saturated phase ----------------------------------------------------------

Saturated::Saturated(Runtime& rt, const Workload& wl, const Cpus& cpus)
    : rt_(rt), wl_(wl), cpus_(cpus) {
  rt_.set_source([this](uint32_t, net::Packet** bufs, uint32_t n) {
    if (speed_state_.load(std::memory_order_acquire) == kSpeedRequested) {
      speed_ = core_speed();
      speed_state_.store(kSpeedDone, std::memory_order_release);
    }
    Span s(tracer_, "netio.source", n);
    for (uint32_t i = 0; i < n; ++i) wl_.traffic.load_next(cursor_, *bufs[i]);
    ++source_calls_;
    return n;
  });
}

void Saturated::warm(double warm_s) {
  tracer_ = nullptr;
  start_on(rt_, cpus_);
  wait_until(now_ns() + static_cast<int64_t>(warm_s * 1e9));
  // At least one full pass, so stateful workloads reach their steady verdicts.
  const int64_t give_up = now_ns() + 10'000'000'000;
  while (rt_.counters().processed < wl_.traffic.size() && now_ns() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  rt_.stop();
}

Saturated::Result Saturated::measure(int windows, double window_s, Tracer* tr, Churn* churn,
                                     Tracer* ctl_tr, Tally& tally) {
  const Runtime::Counters c0 = rt_.counters();
  const std::vector<uint64_t> tx0 = port_tx(rt_);
  const uint64_t calls0 = source_calls_;
  tracer_ = tr;
  start_on(rt_, cpus_);
  if (churn != nullptr) churn->start(ctl_tr);
  std::vector<double> rates, norm, speeds;
  for (int w = 0; w < windows; ++w) {
    // The worker times core_speed() on its own CPU between two windows.
    speed_state_.store(kSpeedRequested, std::memory_order_release);
    const int64_t give_up = now_ns() + 1'000'000'000;
    while (speed_state_.load(std::memory_order_acquire) != kSpeedDone && now_ns() < give_up)
      std::this_thread::yield();
    if (speed_state_.exchange(kSpeedIdle, std::memory_order_acq_rel) != kSpeedDone)
      throw std::runtime_error("worker did not run the core-speed loop");
    speeds.push_back(speed_);
    const int64_t ta = now_ns();
    const uint64_t na = rt_.counters().processed;
    wait_until(ta + static_cast<int64_t>(window_s * 1e9));
    const int64_t tb = now_ns();
    const uint64_t nb = rt_.counters().processed;
    rates.push_back(static_cast<double>(nb - na) * 1e3 / static_cast<double>(tb - ta));
    norm.push_back(rates.back() * kRefCoreSpeed / speeds.back());
  }
  if (churn != nullptr) churn->stop();
  rt_.stop();
  tracer_ = nullptr;
  const Runtime::Counters c1 = rt_.counters();
  // Every injected frame is processed in the same poll (one worker, one RX
  // producer), so the g-th processed frame is traffic frame g mod size.
  tally.fail(absdiff(c1.source_packets, c1.processed), "saturated: injected != processed");
  const uint64_t n = c1.processed - c0.processed;
  tally.attempted += n;
  check_conservation(wl_, c0.processed, n, c0, c1, tx0, port_tx(rt_), "saturated", tally);
  Result r;
  r.mpps = median(rates);
  r.norm_mpps = median(norm);
  r.core_speed = median(speeds);
  r.busy_ratio = static_cast<double>(source_calls_ - calls0) /
                 static_cast<double>(std::max<uint64_t>(1, c1.polls - c0.polls));
  return r;
}

// --- latency phase ------------------------------------------------------------

LatencyResult run_latency(Runtime& rt, const Workload& wl, const Cpus& cpus, double warm_s,
                          double measure_s, Tracer* tr, Churn* churn, Tracer* ctl_tr,
                          Fault fault, Tally& tally) {
  LatencyResult res;
  const int64_t period = std::llround(1e9 / kOfferedPps);
  const size_t size = wl.traffic.size();
  const uint32_t n_ports = rt.ports().size();
  net::Packet frame;
  net::Packet* out[net::kBurstSize];
  uint64_t g = 0;          // global index of the next frame to inject
  uint64_t injected = 0;   // accepted by inject()
  uint64_t g0 = UINT64_MAX, withhold = UINT64_MAX;
  int64_t base = 0;        // due time of frame g0
  std::vector<uint8_t> seen;

  // Drains every TX ring; measured frames are checked by their stamped index.
  auto drain = [&] {
    for (uint32_t p = 1; p <= n_ports; ++p) {
      net::Port& port = rt.ports().port(p);
      uint32_t n;
      while ((n = port.drain_tx(out, net::kBurstSize)) > 0) {
        const int64_t t = now_ns();
        Span s(tr, "netio.drain", n);
        for (uint32_t i = 0; i < n; ++i) {
          net::Packet* pkt = out[i];
          uint32_t idx = 0, due32 = 0;
          std::memcpy(&idx, pkt->data() + pkt->len() - 8, 4);
          std::memcpy(&due32, pkt->data() + pkt->len() - 4, 4);
          if (idx >= g0 && idx != withhold) {
            const uint64_t k = idx - g0;
            const int64_t due = base + static_cast<int64_t>(k) * period;
            const Expect& e = wl.expect(idx);
            if (k >= seen.size() || static_cast<uint32_t>(due) != due32) {
              tally.fail(1, "latency: frame stamp corrupted");
            } else {
              if (e.kind != Kind::kOutput || e.port != p)
                tally.fail(1, "latency: frame left by the wrong port or verdict");
              if (seen[k]++ != 0) tally.fail(1, "latency: frame drained twice");
              res.lat_ns.record(static_cast<uint64_t>(std::max<int64_t>(0, t - due)));
            }
          }
        }
        rt.pool().free_bulk(out, n);
      }
    }
  };

  // Offers `count` frames at kOfferedPps from now, draining between sends.
  auto offer = [&](uint64_t count, bool measured) {
    const int64_t t_base = now_ns() + 10'000;
    if (measured) {
      base = t_base;
      g0 = g;
      seen.assign(count, 0);
      if (fault == Fault::kWithhold)
        for (uint64_t k = 1000; k < count && withhold == UINT64_MAX; ++k)
          if (wl.expect(g0 + k).kind == Kind::kOutput) withhold = g0 + k;
    }
    int64_t progress = now_ns();
    uint64_t lag_k = UINT64_MAX;  // frame whose send lag is recorded
    for (uint64_t k = 0; k < count;) {
      while (k < count) {
        const int64_t due = t_base + static_cast<int64_t>(k) * period;
        const int64_t t = now_ns();
        if (due > t) break;
        // Lag is taken at the first attempt: a retry under backpressure is
        // the switch's delay (it counts in latency), not the generator's.
        if (measured && lag_k != k) {
          res.lag_ns.record(static_cast<uint64_t>(t - due));
          lag_k = k;
        }
        {
          Span s(tr, "netio.inject", 1);
          wl.traffic.load(g % size, frame);
          const uint32_t idx = static_cast<uint32_t>(g), due32 = static_cast<uint32_t>(due);
          std::memcpy(frame.data() + frame.len() - 8, &idx, 4);
          std::memcpy(frame.data() + frame.len() - 4, &due32, 4);
          // A full RX ring or pool is backpressure from a stalled worker:
          // drain and offer the same frame again (it shows as lag).
          if (!rt.inject(frame.in_port(), frame.data(), frame.len())) break;
        }
        progress = t;
        ++injected;
        ++g;
        ++k;
        // Self-test: a generator that stalls 100 ms every 100K frames.
        if (fault == Fault::kLateGen && measured && k % 100000 == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      drain();
      if (now_ns() - progress > 1'000'000'000) {
        tally.fail(count - k, "latency: switch stopped accepting frames");
        return;
      }
    }
  };

  // Drains until the worker has processed everything offered (1 s cap).
  auto settle = [&] {
    const int64_t give_up = now_ns() + 1'000'000'000;
    while (rt.counters().processed < injected && now_ns() < give_up) drain();
    drain();
  };

  start_on(rt, cpus);
  const uint64_t warm = std::max<uint64_t>(static_cast<uint64_t>(warm_s * kOfferedPps),
                                           wl.stateful ? size : 0);
  offer(warm, false);
  settle();
  rt.stop();
  drain();
  if (g >= UINT32_MAX / 2) throw std::runtime_error("latency phase too long for the stamp");

  const Runtime::Counters c0 = rt.counters();
  const std::vector<uint64_t> tx0 = port_tx(rt);
  const state::Conntrack* ct = rt.backend().conntrack();
  const state::Conntrack::Stats ct0 = ct != nullptr ? ct->stats() : state::Conntrack::Stats{};
  const uint64_t injected0 = injected;
  start_on(rt, cpus);
  if (churn != nullptr) churn->start(ctl_tr);
  const uint64_t count = static_cast<uint64_t>(measure_s * kOfferedPps);
  offer(count, true);
  if (churn != nullptr) churn->stop();
  settle();
  rt.stop();
  drain();
  const Runtime::Counters c1 = rt.counters();

  tally.attempted += count;
  check_conservation(wl, g0, injected - injected0, c0, c1, tx0, port_tx(rt), "latency", tally);
  uint64_t lost = 0;
  for (uint64_t k = 0; k < seen.size(); ++k)
    if (seen[k] == 0 && wl.expect(g0 + k).kind == Kind::kOutput) ++lost;
  tally.fail(lost, "latency: frame lost (never drained)");
  res.pkts_per_poll = static_cast<double>(c1.processed - c0.processed) /
                      static_cast<double>(std::max<uint64_t>(1, c1.polls - c0.polls));
  if (ct != nullptr) {
    const state::Conntrack::Stats ct1 = ct->stats();
    res.ct_hit_ratio = static_cast<double>(ct1.hits - ct0.hits) /
                       static_cast<double>(std::max<uint64_t>(1, ct1.lookups - ct0.lookups));
  }
  return res;
}

}  // namespace perfbench
