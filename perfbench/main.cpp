// perfbench: the end-to-end switch benchmark binary (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --result <file> [--trace-file <file>] [--git-sha <sha>]
//             [--fault <wrong_port|withhold|refuse_mod|late_gen>]
//
// Prints a human-readable report and writes the result document (every
// metric it measured, the outcome tally, the environment stamp) to --result.
// Exit codes: 0 ran (the document says whether outputs were correct),
// 2 bad arguments, 3 refused to measure a debug or sanitizer build, 1 error.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "layers.hpp"
#include "runtime.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --result <file> [--trace-file <file>] [--git-sha <sha>] "
               "[--fault <wrong_port|withhold|refuse_mod|late_gen>]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--git-sha") {
      o.git_sha = v;
    } else if (a == "--result") {
      o.result_path = v;
    } else if (a == "--trace-file") {
      o.trace_path = v;
    } else if (a == "--fault") {
      if (v == "wrong_port") o.fault = Fault::kWrongPort;
      else if (v == "withhold") o.fault = Fault::kWithhold;
      else if (v == "refuse_mod") o.fault = Fault::kRefuseMod;
      else if (v == "late_gen") o.fault = Fault::kLateGen;
      else usage(("unknown fault " + v).c_str());
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (std::find(workload_names().begin(), workload_names().end(), o.workload) ==
      workload_names().end())
    usage("unknown or missing --workload");
  if (o.result_path.empty()) usage("missing --result");
  if (!(o.seconds >= 1)) usage("--seconds must be at least 1");
  return o;
}

/// Why this build must not report timings, or nullopt.
std::optional<std::string> build_refusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") return "build type '" + type + "'";
#ifndef NDEBUG
  return std::string("assertions enabled (NDEBUG unset)");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return std::string("sanitizer build");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return std::string("sanitizer build");
#endif
#endif
  return std::nullopt;
}

double rss_bytes() {
  std::ifstream f("/proc/self/statm");
  uint64_t pages = 0, resident = 0;
  f >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE));
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  return "unknown";
}

perf::Json env_stamp(const Options& o, const Workload& wl, const Cpus& cpus) {
  using perf::Json;
  Json e = Json::object();
  e.set("nproc", Json::number(std::thread::hardware_concurrency()));
  e.set("cpu_model", Json::string(cpu_model()));
  e.set("tsc_ghz", Json::number(tsc_ghz()));
  e.set("compiler", Json::string(PERFBENCH_COMPILER));
  e.set("build_type", Json::string(PERFBENCH_BUILD_TYPE));
  e.set("git_sha", Json::string(o.git_sha));
  e.set("threads", Json::number(wl.churn ? 3 : 2));
  e.set("pinned", Json::boolean(cpus.pinned));
  e.set("offered_pps", Json::number(kOfferedPps));
  e.set("offered_mods_per_s", Json::number(wl.churn ? kChurnModsPerS : 0));
  e.set("frame_bytes", Json::number(64));
  e.set("workload", Json::string(wl.name));
  e.set("seed", Json::number(static_cast<double>(o.seed)));
  e.set("seconds", Json::number(o.seconds));
  e.set("trace", Json::boolean(o.trace));
  return e;
}

/// Moves one planted wrong expected port into the reference (self-test).
void plant_wrong_port(Workload& wl) {
  for (size_t i = 0; i < wl.steady.size(); ++i) {
    if (wl.steady[i].kind != flow::Verdict::Kind::kOutput) continue;
    const uint32_t wrong = wl.steady[i].port % wl.n_ports + 1;
    if (wrong == wl.steady[i].port) continue;
    wl.steady[i].port = wrong;
    wl.first[i].port = wrong;
    return;
  }
}

void account_churn(const Churn& c, Tally& tally) {
  tally.attempted += c.mods;
  tally.fail(c.refused, "churn: FLOW_MOD refused");
  tally.fail(c.unacked, "churn: FLOW_MOD never acknowledged by its barrier");
  if (!c.error.empty()) tally.fail(1, "churn: controller error: " + c.error);
}

int run(const Options& o) {
  const Cpus cpus = Cpus::choose();
  if (cpus.pinned) Cpus::pin_self(cpus.gen);

  Workload wl = make_workload(o.workload, o.seed);
  if (o.fault == Fault::kWrongPort) plant_wrong_port(wl);
  const perf::Json env = env_stamp(o, wl, cpus);
  std::printf("perfbench %s seed=%llu seconds=%.0f trace=%d frames=%zu ports=%u pinned=%d\n",
              wl.name.c_str(), static_cast<unsigned long long>(o.seed), o.seconds, o.trace,
              wl.traffic.size(), wl.n_ports, cpus.pinned);
  std::fflush(stdout);

  const double S = o.seconds;
  Tally tally;
  std::vector<std::string> invalid;
  Metrics m;
  Tracer gen_tr("gen"), worker_tr("worker"), ctl_tr("ctl"), layer_tr("layers");
  const int64_t t0 = now_ns();

  // Saturated phase.  Memory growth is read across construction, install and
  // warm-up of the first runtime, with the traffic already allocated.
  malloc_trim(0);
  const double rss0 = rss_bytes();
  std::vector<SetupTime> setups(1);
  auto rt = make_runtime(wl, true, &setups[0]);
  double untraced_mpps = 0;
  perf::LatencyHistogram mod_lat;
  {
    Saturated sat(*rt, wl, cpus);
    sat.warm(0.3);
    put(m, "mem_mb", (rss_bytes() - rss0) / 1e6, "MB");
    std::unique_ptr<Churn> churn = wl.churn ? std::make_unique<Churn>(*rt, cpus, o.fault) : nullptr;
    const double window = 0.25;
    Saturated::Result r;
    if (!o.trace) {
      r = sat.measure(static_cast<int>(0.6 * S / window), window, nullptr, churn.get(), nullptr,
                      tally);
    } else {
      const int w = std::max(3, static_cast<int>(0.15 * S / window));
      r = sat.measure(w, window, nullptr, churn.get(), nullptr, tally);
      const auto traced = sat.measure(w, window, &worker_tr, churn.get(), nullptr, tally);
      put(m, "core.busy_ratio", r.busy_ratio, "ratio");
      put(m, "bench.trace_overhead_ratio", traced.norm_mpps / r.norm_mpps, "ratio");
    }
    untraced_mpps = r.mpps;
    put(m, "throughput_mpps", r.mpps, "Mpps");
    put(m, "throughput_norm_mpps", r.norm_mpps, "Mpps");
    put(m, "bench.core_speed", r.core_speed, "M/s");
    if (churn) {
      churn->stop();
      account_churn(*churn, tally);
      mod_lat.merge(churn->mod_lat_ns);
    }
  }
  rt.reset();

  // Set-up time: the median of several constructions + installs (at least
  // three, more while they are short), the last one kept for the latency
  // phase.  Scaled to the reference core speed like the saturated rate.
  double setup_total = setups[0].raw_s;
  while (setups.size() + 1 < 3 || (setup_total < 1.0 && setups.size() + 1 < 15)) {
    make_runtime(wl, false, &setups.emplace_back());
    setup_total += setups.back().raw_s;
  }
  rt = make_runtime(wl, false, &setups.emplace_back());
  std::vector<double> raw, norm;
  for (const SetupTime& t : setups) {
    raw.push_back(t.raw_s);
    norm.push_back(t.norm_s);
  }
  put(m, "setup_s", median(norm), "s");
  put(m, "bench.setup_raw_s", median(raw), "s");

  // Latency phase (open loop at kOfferedPps).
  {
    std::unique_ptr<Churn> churn = wl.churn ? std::make_unique<Churn>(*rt, cpus, o.fault) : nullptr;
    const uint64_t republish0 = rt->backend().update_stats().fusion_republishes;
    const LatencyResult lr =
        run_latency(*rt, wl, cpus, 0.3, 0.3 * S, o.trace ? &gen_tr : nullptr,
                    churn.get(), o.trace ? &ctl_tr : nullptr, o.fault, tally);
    put(m, "lat_iqm_us", interquartile_mean(lr.lat_ns) / 1e3, "us");
    put(m, "lat_p50_us", percentile(lr.lat_ns, 50) / 1e3, "us");
    put(m, "lat_p99_us", percentile(lr.lat_ns, 99) / 1e3, "us");
    put(m, "lat_samples", static_cast<double>(lr.lat_ns.count()), "count");
    const double lag_p99_us = percentile(lr.lag_ns, 99) / 1e3;
    put(m, "bench.gen_lag_p99_us", lag_p99_us, "us");
    if (lag_p99_us > kMaxGenLagP99Us)
      invalid.push_back("generator fell behind: p99 lag " + std::to_string(lag_p99_us) + " us");
    put(m, "core.pkts_per_poll", lr.pkts_per_poll, "count");
    put(m, "state.ct_hit_ratio", lr.ct_hit_ratio, "ratio");
    uint64_t batches = 0, pending_max = 0;
    if (churn) {
      churn->stop();
      account_churn(*churn, tally);
      mod_lat.merge(churn->mod_lat_ns);
      batches = churn->batches;
      pending_max = churn->reclaim_pending_max;
    }
    put(m, "mod_p50_us", percentile(mod_lat, 50) / 1e3, "us");
    put(m, "mod_p99_us", percentile(mod_lat, 99) / 1e3, "us");
    put(m, "mod_samples", static_cast<double>(mod_lat.count()), "count");
    const double per_batch = batches > 0 ? 1.0 / (1e3 * static_cast<double>(batches)) : 0;
    const Tracer::Stat poll = ctl_tr.stat("usecases.agent_poll");
    const Tracer::Stat apply = ctl_tr.stat("core.apply_batch");
    put(m, "usecases.agent_decode_us", poll.self_ns * per_batch, "us");
    put(m, "core.apply_batch_us", apply.total_ns * per_batch, "us");
    put(m, "core.fusion_republishes",
        static_cast<double>(rt->backend().update_stats().fusion_republishes - republish0),
        "count");
    put(m, "core.reclaim_pending_max", static_cast<double>(pending_max), "count");
  }

  if (o.trace) {
    run_layers(wl, rt->backend(), layer_tr, m);
    put(m, "jit.fused", rt->backend().fused_active() ? 1 : 0, "count");
    put(m, "jit.fallbacks", static_cast<double>(rt->backend().stats().jit_fallbacks), "count");
    put(m, "core.unattributed_ns",
        1e3 / untraced_mpps - (m["netio.load_ns"].value + m["core.walk_ns"].value +
                               m["netio.ring_ns"].value + m["netio.mbuf_ns"].value),
        "ns");
  }
  rt.reset();
  put(m, "fail_ratio",
      static_cast<double>(tally.failed) / static_cast<double>(std::max<uint64_t>(1, tally.attempted)),
      "ratio");

  // Report.
  using perf::Json;
  const bool correct = tally.failed == 0 && invalid.empty();
  for (const auto& [name, v] : m)
    std::printf("  %-28s %16.6f %s\n", name.c_str(), v.value, v.unit.c_str());
  std::printf("  attempted=%llu failed=%llu correct=%s (%.1f s)\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), correct ? "true" : "false",
              static_cast<double>(now_ns() - t0) * 1e-9);
  for (const auto& [why, n] : tally.notes)
    std::printf("  FAILED %s: %llu\n", why.c_str(), static_cast<unsigned long long>(n));
  for (const std::string& n : invalid) std::printf("  INVALID %s\n", n.c_str());
  std::fflush(stdout);

  Json doc = Json::object();
  doc.set("correct", Json::boolean(correct));
  doc.set("attempted", Json::number(static_cast<double>(tally.attempted)));
  doc.set("failed", Json::number(static_cast<double>(tally.failed)));
  Json metrics = Json::object();
  for (const auto& [name, v] : m) {
    Json e = Json::object();
    e.set("value", Json::number(v.value));
    e.set("unit", Json::string(v.unit));
    metrics.set(name, std::move(e));
  }
  doc.set("metrics", std::move(metrics));
  Json notes = Json::array();
  for (const auto& [why, n] : tally.notes)
    notes.push_back(Json::string(why + ": " + std::to_string(n)));
  doc.set("failures", std::move(notes));
  Json inv = Json::array();
  for (const std::string& n : invalid) inv.push_back(Json::string(n));
  doc.set("invalid", std::move(inv));
  doc.set("env", env);
  std::ofstream(o.result_path) << doc.dump() << "\n";

  if (o.trace && !o.trace_path.empty()) {
    Json tr = Json::object();
    tr.set("env", env);
    Json threads = Json::array();
    for (const Tracer* t : {&gen_tr, &worker_tr, &ctl_tr, &layer_tr})
      threads.push_back(t->to_json(t0));
    tr.set("threads", std::move(threads));
    std::ofstream(o.trace_path) << tr.dump() << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse_args(argc, argv);
  if (const auto why = perfbench::build_refusal()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why->c_str());
    return 3;
  }
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
