// Batched FLOW_MOD churn curve (fig19-style): one shared Eswitch under
// core::SwitchRuntime with concurrent packet workers, while the control
// thread streams flow-mod *batches* through apply_batch_partial — the
// OfAgent ingestion path — at a target rate from 0 (baseline) to 100k
// mods/s.  The L2 table is on the compound-hash template, whose resizable
// cuckoo index takes the churn in place: every add/delete rides the
// single-slot path plus one fusion refresh and one epoch reclaim per batch,
// which is what makes 100k mods/s sustainable at all.
//
// Reported per point: aggregate `pps` and per-worker `pps_w<i>` (the CI
// gate checks the 100k point keeps >= 0.7x the unchurned baseline),
// `churn_target` vs achieved `churn_mods_per_s`, `batch_size`, a `cuckoo`
// marker (1 = table 0 really runs the in-place, cuckoo-backed compound
// hash), and the merged per-worker latency percentile block — p99/p99.9
// under sustained batched update load is the point of the curve.
//
// Knobs: ESW_CHURN_WARMUP_MS / MEASURE_MS / WORKERS / TABLE / BATCH.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/switch_runtime.hpp"

namespace {

using namespace esw;
using Clock = std::chrono::steady_clock;

double env_double(const char* name, double fallback) {
  const char* s = std::getenv(name);
  return s != nullptr && std::atof(s) > 0 ? std::atof(s) : fallback;
}

// Churned MACs live under their own OUI (0x04...), disjoint from make_l2's
// 0x02... table population — every mod is a genuine insert/erase, never a
// replace of a key the traffic depends on.
uint64_t churn_mac(uint64_t i) { return 0x04'00'00'00'00'00ULL | (i & 0xFFFFFF); }

struct ChurnPoint {
  std::vector<double> worker_pps;
  double aggregate_pps = 0;
  double mods_per_s = 0;
  uint64_t refused = 0;
  bool cuckoo = false;
  perf::LatencyHistogram latency;
};

ChurnPoint run_point(const uc::UseCase& uc, size_t table_size, int workers,
                     double target_mods_per_s, size_t batch_size) {
  const double warmup_ms = env_double("ESW_CHURN_WARMUP_MS", 100);
  const double measure_ms = env_double("ESW_CHURN_MEASURE_MS", 400);

  core::SwitchRuntime<core::Eswitch>::Config rcfg;
  rcfg.measure_latency = true;
  rcfg.n_workers = static_cast<uint32_t>(workers);
  rcfg.n_ports = std::max<uint32_t>(static_cast<uint32_t>(workers), 8);
  rcfg.pool_capacity = 4096 * static_cast<uint32_t>(workers);
  core::SwitchRuntime<core::Eswitch> rt(rcfg, core::CompilerConfig{});
  rt.backend().install(uc.pipeline);

  const size_t shard = std::max<size_t>(1, table_size / static_cast<size_t>(workers));
  struct alignas(64) Cursor {
    size_t v = 0;
  };
  std::vector<Cursor> cursors(static_cast<size_t>(workers));
  std::vector<net::TrafficSet> shards;
  shards.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w)
    shards.push_back(net::TrafficSet::from_flows(
        uc.traffic(shard, 42 + static_cast<uint64_t>(w))));
  rt.set_source([&](uint32_t w, net::Packet** bufs, uint32_t n) {
    size_t& cur = cursors[w].v;
    const net::TrafficSet& ts = shards[w];
    for (uint32_t i = 0; i < n; ++i) {
      ts.load_next(cur, *bufs[i]);
      bufs[i]->set_in_port(1 + w);
    }
    return n;
  });

  rt.start();
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(warmup_ms));
  rt.clear_latency();

  std::vector<uint64_t> start_processed(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w)
    start_processed[static_cast<size_t>(w)] =
        rt.worker_counters(static_cast<uint32_t>(w)).processed;
  const auto t0 = Clock::now();
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(measure_ms));

  uint64_t mods = 0, refused = 0;
  if (target_mods_per_s > 0) {
    // Batched controller session: each burst is one apply_batch_partial call
    // of add/delete pairs (table size stays steady), paced so the achieved
    // rate tracks the target instead of saturating the control core.
    std::vector<flow::FlowMod> batch;
    uint64_t seq = 0;
    while (Clock::now() < t_end) {
      batch.clear();
      for (size_t k = 0; k < batch_size; k += 2) {
        flow::FlowMod add;
        add.table_id = 0;
        add.priority = 10;
        add.match.set(flow::FieldId::kEthDst, churn_mac(seq % 4096));
        add.actions = {flow::Action::output(1 + static_cast<uint32_t>(seq % 4))};
        flow::FlowMod del = add;
        del.command = flow::FlowMod::Cmd::kDelete;
        batch.push_back(std::move(add));
        batch.push_back(std::move(del));
        ++seq;
      }
      const auto statuses = rt.backend().apply_batch_partial(batch);
      for (const core::ModStatus st : statuses)
        if (st != core::ModStatus::kApplied) ++refused;
      mods += batch.size();
      const auto next = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(mods) / target_mods_per_s));
      std::this_thread::sleep_until(next < t_end ? next : t_end);
    }
  } else {
    std::this_thread::sleep_until(t_end);
  }

  ChurnPoint pt;
  const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
  for (int w = 0; w < workers; ++w) {
    const uint64_t done = rt.worker_counters(static_cast<uint32_t>(w)).processed -
                          start_processed[static_cast<size_t>(w)];
    pt.worker_pps.push_back(static_cast<double>(done) / dt);
    pt.aggregate_pps += pt.worker_pps.back();
  }
  pt.mods_per_s = static_cast<double>(mods) / dt;
  pt.refused = refused;
  pt.cuckoo = rt.backend().table_template(0) == core::TableTemplate::kCompoundHash;
  pt.latency = rt.latency_histogram();
  rt.stop();
  return pt;
}

void BM_Churn_BatchedFlowMods(benchmark::State& state) {
  const double target = static_cast<double>(state.range(0));
  const int workers =
      static_cast<int>(env_double("ESW_CHURN_WORKERS", 2));
  const size_t table_size =
      static_cast<size_t>(env_double("ESW_CHURN_TABLE", 65536));
  const size_t batch_size = std::max<size_t>(
      2, static_cast<size_t>(env_double("ESW_CHURN_BATCH", 64)));
  const auto uc = uc::make_l2(table_size);

  for (auto _ : state) {
    const ChurnPoint pt = run_point(uc, table_size, workers, target, batch_size);
    state.counters["threads"] = workers;
    state.counters["pps"] = pt.aggregate_pps;
    for (int w = 0; w < workers; ++w)
      state.counters["pps_w" + std::to_string(w)] =
          pt.worker_pps[static_cast<size_t>(w)];
    state.counters["churn_target"] = target;
    state.counters["churn_mods_per_s"] = pt.mods_per_s;
    state.counters["batch_size"] = static_cast<double>(batch_size);
    state.counters["mods_refused"] = static_cast<double>(pt.refused);
    state.counters["cuckoo"] = pt.cuckoo ? 1 : 0;
    bench::set_latency_counters(state, pt.latency);
  }
}
BENCHMARK(BM_Churn_BatchedFlowMods)
    ->Arg(0)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->ArgName("mods_per_s")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

}  // namespace
