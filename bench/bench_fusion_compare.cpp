// Fused-bursts vs bursts-of-one vs interpreter datapath comparison.  Not a
// paper figure: this bench guards the published plan every packet walks —
// pinned impls, goto targets resolved to stages at plan time, cross-table
// prefetch, and (jit/fusion.hpp) one machine function for the direct-code
// members.
//
// Three modes per point, emitted as separate points of BENCH_fusion.json and
// tagged with the `fused` counter (1 = the plan carries its machine program):
//   mode:2  burst harness + bursts of 32, fusion on   (the production shape)
//   mode:1  burst harness + process() per packet, fusion off: bursts of one
//           through the same plan walk with the per-table JIT templates, so
//           2 vs 1 measures a 32-packet chunk (plan load, parse and stat
//           flush amortized, one-ahead prefetch) plus the machine program
//   mode:0  burst harness + bursts of 32, interpreter (JIT off entirely)
//
// Three workloads:
//   BM_Fusion_L2 — Fig. 10 L2 (1K-entry MAC table): single table, so there
//     is no inter-table walk to fuse; mode 2 vs 1 is a non-regression check
//     (CI: ≥ 0.95×).
//   BM_Fusion_L3 — Fig. 11 L3 at 100K prefixes: single LPM table whose
//     lookups miss the private caches; the table body dominates, so this too
//     is a non-regression check (CI: ≥ 0.95×).
//   BM_Fusion_Gateway — Fig. 13 access gateway (10 CE × 20 users, 10K
//     prefixes): the paper's deepest goto chain, where per-chunk amortization
//     and cross-table prefetch carry the win (no table compiles to direct
//     code, so there is no machine program to fuse); CI asserts
//     pps(2) ≥ 1.15 × pps(1).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace esw;

void fusion_point(benchmark::State& state, const uc::UseCase& uc,
                  size_t n_flows, int mode) {
  const auto ts = net::TrafficSet::from_flows(uc.traffic(n_flows, 42));
  core::CompilerConfig cfg;
  cfg.enable_jit = mode >= 1;
  cfg.enable_fusion = mode == 2;
  for (auto _ : state) {
    core::Eswitch sw(cfg);
    sw.install(uc.pipeline);
    auto opts = bench::measure_opts(n_flows);
    opts.min_seconds = 0.15;
    const net::BurstFn singles = [&](net::Packet* const* pkts, uint32_t n) {
      for (uint32_t i = 0; i < n; ++i) {
        flow::Verdict v = sw.process(*pkts[i]);
        benchmark::DoNotOptimize(v);
      }
    };
    const net::BurstFn walk = mode == 1 ? singles : uc::burst_fn(sw);
    // Best-of-three passes: the CI ratio gates compare modes of the same
    // workload, and scheduler noise only ever subtracts, so the max
    // envelope is the steady-state number the contract is about.
    net::RunStats st = net::run_loop_burst(ts, walk, opts);
    for (int pass = 1; pass < 3; ++pass) {
      const net::RunStats again = net::run_loop_burst(ts, walk, opts);
      if (again.pps > st.pps) st = again;
    }
    state.counters["pps"] = st.pps;
    state.counters["cycles_per_pkt"] = st.cycles_per_pkt;
    state.counters["fused"] = sw.fused_active() ? 1 : 0;
  }
}

void BM_Fusion_L2(benchmark::State& state) {
  const auto uc = uc::make_l2(static_cast<size_t>(state.range(0)));
  fusion_point(state, uc, static_cast<size_t>(state.range(1)),
               static_cast<int>(state.range(2)));
}

void BM_Fusion_L3(benchmark::State& state) {
  const auto uc = uc::make_l3(static_cast<size_t>(state.range(0)));
  fusion_point(state, uc, static_cast<size_t>(state.range(1)),
               static_cast<int>(state.range(2)));
}

void BM_Fusion_Gateway(benchmark::State& state) {
  const auto uc =
      uc::make_gateway(10, 20, static_cast<size_t>(state.range(0)));
  fusion_point(state, uc, static_cast<size_t>(state.range(1)),
               static_cast<int>(state.range(2)));
}

void l2_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"size", "flows", "mode"});
  for (const int64_t mode : {2, 1, 0}) b->Args({1000, 100000, mode});
  b->Iterations(1);
}
BENCHMARK(BM_Fusion_L2)->Apply(l2_args);

void l3_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"prefixes", "flows", "mode"});
  for (const int64_t mode : {2, 1, 0}) b->Args({100000, 500000, mode});
  b->Iterations(1);
}
BENCHMARK(BM_Fusion_L3)->Apply(l3_args);

void gw_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"prefixes", "flows", "mode"});
  for (const int64_t mode : {2, 1, 0}) b->Args({10000, 100000, mode});
  b->Iterations(1);
}
BENCHMARK(BM_Fusion_Gateway)->Apply(gw_args);

}  // namespace
