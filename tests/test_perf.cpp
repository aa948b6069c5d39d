#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/memtrace.hpp"
#include "core/eswitch.hpp"
#include "perf/cachesim.hpp"
#include "perf/costmodel.hpp"
#include "perf/replay.hpp"
#include "test_util.hpp"

namespace esw {
namespace {

using namespace esw::perf;

TEST(CacheSim, HitAfterFill) {
  CacheSim sim;
  EXPECT_EQ(sim.access(0x1000), 4);  // cold: memory
  EXPECT_EQ(sim.access(0x1000), 1);  // now L1
  EXPECT_EQ(sim.counters().mem_accesses, 1u);
  EXPECT_EQ(sim.counters().l1_hits, 1u);
}

TEST(CacheSim, LruEvictionWithinSet) {
  // Tiny L1: 2 sets x 2 ways.
  CacheHierarchyConfig cfg;
  cfg.l1 = {2 * 2 * 64, 2, 4};
  cfg.l2 = {4 * 4 * 64, 4, 12};
  cfg.l3 = {16 * 8 * 64, 8, 29};
  CacheSim sim(cfg);

  // Three lines mapping to set 0 (line % 2 == 0): A, B, C.
  sim.access(0);  // A mem
  sim.access(2);  // B mem
  sim.access(0);  // A L1 (refreshes LRU)
  sim.access(4);  // C: evicts B (LRU)
  EXPECT_EQ(sim.access(0), 1);  // A still L1
  EXPECT_EQ(sim.access(2), 2);  // B fell to L2
}

TEST(CacheSim, WorkingSetDrivesLevel) {
  // A working set larger than L1 but within L2 settles at L2 hit latency.
  CacheSim sim;  // Table 1 defaults: L1 = 512 lines
  const uint64_t kLines = 4096;  // 256 KB = L2-sized
  for (int pass = 0; pass < 4; ++pass)
    for (uint64_t i = 0; i < kLines; ++i) sim.access(i * 7919);
  sim.clear_counters();
  uint64_t l2_or_better = 0;
  for (uint64_t i = 0; i < kLines; ++i)
    if (sim.access(i * 7919) <= 2) ++l2_or_better;
  EXPECT_GT(l2_or_better, kLines * 7 / 10);
}

TEST(CostModel, GatewayReproducesPaperNumbers) {
  // §4.4: 166 + 3·Lx -> 178 / 202 / 253 cycles; 11.2 / 9.9 / 7.9 Mpps @ 2GHz.
  const CostModel m = CostModel::gateway_model();
  EXPECT_EQ(m.fixed_cycles(), 166u);
  EXPECT_EQ(m.variable_accesses(), 3u);
  EXPECT_EQ(m.cycles(4), 178u);
  EXPECT_EQ(m.cycles(12), 202u);
  EXPECT_EQ(m.cycles(29), 253u);
  EXPECT_NEAR(m.pps(2.0, 4) / 1e6, 11.2, 0.05);
  EXPECT_NEAR(m.pps(2.0, 12) / 1e6, 9.9, 0.05);
  EXPECT_NEAR(m.pps(2.0, 29) / 1e6, 7.9, 0.05);
}

TEST(CostModel, BoundsAreOrdered) {
  CostModel m;
  m.add_pkt_io();
  m.add_parser();
  m.add_hash_stage("t0");
  m.add_lpm_stage("rib");
  m.add_action_stage();
  EXPECT_LT(m.cycles(4), m.cycles(12));
  EXPECT_LT(m.cycles(12), m.cycles(29));
  EXPECT_GT(m.pps(2.0, 4), m.pps(2.0, 29));
  EXPECT_EQ(m.stages().size(), 6u);
}

TEST(CostModel, DirectCodeChargesNoDataAccesses) {
  CostModel m;
  m.add_direct_stage("acl", 4);
  EXPECT_EQ(m.variable_accesses(), 0u);
  EXPECT_GT(m.fixed_cycles(), 0u);
}

TEST(Replay, CountsLlcMisses) {
  std::vector<net::FlowSpec> flows(1);
  flows[0].pkt = test::udp_spec(1, 2, 3, 4);
  const auto traffic = net::TrafficSet::from_flows(flows);

  // A function that touches a huge strided region every packet: the cache
  // simulator must report sustained LLC misses.
  uint64_t i = 0;
  auto thrash = [&](net::Packet&, MemTrace* trace) {
    for (int k = 0; k < 8; ++k)
      trace->touch(reinterpret_cast<void*>(((i * 8 + k) % 3000000) * 6400), 8);
    ++i;
  };
  const auto bad = run_cache_replay(thrash, traffic, 2000, 100, 100);
  EXPECT_GT(bad.llc_misses_per_pkt, 4.0);

  // A function that touches one line: everything lands in L1.
  static uint64_t sink;
  auto tight = [&](net::Packet&, MemTrace* trace) { trace->touch(&sink, 8); };
  const auto good = run_cache_replay(tight, traffic, 2000, 100, 100);
  EXPECT_LT(good.llc_misses_per_pkt, 0.01);
  EXPECT_GT(good.l1_hit_fraction, 0.99);
  EXPECT_LT(good.est_cycles_per_pkt, bad.est_cycles_per_pkt);
}

TEST(MemTraceModel, TouchBlockChargesWholeLinesAtAnyOffset) {
  alignas(64) static uint8_t buf[512];
  for (size_t off = 0; off < 64; ++off) {
    MemTrace t;
    t.touch_block(buf + off, 40);
    t.touch_block(buf + 128 + off, 72);
    t.touch_block(buf + 256 + off, 128);
    EXPECT_EQ(t.lines().size(), 1u + 2u + 2u) << "offset " << off;
  }
}

// The traced working set of a lookup is a property of the table, not of where
// the allocator put it: the same direct-code table, built after different
// amounts of heap padding, must report the same line count.
TEST(MemTraceModel, DirectCodeLinesIndependentOfHeapPlacement) {
  flow::Pipeline pl;
  for (const char* rule :
       {"priority=40, ip_src=10.0.0.1, udp_dst=53, actions=output:2",
        "priority=30, ip_src=10.0.0.2, udp_dst=53, actions=output:3",
        "priority=20, ip_src=10.0.0.3, udp_src=7, udp_dst=80, actions=output:4",
        "priority=10, udp_dst=9, actions=output:5"})
    pl.table(0).add(flow::parse_rule(rule));
  core::CompilerConfig cfg;
  cfg.enable_fusion = false;
  // Every switch stays alive, so no build reuses a freed predecessor's blocks.
  std::vector<std::unique_ptr<core::Eswitch>> switches;
  std::vector<std::unique_ptr<uint8_t[]>> pads;
  std::vector<size_t> lines;
  for (size_t k = 0; k < 12; ++k) {
    pads.push_back(std::make_unique<uint8_t[]>(8 + 16 * k));
    switches.push_back(std::make_unique<core::Eswitch>(cfg));
    core::Eswitch& sw = *switches.back();
    sw.install(pl);
    ASSERT_EQ(sw.table_template(0), core::TableTemplate::kDirectCode);
    MemTrace mt;
    for (uint32_t i = 0; i < 12; ++i) {
      net::Packet p = test::make_packet(
          test::udp_spec(0x0A000001u + i % 4, 2, 7, static_cast<uint16_t>(i % 2 ? 9 : 80)), 1);
      sw.process(p, &mt);
    }
    lines.push_back(mt.lines().size());
  }
  for (size_t k = 1; k < lines.size(); ++k)
    EXPECT_EQ(lines[k], lines[0]) << "after " << k << " padding allocations";
}

}  // namespace
}  // namespace esw
