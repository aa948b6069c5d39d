// The packet walk's plan (core::fuse_pipeline) and whole-pipeline JIT fusion
// (jit/fusion.hpp): every non-empty pipeline publishes a plan, and the plan
// walk — with or without the fused machine program, in irregular bursts or
// one packet at a time — must match the declarative pipeline (flow::Pipeline)
// packet for packet, and bursts must keep the same per-table and global
// stats as bursts of one — for every template shape, goto chains, decomposed
// DAGs, both miss policies, and under churn.
// The degradation story is covered too: an exec-map refusal during the fused
// compile publishes the plan without machine code, is accounted in the
// fusion ledger, and heals through the bounded-backoff retry; pathological
// goto graphs (cycles hand-wired below the control-plane validator) end in
// the plan walk's guard drop instead of hanging it.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "core/decompose.hpp"
#include "core/eswitch.hpp"
#include "flow/dsl.hpp"
#include "jit/exec_mem.hpp"
#include "netio/pktgen.hpp"
#include "test_util.hpp"
#include "usecases/usecases.hpp"

namespace {

using namespace esw;
using core::CompiledDatapath;
using core::CompilerConfig;
using core::Eswitch;
using core::FusedPipeline;
using core::TableTemplate;
using flow::FieldId;
using flow::FlowMod;
using flow::parse_rule;
using flow::Pipeline;
using flow::Verdict;

uint64_t packet_digest(const net::Packet& p) {
  return hash_bytes(p.data(), p.len(), uint64_t{p.len()} << 32 | p.in_port());
}

FlowMod add_mod(uint8_t table, const std::string& rule) {
  const flow::FlowEntry e = parse_rule(rule);
  FlowMod fm;
  fm.command = FlowMod::Cmd::kAdd;
  fm.table_id = table;
  fm.priority = e.priority;
  fm.match = e.match;
  fm.actions = e.actions;
  fm.goto_table = e.goto_table;
  return fm;
}

std::vector<net::FlowSpec> random_traffic(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<net::FlowSpec> flows;
  flows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    net::FlowSpec f;
    const uint64_t k = rng.below(100);
    if (k < 45) {
      f.pkt = test::udp_spec(static_cast<uint32_t>(rng.next()),
                             static_cast<uint32_t>(rng.next()),
                             static_cast<uint16_t>(rng.below(0x10000)),
                             static_cast<uint16_t>(rng.below(0x400)));
    } else if (k < 90) {
      f.pkt = test::tcp_spec(0x0A000000 | static_cast<uint32_t>(rng.below(256)),
                             0xC0000200 | static_cast<uint32_t>(rng.below(256)),
                             static_cast<uint16_t>(rng.below(0x10000)),
                             static_cast<uint16_t>(rng.below(128)));
    } else if (k < 95) {
      f.pkt.kind = proto::PacketKind::kArp;
    } else {
      f.pkt.kind = proto::PacketKind::kRawEth;
    }
    f.in_port = static_cast<uint32_t>(rng.below(4));
    flows.push_back(f);
  }
  return flows;
}

struct RunResult {
  std::vector<Verdict> verdicts;
  std::vector<uint64_t> digests;
};

/// Replays the sequence in deterministic irregular bursts (singletons,
/// partial bursts, > kBurstSize chunked calls) through process_burst.
RunResult run_bursts(Eswitch& sw, const net::TrafficSet& ts, size_t n) {
  RunResult r;
  Rng rng(0xF5D);
  std::vector<net::Packet> bufs(2 * net::kBurstSize);
  std::vector<net::Packet*> ptrs(bufs.size());
  std::vector<Verdict> verdicts(bufs.size());
  for (size_t b = 0; b < bufs.size(); ++b) ptrs[b] = &bufs[b];

  size_t i = 0;
  while (i < n) {
    const uint32_t want = static_cast<uint32_t>(rng.range(1, bufs.size()));
    const uint32_t burst = static_cast<uint32_t>(std::min<size_t>(want, n - i));
    for (uint32_t b = 0; b < burst; ++b) ts.load(i + b, bufs[b]);
    sw.process_burst(ptrs.data(), burst, verdicts.data());
    for (uint32_t b = 0; b < burst; ++b) {
      r.verdicts.push_back(verdicts[b]);
      r.digests.push_back(packet_digest(bufs[b]));
    }
    i += burst;
  }
  return r;
}

/// The same sequence one process() (a burst of one) per packet.
RunResult run_singles(Eswitch& sw, const net::TrafficSet& ts, size_t n) {
  RunResult r;
  net::Packet p;
  for (size_t i = 0; i < n; ++i) {
    ts.load(i, p);
    r.verdicts.push_back(sw.process(p));
    r.digests.push_back(packet_digest(p));
  }
  return r;
}

/// The independent reference: the declarative pipeline, one packet at a time.
RunResult run_reference(const Pipeline& pl, const net::TrafficSet& ts, size_t n) {
  RunResult r;
  net::Packet p;
  for (size_t i = 0; i < n; ++i) {
    ts.load(i, p);
    r.verdicts.push_back(pl.run(p));
    r.digests.push_back(packet_digest(p));
  }
  return r;
}

void expect_runs_equal(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (size_t i = 0; i < a.verdicts.size(); ++i) {
    ASSERT_EQ(a.verdicts[i], b.verdicts[i]) << "packet " << i;
    ASSERT_EQ(a.digests[i], b.digests[i]) << "packet " << i;
  }
}

void expect_stats_equal(const Eswitch& a, const Eswitch& b) {
  const auto sa = a.datapath().stats();
  const auto sb = b.datapath().stats();
  EXPECT_EQ(sa.packets, sb.packets);
  EXPECT_EQ(sa.outputs, sb.outputs);
  EXPECT_EQ(sa.drops, sb.drops);
  EXPECT_EQ(sa.to_controller, sb.to_controller);
  ASSERT_EQ(a.datapath().num_slots(), b.datapath().num_slots());
  for (int32_t s = 0; s < a.datapath().num_slots(); ++s) {
    const auto ta = a.datapath().table_stats(s);
    const auto tb = b.datapath().table_stats(s);
    EXPECT_EQ(ta.lookups, tb.lookups) << "slot " << s;
    EXPECT_EQ(ta.hits, tb.hits) << "slot " << s;
    EXPECT_EQ(ta.misses, tb.misses) << "slot " << s;
  }
}

/// Same pipeline into a fused switch and a fusion-disabled switch (plan walk
/// without machine code), both in irregular bursts, and a fused switch driven
/// by process(), same packet sequence: all three must match the interpreter's
/// verdicts and frame mutations packet for packet, and the bursts'
/// verdict-level and per-slot stats must equal those of the bursts of one.
void expect_fused_parity(const Pipeline& pl,
                         const std::vector<net::FlowSpec>& flows,
                         CompilerConfig cfg = {}, size_t n_packets = 3000) {
  CompilerConfig fused_cfg = cfg, plain_cfg = cfg;
  fused_cfg.enable_fusion = true;
  plain_cfg.enable_fusion = false;
  Eswitch fused_sw(fused_cfg), plain_sw(plain_cfg), singles_sw(fused_cfg);
  fused_sw.install(pl);
  plain_sw.install(pl);
  singles_sw.install(pl);
  ASSERT_TRUE(fused_sw.fused_active()) << "plan was not published";
  ASSERT_FALSE(plain_sw.fused_active());
  ASSERT_NE(plain_sw.datapath().fused(), nullptr) << "fusion off must still plan";
  EXPECT_EQ(plain_sw.datapath().fused()->program, nullptr);
  const auto ts = net::TrafficSet::from_flows(flows);

  const RunResult ref = run_reference(pl, ts, n_packets);
  expect_runs_equal(run_singles(singles_sw, ts, n_packets), ref);
  expect_runs_equal(run_bursts(fused_sw, ts, n_packets), ref);
  expect_runs_equal(run_bursts(plain_sw, ts, n_packets), ref);
  expect_stats_equal(fused_sw, singles_sw);
  expect_stats_equal(plain_sw, singles_sw);
}

/// Every goto a plan stage can take must land on a later stage.  Only
/// direct-code stages expose their results, so the caller's pipeline must
/// compile every stage to direct code.
void expect_forward_transitions(const FusedPipeline& fp) {
  for (size_t st = 0; st < fp.stages.size(); ++st) {
    const core::CompiledTable* impl = fp.stages[st].impl;
    ASSERT_EQ(impl->kind(), TableTemplate::kDirectCode) << "stage " << st;
    for (const jit::LoweredEntry& e :
         static_cast<const core::DirectCodeTable*>(impl)->lowered()) {
      int32_t action = -1, next = -1;
      jit::unpack_result(e.result, action, next);
      if (next < 0) continue;
      ASSERT_LT(static_cast<size_t>(next), fp.stage_of_slot.size());
      EXPECT_GT(fp.stage_of_slot[static_cast<size_t>(next)],
                static_cast<int32_t>(st))
          << "stage " << st << " goes back to slot " << next;
    }
  }
}

// --- fusability ------------------------------------------------------------

TEST(Fusion, ActiveForEveryTemplateShape) {
  struct Case {
    TableTemplate expect;
    Pipeline pl;
    CompilerConfig cfg;
  };
  std::vector<Case> cases;
  {
    Case c;
    c.expect = TableTemplate::kDirectCode;
    c.pl.table(0).add(parse_rule("priority=10,udp_dst=53,actions=output:1"));
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.expect = TableTemplate::kCompoundHash;
    c.pl = uc::make_l2(64).pipeline;
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.expect = TableTemplate::kLpm;
    c.pl = uc::make_l3(100).pipeline;
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.expect = TableTemplate::kRange;
    c.pl.table(0).add(parse_rule("priority=100,udp_dst=0x100/0xFF00,actions=output:1"));
    c.pl.table(0).add(parse_rule("priority=20,udp_dst=0x140/0xFFC0,actions=output:2"));
    c.pl.table(0).add(parse_rule("priority=90,udp_dst=0x200/0xFF00,actions=output:3"));
    c.cfg.direct_code_max_entries = 2;
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.expect = TableTemplate::kLinkedList;
    const flow::FlowTable acls = uc::make_snort_like_acls(24);
    for (const flow::FlowEntry& e : acls.entries()) c.pl.table(0).add(e);
    cases.push_back(std::move(c));
  }

  for (const Case& c : cases) {
    Eswitch sw(c.cfg);
    sw.install(c.pl);
    ASSERT_EQ(sw.table_template(c.pl.tables().front().id()), c.expect);
    EXPECT_TRUE(sw.fused_active())
        << "template " << static_cast<int>(c.expect) << " blocked fusion";
    const FusedPipeline* fp = sw.datapath().fused();
    ASSERT_NE(fp, nullptr);
    EXPECT_EQ(fp->stages.size(), 1u);
    // Only direct-code members get machine code; the rest is a pinned plan.
    if (c.expect == TableTemplate::kDirectCode && jit::ExecBuffer::supported()) {
      EXPECT_NE(fp->program, nullptr);
    }
  }
}

TEST(Fusion, PlanWalkWhenDisabledOrDecomposed) {
  {
    // Fusion off: a plan without a machine program, walked like any other.
    const auto uc = uc::make_l2(64);
    CompilerConfig cfg;
    cfg.enable_fusion = false;
    Eswitch sw(cfg);
    sw.install(uc.pipeline);
    EXPECT_FALSE(sw.fused_active());
    const FusedPipeline* fp = sw.datapath().fused();
    ASSERT_NE(fp, nullptr);
    EXPECT_EQ(fp->program, nullptr);
    EXPECT_EQ(fp->stages.size(), 1u);
    expect_fused_parity(uc.pipeline, uc.traffic(1000, 3));
  }
  {
    // Decomposed: the root and every sub-slot are ordinary stages.
    const auto uc = uc::make_load_balancer(20);
    CompilerConfig cfg;
    cfg.enable_decomposition = true;
    Eswitch sw(cfg);
    sw.install(uc.pipeline);
    ASSERT_TRUE(sw.is_decomposed(0));
    EXPECT_TRUE(sw.fused_active());
    const FusedPipeline* fp = sw.datapath().fused();
    ASSERT_NE(fp, nullptr);
    EXPECT_EQ(fp->stages.size(), sw.decomposed_table_count(0));
    EXPECT_EQ(fp->stages[0].slot, sw.root_slot(0));
    expect_fused_parity(uc.pipeline, uc.traffic(2000, 5), cfg);
  }
}

TEST(Fusion, DecomposedDagPlansInTopologicalOrder) {
  // A table whose decomposition shares one memoized residual between two
  // routers, the second router emitted after the residual: index order has
  // a backward edge, so the plan must lay stages out topologically.
  //   root (in_port) -> R1 (ip_src) -> X (udp_dst)
  //                  -> R2 (ip_src) -> X (memo hit), three more leaves
  Pipeline pl;
  flow::FlowTable& t = pl.table(0);
  for (const char* port : {"1", "2"}) {
    const std::string in = std::string("in_port=") + port;
    t.add(parse_rule("priority=10," + in + ",ip_src=1.0.0.1,udp_dst=50,actions=output:1"));
    t.add(parse_rule("priority=9," + in + ",ip_src=1.0.0.1,udp_dst=51,actions=output:2"));
    t.add(parse_rule("priority=8," + in + ",ip_src=1.0.0.1,udp_dst=52,actions=dec_ttl,output:3"));
  }
  t.add(parse_rule("priority=7,in_port=2,ip_src=1.0.0.2,udp_dst=53,actions=output:4"));
  t.add(parse_rule("priority=6,in_port=2,ip_src=1.0.0.3,udp_dst=54,actions=output:5"));
  // A second mask keeps the table off the hash template, on the
  // decomposition-eligible linked list.
  t.add(parse_rule("priority=5,in_port=2,ip_src=1.0.0.4,actions=output:6"));

  const core::DecomposedPipeline d = core::decompose(t);
  ASSERT_GE(d.tables.size(), 5u);
  bool backward = false;
  for (size_t i = 0; i < d.tables.size(); ++i)
    for (const auto& e : d.tables[i].entries)
      backward |= e.internal_next >= 0 && static_cast<size_t>(e.internal_next) < i;
  ASSERT_TRUE(backward) << "decomposition has no memoized backward edge";

  std::vector<net::FlowSpec> flows;
  Rng rng(0xDA6);
  for (int i = 0; i < 400; ++i) {
    net::FlowSpec f;
    f.pkt = test::udp_spec(0x01000001 + static_cast<uint32_t>(rng.below(5)), 7, 9,
                           static_cast<uint16_t>(49 + rng.below(7)));
    f.in_port = static_cast<uint32_t>(rng.below(4));
    flows.push_back(f);
  }
  for (const bool jit : {true, false}) {
    CompilerConfig cfg;
    cfg.enable_decomposition = true;
    cfg.enable_jit = jit;
    Eswitch sw(cfg);
    sw.install(pl);
    ASSERT_TRUE(sw.is_decomposed(0));
    const FusedPipeline* fp = sw.datapath().fused();
    ASSERT_NE(fp, nullptr);
    ASSERT_EQ(fp->stages.size(), d.tables.size());
    expect_forward_transitions(*fp);
    if (jit && jit::ExecBuffer::supported()) {
      EXPECT_NE(fp->program, nullptr);
    }
    // Verdicts and frames against the interpreter, and every sub-slot's
    // table_stats against bursts of one (expect_stats_equal covers every
    // slot the switches allocated).
    expect_fused_parity(pl, flows, cfg, 2000);
  }
}

// --- fused/staged parity ----------------------------------------------------

TEST(Fusion, ParityDirectCodeGotoChainWithMutationsAndControllerMiss) {
  // Three direct-code tables chained by gotos; the middle one's miss goes to
  // the controller and the chain mutates the frame twice (dec_ttl) — packet
  // bytes, action accumulation across stages and both miss policies in one
  // machine-fused graph.
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=30,eth_type=0x0800,actions=dec_ttl,goto:1"));
  pl.table(0).add(parse_rule("priority=10,eth_type=0x0806,actions=controller"));
  pl.table(1).add(parse_rule("priority=20,tcp_dst=80,actions=dec_ttl,goto:2"));
  pl.table(1).add(parse_rule("priority=15,udp_dst=53,actions=goto:2"));
  pl.table(1).set_miss_policy(flow::FlowTable::MissPolicy::kController);
  pl.table(2).add(parse_rule("priority=10,ip_dst=10.0.0.0/8,actions=output:3"));
  pl.table(2).add(parse_rule("priority=1,actions=output:9"));

  Eswitch probe;
  probe.install(pl);
  for (uint8_t t : {0, 1, 2})
    ASSERT_EQ(probe.table_template(t), TableTemplate::kDirectCode);
  if (jit::ExecBuffer::supported()) {
    ASSERT_TRUE(probe.fused_active());
    EXPECT_NE(probe.datapath().fused()->program, nullptr);
  }
  expect_fused_parity(pl, random_traffic(600, 0xFC1));
}

TEST(Fusion, ParityHashL2) {
  const auto uc = uc::make_l2(256);
  expect_fused_parity(uc.pipeline, uc.traffic(1000, 7));
}

TEST(Fusion, ParityLpmL3) {
  const auto uc = uc::make_l3(500);
  expect_fused_parity(uc.pipeline, uc.traffic(1500, 11));
}

TEST(Fusion, ParityRangeTemplate) {
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=100,udp_dst=0x100/0xFF00,actions=output:1"));
  pl.table(0).add(parse_rule("priority=20,udp_dst=0x140/0xFFC0,actions=output:2"));
  pl.table(0).add(parse_rule("priority=90,udp_dst=0x200/0xFF00,actions=output:3"));
  pl.table(0).add(parse_rule("priority=95,udp_dst=0x240/0xFFC0,actions=output:4"));
  pl.table(0).add(parse_rule("priority=1,actions=drop"));
  CompilerConfig cfg;
  cfg.direct_code_max_entries = 2;
  expect_fused_parity(pl, random_traffic(600, 0x4A), cfg);
}

TEST(Fusion, ParityLinkedListAcls) {
  Pipeline pl;
  const flow::FlowTable acls = uc::make_snort_like_acls(48);
  for (const flow::FlowEntry& e : acls.entries()) pl.table(0).add(e);
  expect_fused_parity(pl, random_traffic(800, 0x11));
}

TEST(Fusion, ParityGatewayMultiTable) {
  const auto uc = uc::make_gateway(4, 8, 200);
  expect_fused_parity(uc.pipeline, uc.traffic(1500, 31));
}

// --- churn: republish, fingerprint skip, program reuse ----------------------

TEST(Fusion, InPlaceUpdateKeepsPublishedPlan) {
  // Without registered workers an incremental add mutates the impl in place:
  // the (slot, impl, miss) fingerprint is unchanged, so refresh_fusion must
  // skip the republish and the plan pointer must not move.
  Pipeline pl;
  for (int i = 0; i < 20; ++i)
    pl.table(0).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                               ",actions=output:1"));
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kCompoundHash);
  ASSERT_TRUE(sw.fused_active());
  const FusedPipeline* before = sw.datapath().fused();
  const auto rebuilds = sw.update_stats().table_rebuilds;

  sw.apply(add_mod(0, "priority=5,udp_dst=1000,actions=output:7"));
  ASSERT_EQ(sw.update_stats().table_rebuilds, rebuilds);  // in place indeed
  EXPECT_EQ(sw.datapath().fused(), before) << "unchanged fingerprint republished";

  // The live plan serves the new rule through the pinned impl.
  net::Packet p = test::make_packet(test::udp_spec(1, 2, 9, 1000));
  net::Packet* pp = &p;
  Verdict v;
  sw.process_burst(&pp, 1, &v);
  EXPECT_EQ(v, Verdict::output(7));
}

/// Twenty rules over two mask sets (udp_dst alone, ip_src + udp_dst): no
/// shared mask and more than one field, so analysis lands on the linked list.
void add_linked_list_rules(flow::FlowTable& t) {
  for (int i = 0; i < 20; ++i)
    t.add(parse_rule(i % 2 == 0 ? "priority=5,udp_dst=" + std::to_string(i) +
                                      ",actions=output:1"
                                : "priority=6,ip_src=10.0.0." + std::to_string(i) +
                                      ",udp_dst=" + std::to_string(i) +
                                      ",actions=output:1"));
}

TEST(Fusion, RebuildSwapChurnReusesMachineProgram) {
  // Mixed pipeline: a direct-code stage chained into a linked-list stage.
  // With a worker registered, a linked-list add is a rebuild-and-swap — the
  // impl pointer changes, so the plan must republish (new fingerprint), but
  // the direct-code member set is untouched (same program_key), so the
  // previous machine program must be reused, not re-emitted.  A direct-code
  // mod then changes the member set and must produce a fresh program.
  if (!jit::ExecBuffer::supported()) GTEST_SKIP() << "no executable memory";
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=10,eth_type=0x0800,actions=goto:1"));
  add_linked_list_rules(pl.table(1));
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kDirectCode);
  ASSERT_EQ(sw.table_template(1), TableTemplate::kLinkedList);
  ASSERT_TRUE(sw.fused_active());

  Eswitch::Worker* w = sw.register_worker();
  ASSERT_NE(w, nullptr);

  const FusedPipeline* plan0 = sw.datapath().fused();
  ASSERT_NE(plan0, nullptr);
  ASSERT_NE(plan0->program, nullptr);
  const jit::FusedProgram* prog0 = plan0->program.get();

  sw.apply(add_mod(1, "priority=5,udp_dst=2000,actions=output:7"));
  const FusedPipeline* plan1 = sw.datapath().fused();
  ASSERT_NE(plan1, nullptr);
  EXPECT_NE(plan1, plan0) << "rebuild-and-swap churn did not republish";
  EXPECT_EQ(sw.table_template(1), TableTemplate::kLinkedList);
  EXPECT_EQ(plan1->program.get(), prog0) << "unchanged member set re-emitted";

  sw.apply(add_mod(0, "priority=9,eth_type=0x0806,actions=controller"));
  const FusedPipeline* plan2 = sw.datapath().fused();
  ASSERT_NE(plan2, nullptr);
  ASSERT_NE(plan2->program, nullptr);
  EXPECT_NE(plan2->program.get(), prog0) << "stale machine code kept after dc rebuild";

  sw.unregister_worker(w);
  sw.datapath().reclaim();
  EXPECT_EQ(sw.datapath().reclaim_stats().pending, 0u);
}

// --- degradation: exec-map refusal, bounded retry, recovery -----------------

/// Arms the ExecBuffer failure hook for one scope (the jit.exec_map site).
struct ExecFailGuard {
  ExecFailGuard() { jit::ExecBuffer::force_failure_for_testing(true); }
  ~ExecFailGuard() { jit::ExecBuffer::force_failure_for_testing(false); }
};

TEST(Fusion, ExecMapFailureFallsBackThenRecovers) {
  if (!jit::ExecBuffer::supported()) GTEST_SKIP() << "no executable memory";
  CompilerConfig cfg;
  cfg.jit_retry_base_updates = 2;  // short windows so the test sees recovery
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=10,udp_dst=53,actions=goto:1"));
  pl.table(0).add(parse_rule("priority=0,actions=goto:1"));  // catch-all
  pl.table(1).add(parse_rule("priority=10,udp_dst=53,actions=output:4"));
  Eswitch sw(cfg);
  sw.install(pl);
  ASSERT_TRUE(sw.fused_active());
  ASSERT_NE(sw.datapath().fused()->program, nullptr);
  Eswitch::Worker* w = sw.register_worker();
  ASSERT_NE(w, nullptr);
  const auto burst_one = [&](uint16_t udp_dst) {
    net::Packet p = test::make_packet(test::udp_spec(1, 2, 9, udp_dst));
    net::Packet* pp = &p;
    Verdict v;
    sw.process_burst(*w, &pp, 1, &v);
    return v;
  };

  {
    ExecFailGuard guard;
    // The rebuild degrades the table to the interpreter AND refuses the
    // fused re-compile: the plan is published without machine code.
    sw.apply(add_mod(1, "priority=9,udp_dst=99,actions=output:5"));
  }
  EXPECT_FALSE(sw.fused_active()) << "refused compile reported as fused";
  const FusedPipeline* window_plan = sw.datapath().fused();
  ASSERT_NE(window_plan, nullptr) << "refused compile left no plan";
  EXPECT_EQ(window_plan->program, nullptr);
  EXPECT_EQ(sw.degradation_stats().fusion_fallbacks, 1u);
  EXPECT_EQ(sw.degradation_stats().fusion_recoveries, 0u);
  EXPECT_EQ(burst_one(99), Verdict::output(5));

  // A rebuild inside the retry window retires the impl the published plan
  // pins: the plan must be replaced before reclaim() frees it, or the next
  // burst walks freed memory (the ASan leg's target).
  const core::CompiledTable* pinned = window_plan->stages[1].impl;
  sw.apply(add_mod(1, "priority=8,udp_dst=100,actions=output:6"));
  const FusedPipeline* replanned = sw.datapath().fused();
  ASSERT_NE(replanned, nullptr);
  EXPECT_NE(replanned->stages[1].impl, pinned);
  EXPECT_EQ(replanned->program, nullptr) << "machine code emitted inside the window";
  EXPECT_FALSE(sw.fused_active());
  EXPECT_EQ(burst_one(100), Verdict::output(6));  // ticks past the retirement
  const uint64_t reclaimed = sw.datapath().reclaim_stats().reclaimed;
  sw.datapath().reclaim();
  EXPECT_GT(sw.datapath().reclaim_stats().reclaimed, reclaimed);
  EXPECT_EQ(burst_one(99), Verdict::output(5));
  EXPECT_EQ(burst_one(100), Verdict::output(6));

  // The next update elapses the retry window; the re-fusion must land and
  // be accounted as a recovery.
  sw.apply(add_mod(1, "priority=7,udp_dst=101,actions=output:7"));
  EXPECT_TRUE(sw.fused_active()) << "retry window elapsed without re-fusing";
  EXPECT_NE(sw.datapath().fused()->program, nullptr);
  EXPECT_GE(sw.degradation_stats().fusion_retries, 1u);
  EXPECT_EQ(sw.degradation_stats().fusion_recoveries, 1u);
  EXPECT_EQ(burst_one(53), Verdict::output(4));
  EXPECT_EQ(burst_one(101), Verdict::output(7));

  sw.unregister_worker(w);
  sw.datapath().reclaim();
  EXPECT_EQ(sw.datapath().reclaim_stats().pending, 0u);
}

TEST(Fusion, InPlaceGrowthRefreshesPrefetchFlag) {
  // A hash table grows in place under a registered worker (same impl
  // pointer): the plan's want_prefetch must follow it across
  // kPrefetchMinBytes, so the flag is part of the plan fingerprint.
  Pipeline pl;
  for (int i = 0; i < 32; ++i)
    pl.table(0).add(parse_rule("priority=5,ip_dst=10.0.0." + std::to_string(i) +
                               ",actions=output:1"));
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kCompoundHash);
  Eswitch::Worker* w = sw.register_worker();
  ASSERT_NE(w, nullptr);
  const core::CompiledTable* impl = sw.datapath().impl(sw.root_slot(0));
  ASSERT_FALSE(sw.datapath().fused()->stages[0].want_prefetch);

  uint32_t next = 1000;
  while (sw.datapath().memory_bytes() < CompiledDatapath::kPrefetchMinBytes &&
         next < 400000) {
    std::vector<FlowMod> batch;
    for (int k = 0; k < 1024; ++k, ++next) {
      FlowMod fm;
      fm.command = FlowMod::Cmd::kAdd;
      fm.table_id = 0;
      fm.priority = 5;
      fm.match.set(FieldId::kIpDst, next);
      fm.actions.push_back(flow::Action::output(2));
      batch.push_back(fm);
    }
    sw.apply_batch(batch);
  }
  ASSERT_GE(sw.datapath().memory_bytes(), CompiledDatapath::kPrefetchMinBytes);
  ASSERT_EQ(sw.datapath().impl(sw.root_slot(0)), impl) << "table did not grow in place";
  EXPECT_TRUE(sw.datapath().fused()->stages[0].want_prefetch);

  sw.unregister_worker(w);
  sw.datapath().reclaim();
}

// --- pathological goto graphs ------------------------------------------------

TEST(Fusion, GotoCycleTerminatesInBoundedDrop) {
  // Two interpreter tables hand-wired into a cycle via raw internal_next slot
  // ids — below the control-plane validator (which enforces forward gotos).
  // With no plan published, process() and bursts drop without walking; with
  // a hand-built plan carrying the backward edge, the plan walk's
  // monotone-stage guard drops at the first backward transition.
  CompiledDatapath dp;
  const core::GotoMap gmap(256, -1);
  core::BuildCtx ctx{dp.actions(), gmap};
  const int32_t s0 = dp.add_slot();
  const int32_t s1 = dp.add_slot();
  core::BuildEntry e;  // match-all, no actions
  e.priority = 1;
  e.internal_next = s1;
  dp.set_impl(s0, core::DirectCodeTable::build({e}, ctx, false));
  e.internal_next = s0;
  dp.set_impl(s1, core::DirectCodeTable::build({e}, ctx, false));

  // No plan published: a burst of one and a burst both drop unwalked.
  net::Packet p = test::make_packet(test::udp_spec(1, 2, 3, 4));
  EXPECT_EQ(dp.process(p), Verdict::drop());
  net::Packet* pp = &p;
  Verdict v = Verdict::output(9);
  dp.process_burst(&pp, 1, &v);
  EXPECT_EQ(v, Verdict::drop());
  EXPECT_EQ(dp.stats().packets, 2u);
  EXPECT_EQ(dp.stats().drops, 2u);
  EXPECT_EQ(dp.table_stats(s0).lookups + dp.table_stats(s1).lookups, 0u);

  // A hand-built plan with the same backward edge: every walk drops at the
  // first backward transition, after one hit per stage.
  auto fp = std::make_unique<FusedPipeline>();
  fp->stage_of_slot.assign(static_cast<size_t>(dp.num_slots()), -1);
  fp->stages.push_back({s0, dp.impl(s0), flow::FlowTable::MissPolicy::kDrop,
                        false, nullptr});
  fp->stages.push_back({s1, dp.impl(s1), flow::FlowTable::MissPolicy::kDrop,
                        false, nullptr});
  fp->stage_of_slot[static_cast<size_t>(s0)] = 0;
  fp->stage_of_slot[static_cast<size_t>(s1)] = 1;
  dp.set_fused(std::move(fp));
  v = Verdict::output(9);
  dp.process_burst(&pp, 1, &v);
  EXPECT_EQ(v, Verdict::drop());
  EXPECT_EQ(dp.process(p), Verdict::drop());
  EXPECT_EQ(dp.stats().drops, 4u);
  for (const int32_t slot : {s0, s1}) {
    EXPECT_EQ(dp.table_stats(slot).lookups, 2u) << "slot " << slot;
    EXPECT_EQ(dp.table_stats(slot).hits, 2u) << "slot " << slot;
  }
}

// --- concurrent churn: epoch-safe republish ---------------------------------

TEST(Fusion, ConcurrentChurnRepublishesEpochSafely) {
  // One packet worker runs bursts while the control thread churns the MAC
  // table on the linked-list template (rebuild-and-swap per mod => a plan
  // republish per mod).  The run must stay crash-free with exact verdict
  // accounting, and every retired plan/impl must drain once the worker is
  // gone.
  const auto uc = uc::make_l2(2000);
  CompilerConfig cfg;
  cfg.force_template = TableTemplate::kLinkedList;
  Eswitch sw(cfg);
  sw.install(uc.pipeline);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kLinkedList);
  ASSERT_TRUE(sw.fused_active());
  const auto republishes = sw.update_stats().fusion_republishes;
  Eswitch::Worker* w = sw.register_worker();
  ASSERT_NE(w, nullptr);

  const auto ts = net::TrafficSet::from_flows(uc.traffic(512, 99));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> processed{0};
  std::thread worker([&] {
    std::vector<net::Packet> bufs(net::kBurstSize);
    std::vector<net::Packet*> ptrs(bufs.size());
    Verdict verdicts[net::kBurstSize];
    for (size_t b = 0; b < bufs.size(); ++b) ptrs[b] = &bufs[b];
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint32_t b = 0; b < net::kBurstSize; ++b)
        ts.load((i + b) % 512, bufs[b]);
      sw.process_burst(*w, ptrs.data(), net::kBurstSize, verdicts);
      processed.fetch_add(net::kBurstSize, std::memory_order_relaxed);
      i += net::kBurstSize;
    }
  });

  for (int k = 0; k < 300; ++k) {
    FlowMod fm;
    fm.command = FlowMod::Cmd::kAdd;
    fm.table_id = 0;
    fm.priority = 5;
    fm.match.set(FieldId::kEthDst, 0x020000000000ull | static_cast<uint64_t>(k),
                 0xFFFFFFFFFFFFull);
    fm.actions.push_back(flow::Action::output(2));
    sw.apply(fm);
  }
  stop.store(true);
  worker.join();
  sw.unregister_worker(w);

  EXPECT_EQ(sw.update_stats().fusion_republishes - republishes, 300u);
  EXPECT_TRUE(sw.fused_active()) << "churn ended with the fast path lost";
  const auto st = sw.datapath().stats();
  EXPECT_EQ(st.packets, processed.load());
  EXPECT_EQ(st.packets, st.outputs + st.drops + st.to_controller);
  sw.datapath().reclaim();
  EXPECT_EQ(sw.datapath().reclaim_stats().pending, 0u)
      << "retired plans/impls stuck after the last worker left";
}

TEST(Fusion, ConcurrentChurnDecomposed) {
  // Two packet workers walk the plan while the control thread rebuilds a
  // decomposed table (each add re-decomposes it: fresh sub-slots, the old
  // chain retired behind the root swap, a new plan).  Verdicts must be
  // conserved and every retired sub-slot reclaimed once the workers leave.
  const auto uc = uc::make_load_balancer(10);
  CompilerConfig cfg;
  cfg.enable_decomposition = true;
  Eswitch sw(cfg);
  sw.install(uc.pipeline);
  ASSERT_TRUE(sw.is_decomposed(0));
  Eswitch::Worker* ws[2] = {sw.register_worker(), sw.register_worker()};
  ASSERT_NE(ws[0], nullptr);
  ASSERT_NE(ws[1], nullptr);

  const auto ts = net::TrafficSet::from_flows(uc.traffic(256, 17));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> processed{0};
  const auto run = [&](Eswitch::Worker* w, size_t offset) {
    std::vector<net::Packet> bufs(net::kBurstSize);
    std::vector<net::Packet*> ptrs(bufs.size());
    Verdict verdicts[net::kBurstSize];
    for (size_t b = 0; b < bufs.size(); ++b) ptrs[b] = &bufs[b];
    size_t i = offset;
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint32_t b = 0; b < net::kBurstSize; ++b)
        ts.load((i + b) % 256, bufs[b]);
      sw.process_burst(*w, ptrs.data(), net::kBurstSize, verdicts);
      processed.fetch_add(net::kBurstSize, std::memory_order_relaxed);
      i += net::kBurstSize;
    }
  };
  std::thread t0(run, ws[0], 0), t1(run, ws[1], 128);

  const auto retired_before = sw.datapath().reclaim_stats().retired;
  for (int k = 0; k < 40; ++k)
    sw.apply(add_mod(0, "priority=15,in_port=1,ip_dst=10.9.0." + std::to_string(k) +
                            ",tcp_dst=80,actions=output:3"));
  stop.store(true);
  t0.join();
  t1.join();
  sw.unregister_worker(ws[0]);
  sw.unregister_worker(ws[1]);

  ASSERT_TRUE(sw.is_decomposed(0));
  EXPECT_GT(sw.datapath().reclaim_stats().retired, retired_before);
  const auto st = sw.datapath().stats();
  EXPECT_EQ(st.packets, processed.load());
  EXPECT_EQ(st.packets, st.outputs + st.drops + st.to_controller);
  sw.datapath().reclaim();
  EXPECT_EQ(sw.datapath().reclaim_stats().pending, 0u)
      << "retired sub-slots stuck after the last worker left";
}

}  // namespace
