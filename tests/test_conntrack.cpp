// Connection-tracking subsystem tests: the TCP state machine, expiry and
// eviction, NAT/LB rewrite semantics, the established-only firewall, and
// JIT-vs-interpreter parity over the stateful use cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "common/epoch.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "core/eswitch.hpp"
#include "proto/headers.hpp"
#include "state/conntrack.hpp"
#include "test_util.hpp"
#include "testing/seed.hpp"
#include "usecases/usecases.hpp"

namespace esw {
namespace {

using namespace esw::state;
using core::CompilerConfig;
using core::Eswitch;
using flow::Verdict;
using test::make_packet;

// --- direct-API harness ------------------------------------------------------

struct CtHarness {
  common::EpochDomain domain;
  Conntrack ct;

  explicit CtHarness(CtConfig cfg = manual_cfg()) : ct(cfg, &domain) {}

  static CtConfig manual_cfg() {
    CtConfig cfg;
    cfg.enabled = true;
    cfg.capacity = 1024;
    cfg.manual_clock = true;
    return cfg;
  }

  /// Runs the full pre/post pair the datapath would, with `commit` as the
  /// matched rule's ct:commit decision.  Returns the stamped ct_state.
  uint32_t feed(net::Packet& p, bool commit, uint32_t profile = 0) {
    proto::ParseInfo pi = test::parse_packet(p);
    const uint64_t now = ct.now_ms();
    Conntrack::Hit hit = ct.pre(p.data(), pi, now);
    ct.post(hit, commit, profile, p.data(), pi, now);
    return pi.ct_state;
  }
};

proto::PacketSpec tcp_with_flags(uint32_t src, uint32_t dst, uint16_t sport,
                                 uint16_t dport, uint8_t flags) {
  proto::PacketSpec s = test::tcp_spec(src, dst, sport, dport);
  s.tcp_flags = flags;
  return s;
}

constexpr uint32_t kClient = 0x0A000001;  // 10.0.0.1
constexpr uint32_t kServer = 0xCB007105;  // 203.0.113.5

TcpState tcp_state_of(Conntrack& ct, const FiveTuple& t) {
  Conntrack::Entry* e = ct.find(t);
  EXPECT_NE(e, nullptr);
  return e == nullptr ? TcpState::kClosed
                      : static_cast<TcpState>(e->tcp_state.load());
}

TEST(ConntrackTcp, HandshakeStateMachine) {
  CtHarness h;
  const FiveTuple orig{kClient, kServer, 40000, 443, proto::kIpProtoTcp};

  auto syn = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                        proto::kTcpFlagSyn));
  const uint32_t st_syn = h.feed(syn, /*commit=*/true);
  EXPECT_EQ(st_syn, kCtTracked | kCtNew);  // stamped pre-commit: miss, SYN
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kSynSent);

  auto synack = make_packet(tcp_with_flags(
      kServer, kClient, 443, 40000,
      proto::kTcpFlagSyn | proto::kTcpFlagAck));
  const uint32_t st_synack = h.feed(synack, false);
  // The SYN-ACK must carry established (iptables semantics: an established-
  // only rule admits the handshake) plus reply and new.
  EXPECT_EQ(st_synack, kCtTracked | kCtEstablished | kCtNew | kCtReply);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kSynRecv);

  auto ack = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                        proto::kTcpFlagAck));
  const uint32_t st_ack = h.feed(ack, false);
  // Bits stamp after the transition the packet itself causes: the handshake
  // ACK completes the connection and reads as plain established.
  EXPECT_EQ(st_ack, kCtTracked | kCtEstablished);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kEstablished);

  auto data = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                         proto::kTcpFlagAck));
  EXPECT_EQ(h.feed(data, false), kCtTracked | kCtEstablished);

  auto fin1 = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                         proto::kTcpFlagFin | proto::kTcpFlagAck));
  h.feed(fin1, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kFinWait);
  auto fin2 = make_packet(tcp_with_flags(kServer, kClient, 443, 40000,
                                         proto::kTcpFlagFin | proto::kTcpFlagAck));
  h.feed(fin2, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kClosed);

  // Late packets on a closed connection stamp invalid.
  auto late = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                         proto::kTcpFlagAck));
  EXPECT_EQ(h.feed(late, false), kCtTracked | kCtInvalid);
}

TEST(ConntrackTcp, SimultaneousOpen) {
  CtHarness h;
  const FiveTuple orig{kClient, kServer, 41000, 7777, proto::kIpProtoTcp};

  auto syn_a = make_packet(tcp_with_flags(kClient, kServer, 41000, 7777,
                                          proto::kTcpFlagSyn));
  h.feed(syn_a, true);
  // The crossing SYN (no ACK) from the other side.
  auto syn_b = make_packet(tcp_with_flags(kServer, kClient, 7777, 41000,
                                          proto::kTcpFlagSyn));
  h.feed(syn_b, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kSynRecv);

  auto ack = make_packet(tcp_with_flags(kClient, kServer, 41000, 7777,
                                        proto::kTcpFlagAck));
  h.feed(ack, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kEstablished);
}

TEST(ConntrackTcp, RstTeardown) {
  CtHarness h;
  const FiveTuple orig{kClient, kServer, 42000, 443, proto::kIpProtoTcp};
  auto syn = make_packet(tcp_with_flags(kClient, kServer, 42000, 443,
                                        proto::kTcpFlagSyn));
  h.feed(syn, true);
  auto rst = make_packet(tcp_with_flags(kServer, kClient, 443, 42000,
                                        proto::kTcpFlagRst));
  h.feed(rst, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kClosed);
  auto late = make_packet(tcp_with_flags(kClient, kServer, 42000, 443,
                                         proto::kTcpFlagAck));
  EXPECT_EQ(h.feed(late, false), kCtTracked | kCtInvalid);
}

TEST(ConntrackTcp, MidstreamPickup) {
  // Off (default): a non-SYN packet stamps invalid and its commit is refused.
  {
    CtHarness h;
    auto ack = make_packet(tcp_with_flags(kClient, kServer, 43000, 443,
                                          proto::kTcpFlagAck));
    EXPECT_EQ(h.feed(ack, true), kCtTracked | kCtInvalid);
    EXPECT_EQ(h.ct.find({kClient, kServer, 43000, 443, proto::kIpProtoTcp}),
              nullptr);
    EXPECT_EQ(h.ct.stats().commits, 0u);
  }
  // On: the same packet commits straight to Established.
  {
    CtConfig cfg = CtHarness::manual_cfg();
    cfg.midstream_pickup = true;
    CtHarness h(cfg);
    auto ack = make_packet(tcp_with_flags(kClient, kServer, 43000, 443,
                                          proto::kTcpFlagAck));
    EXPECT_EQ(h.feed(ack, true), kCtTracked | kCtNew);
    EXPECT_EQ(tcp_state_of(h.ct, {kClient, kServer, 43000, 443, proto::kIpProtoTcp}),
              TcpState::kEstablished);
  }
}

TEST(Conntrack, NonTcpStatesAndIcmpKeying) {
  CtHarness h;
  auto req = make_packet(test::udp_spec(kClient, kServer, 5000, 53));
  EXPECT_EQ(h.feed(req, true), kCtTracked | kCtNew);
  // UDP replies map onto the entry and count as established.
  auto rep = make_packet(test::udp_spec(kServer, kClient, 53, 5000));
  EXPECT_EQ(h.feed(rep, false), kCtTracked | kCtEstablished | kCtReply);
}

TEST(Conntrack, ExpiryUnderManualClock) {
  CtConfig cfg = CtHarness::manual_cfg();
  cfg.udp_timeout_ms = 5'000;
  CtHarness h(cfg);
  h.ct.set_now_ms(1'000);

  auto p = make_packet(test::udp_spec(kClient, kServer, 6000, 53));
  h.feed(p, true);
  ASSERT_NE(h.ct.find({kClient, kServer, 6000, 53, proto::kIpProtoUdp}), nullptr);

  // Refresh half-way: the wheel item re-schedules instead of expiring.
  h.ct.set_now_ms(4'000);
  h.feed(p, false);

  // Before the refreshed deadline nothing expires.
  h.ct.set_now_ms(8'000);
  for (uint32_t i = 0; i < 64; ++i) h.ct.poll(h.ct.now_ms());
  EXPECT_EQ(h.ct.stats().expired, 0u);

  // Past it the wheel removes the entry.
  h.ct.set_now_ms(12'000);
  for (uint32_t i = 0; i < 64; ++i) h.ct.poll(h.ct.now_ms());
  EXPECT_EQ(h.ct.stats().expired, 1u);
  EXPECT_EQ(h.ct.find({kClient, kServer, 6000, 53, proto::kIpProtoUdp}), nullptr);
  EXPECT_EQ(h.ct.stats().live, 0u);
}

TEST(Conntrack, EvictionAtCapacity) {
  CtConfig cfg = CtHarness::manual_cfg();
  cfg.capacity = 16;
  CtHarness h(cfg);

  for (uint32_t i = 0; i < 16; ++i) {
    auto p = make_packet(test::udp_spec(kClient + i, kServer, 7000, 53));
    h.feed(p, true);
  }
  ASSERT_EQ(h.ct.stats().live, 16u);

  // Commit 17: forced eviction + accounted drop (the victim's slot waits out
  // its grace period, so this commit cannot use it).
  auto p17 = make_packet(test::udp_spec(kClient + 100, kServer, 7000, 53));
  h.feed(p17, true);
  Conntrack::Stats s = h.ct.stats();
  EXPECT_EQ(s.evictions_forced, 1u);
  EXPECT_EQ(s.commit_drops, 1u);
  EXPECT_EQ(s.live, 15u);

  // After reclaim (no workers registered: grace is immediate) the table has
  // room again.
  h.ct.flush_reclaim();
  auto p18 = make_packet(test::udp_spec(kClient + 101, kServer, 7000, 53));
  h.feed(p18, true);
  s = h.ct.stats();
  EXPECT_EQ(s.live, 16u);
  EXPECT_EQ(s.commit_drops, 1u);

  // Conservation: every commit is live, expired or evicted.
  EXPECT_EQ(s.commits, s.live + s.expired + s.evictions_forced);
}

TEST(Conntrack, InsertFailpointForcesAccountedEviction) {
  CtHarness h;
  auto p1 = make_packet(test::udp_spec(kClient, kServer, 8000, 53));
  h.feed(p1, true);

  ASSERT_TRUE(common::FailpointRegistry::instance().arm("ct.insert", "nth:1"));
  auto p2 = make_packet(test::udp_spec(kClient + 1, kServer, 8000, 53));
  h.feed(p2, true);
  common::FailpointRegistry::instance().disarm("ct.insert");

  // The fire evicted exactly one healthy entry, then the commit proceeded.
  Conntrack::Stats s = h.ct.stats();
  EXPECT_EQ(s.evictions_forced, 1u);
  EXPECT_EQ(s.commit_drops, 0u);
  EXPECT_EQ(s.commits, 2u);
  EXPECT_EQ(s.live, 1u);
  EXPECT_EQ(s.commits, s.live + s.expired + s.evictions_forced);
}

// --- use cases through the full switch --------------------------------------

CompilerConfig cfg_for(const uc::CtUseCase& c, bool jit = true) {
  CompilerConfig cfg;
  cfg.enable_jit = jit;
  cfg.ct = c.ct;
  return cfg;
}

TEST(CtFirewall, EstablishedOnly) {
  uc::CtUseCase c = uc::make_ct_firewall();
  Eswitch sw(cfg_for(c));
  sw.install(c.pipeline);

  // Unsolicited outside packet: dropped, no state.
  auto probe = make_packet(tcp_with_flags(kServer, kClient, 443, 50000,
                                          proto::kTcpFlagAck),
                           uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(probe).kind, Verdict::Kind::kDrop);
  // Even an outside SYN must not open state through the established-only rule.
  auto osyn = make_packet(tcp_with_flags(kServer, kClient, 443, 50001,
                                         proto::kTcpFlagSyn),
                          uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(osyn).kind, Verdict::Kind::kDrop);

  // Inside SYN commits and forwards out.
  auto syn = make_packet(tcp_with_flags(kClient, kServer, 50000, 443,
                                        proto::kTcpFlagSyn),
                         uc::kCtInsidePort);
  EXPECT_EQ(sw.process(syn), Verdict::output(uc::kCtOutsidePort));

  // Now the server's SYN-ACK is established traffic and passes.
  auto synack = make_packet(tcp_with_flags(
                                kServer, kClient, 443, 50000,
                                proto::kTcpFlagSyn | proto::kTcpFlagAck),
                            uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(synack), Verdict::output(uc::kCtInsidePort));

  // A different outside tuple still drops.
  auto other = make_packet(tcp_with_flags(kServer, kClient, 443, 50999,
                                          proto::kTcpFlagAck),
                           uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(other).kind, Verdict::Kind::kDrop);
}

TEST(CtNat, SnatRewriteAndReverse) {
  uc::CtUseCase c = uc::make_ct_nat(uc::kCtNatDefaultIp);
  Eswitch sw(cfg_for(c));
  sw.install(c.pipeline);

  auto syn = make_packet(tcp_with_flags(kClient, kServer, 51000, 443,
                                        proto::kTcpFlagSyn),
                         uc::kCtInsidePort);
  EXPECT_EQ(sw.process(syn), Verdict::output(uc::kCtOutsidePort));

  // Egress packet carries the translated source.
  proto::ParseInfo pi = test::parse_packet(syn);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpSrc, syn.data(), pi),
            uc::kCtNatDefaultIp);
  const uint16_t nat_port = static_cast<uint16_t>(
      flow::extract_field(flow::FieldId::kTcpSrc, syn.data(), pi));
  EXPECT_NE(nat_port, 51000);  // allocated from the profile's range
  // Destination untouched.
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpDst, syn.data(), pi), kServer);

  // The reply arrives addressed to the NAT ip/port and must be un-NATed back
  // to the inside client.
  auto rep = make_packet(tcp_with_flags(kServer, uc::kCtNatDefaultIp, 443,
                                        nat_port,
                                        proto::kTcpFlagSyn | proto::kTcpFlagAck),
                         uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(rep), Verdict::output(uc::kCtInsidePort));
  proto::ParseInfo rpi = test::parse_packet(rep);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpDst, rep.data(), rpi), kClient);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kTcpDst, rep.data(), rpi), 51000u);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpSrc, rep.data(), rpi), kServer);
}

TEST(CtLb, AffinityAcrossBackendChurn) {
  uc::CtUseCase c = uc::make_ct_lb(4);
  Eswitch sw(cfg_for(c));
  sw.install(c.pipeline);

  auto backend_of = [&](net::Packet& p) {
    proto::ParseInfo pi = test::parse_packet(p);
    return static_cast<uint32_t>(
        flow::extract_field(flow::FieldId::kIpDst, p.data(), pi));
  };

  auto syn = make_packet(tcp_with_flags(kClient, uc::kCtLbVip, 52000,
                                        uc::kCtLbVipPort, proto::kTcpFlagSyn),
                         uc::kCtInsidePort);
  EXPECT_EQ(sw.process(syn), Verdict::output(uc::kCtOutsidePort));
  const uint32_t chosen = backend_of(syn);
  EXPECT_GE(chosen, uc::kCtLbBackendBase);
  EXPECT_LT(chosen, uc::kCtLbBackendBase + 4);

  // Follow-up packet of the same connection: same backend (affinity).
  auto ack = make_packet(tcp_with_flags(kClient, uc::kCtLbVip, 52000,
                                        uc::kCtLbVipPort, proto::kTcpFlagAck),
                         uc::kCtInsidePort);
  EXPECT_EQ(sw.process(ack), Verdict::output(uc::kCtOutsidePort));
  EXPECT_EQ(backend_of(ack), chosen);

  // Disable the chosen backend: the committed connection keeps its affinity…
  const uint32_t chosen_idx = chosen - uc::kCtLbBackendBase;
  sw.conntrack()->set_backend_enabled(1, chosen_idx, false);
  auto ack2 = make_packet(tcp_with_flags(kClient, uc::kCtLbVip, 52000,
                                         uc::kCtLbVipPort, proto::kTcpFlagAck),
                          uc::kCtInsidePort);
  sw.process(ack2);
  EXPECT_EQ(backend_of(ack2), chosen);

  // …while new connections avoid the disabled backend entirely.
  for (uint32_t i = 0; i < 64; ++i) {
    auto nsyn = make_packet(tcp_with_flags(kClient + 1 + i, uc::kCtLbVip, 53000,
                                           uc::kCtLbVipPort, proto::kTcpFlagSyn),
                            uc::kCtInsidePort);
    ASSERT_EQ(sw.process(nsyn), Verdict::output(uc::kCtOutsidePort));
    EXPECT_NE(backend_of(nsyn), chosen);
  }

  // Backend replies un-NAT back to the VIP.
  Conntrack::Entry* e =
      sw.conntrack()->find({kClient, uc::kCtLbVip, 52000, uc::kCtLbVipPort,
                            proto::kIpProtoTcp});
  ASSERT_NE(e, nullptr);
  auto rep = make_packet(tcp_with_flags(e->reply.src_ip, e->reply.dst_ip,
                                        e->reply.src_port, e->reply.dst_port,
                                        proto::kTcpFlagSyn | proto::kTcpFlagAck),
                         uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(rep), Verdict::output(uc::kCtInsidePort));
  proto::ParseInfo rpi = test::parse_packet(rep);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpSrc, rep.data(), rpi),
            uc::kCtLbVip);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kTcpSrc, rep.data(), rpi),
            uc::kCtLbVipPort);
}

// --- JIT vs interpreter parity over the stateful use cases -------------------

void expect_parity(uc::CtUseCase c, size_t n_flows, size_t n_packets,
                   uint64_t seed) {
  Eswitch sw_jit(cfg_for(c, /*jit=*/true));
  Eswitch sw_int(cfg_for(c, /*jit=*/false));
  sw_jit.install(c.pipeline);
  sw_int.install(c.pipeline);

  const auto flows = c.traffic(n_flows, seed);
  ASSERT_FALSE(flows.empty());
  for (size_t i = 0; i < n_packets; ++i) {
    const net::FlowSpec& fs = flows[i % flows.size()];
    auto pa = make_packet(fs.pkt, fs.in_port);
    auto pb = make_packet(fs.pkt, fs.in_port);
    const Verdict va = sw_jit.process(pa);
    const Verdict vb = sw_int.process(pb);
    ASSERT_EQ(va, vb) << "packet " << i;
    ASSERT_EQ(pa.len(), pb.len()) << "packet " << i;
    ASSERT_EQ(std::memcmp(pa.data(), pb.data(), pa.len()), 0)
        << "post-NAT bytes diverge at packet " << i;
  }
  // The two switches also evolved identical connection tables.
  const Conntrack::Stats sa = sw_jit.conntrack()->stats();
  const Conntrack::Stats sb = sw_int.conntrack()->stats();
  EXPECT_EQ(sa.commits, sb.commits);
  EXPECT_EQ(sa.live, sb.live);
  EXPECT_EQ(sa.hits, sb.hits);
}

TEST(CtParity, FirewallJitVsInterpreter) {
  const uint64_t seed = testing::test_seed(0xC7F1, "CtParity.Firewall");
  expect_parity(uc::make_ct_firewall(), 256, 2048, seed);
}

TEST(CtParity, NatJitVsInterpreter) {
  const uint64_t seed = testing::test_seed(0xC7F2, "CtParity.Nat");
  expect_parity(uc::make_ct_nat(uc::kCtNatDefaultIp), 256, 2048, seed);
}

TEST(CtParity, LbJitVsInterpreter) {
  const uint64_t seed = testing::test_seed(0xC7F3, "CtParity.Lb");
  expect_parity(uc::make_ct_lb(4), 256, 2048, seed);
}

// --- burst pre-stage ----------------------------------------------------------

// Feeds `trace` to two tables: one through pre_burst over ragged chunks (a
// trace of up to 32 packets is one chunk; one chunk is longer than a hint
// window), each chunk re-offered from wherever pre_burst stopped, the other
// through one scalar pre() per packet.  Both must stamp the same ct_state,
// return the same Hit shape and end with the same counters.  Returns the
// burst side's stamps.
std::vector<uint32_t> expect_burst_parity(const CtConfig& cfg,
                                          const std::vector<net::Packet>& trace) {
  CtHarness scalar(cfg);
  CtHarness burst(cfg);
  const size_t n = trace.size();
  const uint64_t now = scalar.ct.now_ms();

  std::vector<proto::ParseInfo> spi(n);
  std::vector<Conntrack::Hit> shit(n);
  for (size_t i = 0; i < n; ++i) {
    spi[i] = test::parse_packet(trace[i]);
    shit[i] = scalar.ct.pre(trace[i].data(), spi[i], now);
  }

  std::vector<proto::ParseInfo> bpi(n);
  std::vector<Conntrack::Hit> bhit(n);
  std::vector<const uint8_t*> frames(n);
  for (size_t i = 0; i < n; ++i) {
    bpi[i] = test::parse_packet(trace[i]);
    frames[i] = trace[i].data();
  }
  constexpr size_t kLens[] = {32, 1, 77, 31};
  for (size_t done = 0, k = 0; done < n; ++k) {
    const size_t len = std::min(kLens[k % 4], n - done);
    const uint32_t m = burst.ct.pre_burst(frames.data() + done, bpi.data() + done,
                                          static_cast<uint32_t>(len), now,
                                          bhit.data() + done);
    EXPECT_GE(m, 1u);
    EXPECT_LE(m, len);
    done += m;
  }

  std::vector<uint32_t> states(n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bpi[i].ct_state, spi[i].ct_state) << "packet " << i;
    EXPECT_EQ(bhit[i].entry != nullptr, shit[i].entry != nullptr) << "packet " << i;
    EXPECT_EQ(bhit[i].dir, shit[i].dir) << "packet " << i;
    EXPECT_EQ(bhit[i].tuple_valid, shit[i].tuple_valid) << "packet " << i;
    EXPECT_EQ(bhit[i].tuple, shit[i].tuple) << "packet " << i;
    states[i] = bpi[i].ct_state;
  }
  const Conntrack::Stats a = scalar.ct.stats();
  const Conntrack::Stats b = burst.ct.stats();
  EXPECT_EQ(b.lookups, a.lookups);
  EXPECT_EQ(b.hits, a.hits);
  EXPECT_EQ(b.misses, a.misses);
  EXPECT_EQ(b.commits, a.commits);
  EXPECT_EQ(b.commit_drops, a.commit_drops);
  EXPECT_EQ(b.evictions_forced, a.evictions_forced);
  EXPECT_EQ(b.live, a.live);
  return states;
}

CtConfig burst_cfg(bool auto_commit) {
  CtConfig cfg = CtHarness::manual_cfg();
  cfg.auto_commit = auto_commit;
  return cfg;
}

// A seeded stream over a small connection pool, so tuples repeat inside a
// chunk: both directions, every TCP flag step, UDP, ICMP and untracked ARP.
TEST(CtBurst, SeededStreamMatchesScalarPre) {
  const uint64_t seed = testing::test_seed(0xC7B0, "CtBurst.SeededStream");
  Rng rng(seed);
  constexpr uint8_t kFlags[] = {
      proto::kTcpFlagSyn, proto::kTcpFlagSyn | proto::kTcpFlagAck, proto::kTcpFlagAck,
      proto::kTcpFlagFin | proto::kTcpFlagAck, proto::kTcpFlagRst};
  proto::PacketSpec arp;
  arp.kind = proto::PacketKind::kArp;
  std::vector<net::Packet> trace;
  for (size_t i = 0; i < 1500; ++i) {
    const uint32_t conn = static_cast<uint32_t>(rng.below(48));
    const bool reply = rng.below(3) == 0;
    const uint32_t a = kClient + conn, b = kServer;
    const uint16_t pa = static_cast<uint16_t>(40000 + conn), pb = 443;
    proto::PacketSpec spec;
    switch (rng.below(8)) {
      case 0:
        spec = arp;
        break;
      case 1:
      case 2:
        spec = reply ? test::udp_spec(b, a, pb, pa) : test::udp_spec(a, b, pa, pb);
        break;
      case 3:
        spec.kind = proto::PacketKind::kIcmp;
        spec.ip_src = reply ? b : a;
        spec.ip_dst = reply ? a : b;
        break;
      default: {
        const uint8_t flags = kFlags[rng.below(sizeof kFlags)];
        spec = reply ? tcp_with_flags(b, a, pb, pa, flags) : tcp_with_flags(a, b, pa, pb, flags);
      }
    }
    trace.push_back(make_packet(spec));
  }
  for (const bool auto_commit : {false, true}) {
    SCOPED_TRACE(auto_commit ? "auto_commit on" : "auto_commit off");
    expect_burst_parity(burst_cfg(auto_commit), trace);
  }
}

// Packet j of a chunk must see the entry packet i < j committed: the
// resolution pass re-loads every bucket head instead of reusing the hint
// pass's, which was read before the commit.
TEST(CtBurst, SameTupleTwiceInOneChunk) {
  const std::vector<net::Packet> trace = {
      make_packet(test::udp_spec(kClient, kServer, 5000, 53)),
      make_packet(test::udp_spec(kClient, kServer, 5000, 53))};
  const auto on = expect_burst_parity(burst_cfg(true), trace);
  EXPECT_EQ(on[0], kCtTracked | kCtNew);
  EXPECT_EQ(on[1], kCtTracked | kCtEstablished);
  const auto off = expect_burst_parity(burst_cfg(false), trace);
  EXPECT_EQ(off[0], kCtTracked | kCtNew);
  EXPECT_EQ(off[1], kCtTracked | kCtNew);
}

// The reply finds the SYN's auto-committed entry through the other bucket.
TEST(CtBurst, SynAndSynAckInOneChunk) {
  const std::vector<net::Packet> trace = {
      make_packet(tcp_with_flags(kClient, kServer, 40000, 443, proto::kTcpFlagSyn)),
      make_packet(tcp_with_flags(kServer, kClient, 443, 40000,
                                 proto::kTcpFlagSyn | proto::kTcpFlagAck))};
  const auto on = expect_burst_parity(burst_cfg(true), trace);
  EXPECT_EQ(on[0], kCtTracked | kCtNew);
  EXPECT_EQ(on[1], kCtTracked | kCtEstablished | kCtNew | kCtReply);
  const auto off = expect_burst_parity(burst_cfg(false), trace);
  EXPECT_EQ(off[1], kCtTracked | kCtNew);
}

// With rule-driven commits the SYN-ACK depends on the SYN's post-stage
// commit: pre_burst resolves the SYN alone and stops before the reply.
TEST(CtBurst, StopsBeforeMissTheEarlierMissMayCommit) {
  CtHarness h(burst_cfg(false));
  std::vector<net::Packet> trace = {
      make_packet(tcp_with_flags(kClient, kServer, 40000, 443, proto::kTcpFlagSyn)),
      make_packet(test::udp_spec(kClient + 7, kServer + 7, 5000, 53)),
      make_packet(tcp_with_flags(kServer, kClient, 443, 40000,
                                 proto::kTcpFlagSyn | proto::kTcpFlagAck))};
  std::vector<proto::ParseInfo> pis;
  std::vector<const uint8_t*> frames;
  for (const net::Packet& p : trace) {
    pis.push_back(test::parse_packet(p));
    frames.push_back(p.data());
  }
  Conntrack::Hit hits[3];
  // The unrelated UDP miss does not end the prefix; the reply does.
  EXPECT_EQ(h.ct.pre_burst(frames.data(), pis.data(), 3, h.ct.now_ms(), hits), 2u);
  EXPECT_EQ(h.ct.stats().lookups, 2u);
  h.ct.post(hits[0], /*commit_requested=*/true, 0, trace[0].data(), pis[0],
            h.ct.now_ms());
  EXPECT_EQ(h.ct.pre_burst(frames.data() + 2, pis.data() + 2, 1, h.ct.now_ms(), hits + 2),
            1u);
  EXPECT_EQ(pis[2].ct_state, kCtTracked | kCtEstablished | kCtNew | kCtReply);
  EXPECT_EQ(h.ct.stats().lookups, 3u);

  // Auto-commit already commits inside the pre-stage: nothing to wait for.
  CtHarness a(burst_cfg(true));
  for (size_t i = 0; i < trace.size(); ++i) pis[i] = test::parse_packet(trace[i]);
  EXPECT_EQ(a.ct.pre_burst(frames.data(), pis.data(), 3, a.ct.now_ms(), hits), 3u);
}

// ARP carries no tuple: stamped 0, no lookup counted, neighbours unaffected.
TEST(CtBurst, UntrackedArpFrames) {
  proto::PacketSpec arp;
  arp.kind = proto::PacketKind::kArp;
  const std::vector<net::Packet> trace = {
      make_packet(arp), make_packet(test::udp_spec(kClient, kServer, 5000, 53)),
      make_packet(arp), make_packet(test::udp_spec(kServer, kClient, 53, 5000))};
  const auto states = expect_burst_parity(burst_cfg(true), trace);
  EXPECT_EQ(states[0], 0u);
  EXPECT_EQ(states[2], 0u);
  EXPECT_EQ(states[3], kCtTracked | kCtEstablished | kCtReply);

  CtHarness h(burst_cfg(true));
  std::vector<proto::ParseInfo> pis;
  std::vector<const uint8_t*> frames;
  for (const net::Packet& p : trace) {
    pis.push_back(test::parse_packet(p));
    frames.push_back(p.data());
  }
  Conntrack::Hit hits[4];
  h.ct.pre_burst(frames.data(), pis.data(), 4, h.ct.now_ms(), hits);
  EXPECT_FALSE(hits[0].tuple_valid);
  EXPECT_EQ(hits[0].entry, nullptr);
  const Conntrack::Stats s = h.ct.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

// --- lookup accounting ---------------------------------------------------------

// The burst path tallies ct lookups per chunk and flushes once; the scalar
// path flushes per packet.  Replaying one fixed trace (firewall flows plus
// untracked ARP frames, in ragged bursts) through both must leave identical
// lookups/hits/misses.
TEST(CtStats, ChunkTalliedLookupsMatchPerPacketCounts) {
  uc::CtUseCase c = uc::make_ct_firewall();
  c.ct.manual_clock = true;
  Eswitch scalar(cfg_for(c));
  Eswitch burst(cfg_for(c));
  scalar.install(c.pipeline);
  burst.install(c.pipeline);

  proto::PacketSpec arp;
  arp.kind = proto::PacketKind::kArp;
  const auto flows = c.traffic(64, 0xC7F4);
  std::vector<net::Packet> trace;
  uint64_t tracked = 0;
  for (size_t i = 0; i < 600; ++i) {
    if (i % 7 == 3) {
      trace.push_back(make_packet(arp, uc::kCtInsidePort));
      continue;
    }
    const net::FlowSpec& fs = flows[(i * 5) % flows.size()];
    trace.push_back(make_packet(fs.pkt, fs.in_port));
    ++tracked;
  }

  std::vector<net::Packet> copy = trace;
  for (net::Packet& p : copy) scalar.process(p);
  // Ragged bursts, one longer than kBurstSize (split into chunks inside).
  std::vector<net::Packet*> ptrs;
  for (net::Packet& p : trace) ptrs.push_back(&p);
  std::vector<Verdict> out(ptrs.size());
  constexpr size_t kLens[] = {1, 31, 77, 32, 5};
  for (size_t done = 0, k = 0; done < ptrs.size(); done += kLens[k++ % 5]) {
    const size_t len = std::min(kLens[k % 5], ptrs.size() - done);
    burst.process_burst(ptrs.data() + done, static_cast<uint32_t>(len), out.data() + done);
  }

  const Conntrack::Stats a = scalar.conntrack()->stats();
  const Conntrack::Stats b = burst.conntrack()->stats();
  EXPECT_EQ(a.lookups, tracked);  // ARP frames carry no tuple: no lookup
  // Pinned per-packet counts for this trace.
  EXPECT_EQ(a.lookups, 514u);
  EXPECT_EQ(a.hits, 402u);
  EXPECT_EQ(a.misses, 112u);
  EXPECT_EQ(b.lookups, a.lookups);
  EXPECT_EQ(b.hits, a.hits);
  EXPECT_EQ(b.misses, a.misses);
  EXPECT_EQ(b.commits, a.commits);
}

// --- burst vs scalar datapath --------------------------------------------------

// The same frames through one switch per packet (process()) and through
// another in ragged bursts (process_burst()): verdicts, egress bytes (NAT
// rewrites) and connection counters must agree.  Returns the per-packet
// switch's counters.
Conntrack::Stats expect_burst_matches_scalar(const uc::CtUseCase& c,
                                             const std::vector<net::Packet>& trace) {
  Eswitch scalar(cfg_for(c));
  Eswitch burst(cfg_for(c));
  scalar.install(c.pipeline);
  burst.install(c.pipeline);

  std::vector<net::Packet> sp = trace;
  std::vector<Verdict> sv;
  for (net::Packet& p : sp) sv.push_back(scalar.process(p));

  std::vector<net::Packet> bp = trace;
  std::vector<net::Packet*> ptrs;
  for (net::Packet& p : bp) ptrs.push_back(&p);
  std::vector<Verdict> bv(ptrs.size());
  constexpr size_t kLens[] = {32, 2, 77, 31, 5};
  for (size_t done = 0, k = 0; done < ptrs.size(); done += kLens[k++ % 5]) {
    const size_t len = std::min(kLens[k % 5], ptrs.size() - done);
    burst.process_burst(ptrs.data() + done, static_cast<uint32_t>(len), bv.data() + done);
  }

  const Conntrack::Stats a = scalar.conntrack()->stats();
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(bv[i], sv[i]) << "packet " << i;
    EXPECT_EQ(bp[i].len(), sp[i].len()) << "packet " << i;
    EXPECT_EQ(std::memcmp(bp[i].data(), sp[i].data(), sp[i].len()), 0)
        << "egress bytes diverge at packet " << i;
    if (::testing::Test::HasFailure()) return a;
  }
  const Conntrack::Stats b = burst.conntrack()->stats();
  EXPECT_EQ(b.lookups, a.lookups);
  EXPECT_EQ(b.hits, a.hits);
  EXPECT_EQ(b.misses, a.misses);
  EXPECT_EQ(b.commits, a.commits);
  EXPECT_EQ(b.commit_drops, a.commit_drops);
  EXPECT_EQ(b.evictions_forced, a.evictions_forced);
  EXPECT_EQ(b.expired, a.expired);
  EXPECT_EQ(b.live, a.live);
  return a;
}

uc::CtUseCase manual(uc::CtUseCase c) {
  c.ct.manual_clock = true;
  c.ct.auto_commit = false;  // commits come from the ct:commit rules
  return c;
}

// A SYN and its SYN-ACK in one burst: the reply must see the SYN's
// rule-driven commit, as it does when the two are processed one by one.
TEST(CtBurst, SynAndSynAckInOneBurstMatchScalar) {
  const uc::CtUseCase c = manual(uc::make_ct_firewall());
  const std::vector<net::Packet> trace = {
      make_packet(tcp_with_flags(kClient, kServer, 50000, 443, proto::kTcpFlagSyn),
                  uc::kCtInsidePort),
      make_packet(tcp_with_flags(kServer, kClient, 443, 50000,
                                 proto::kTcpFlagSyn | proto::kTcpFlagAck),
                  uc::kCtOutsidePort)};
  Eswitch sw(cfg_for(c));
  sw.install(c.pipeline);
  std::vector<net::Packet> bp = trace;
  net::Packet* ptrs[2] = {&bp[0], &bp[1]};
  Verdict v[2];
  sw.process_burst(ptrs, 2, v);
  EXPECT_EQ(v[0], Verdict::output(uc::kCtOutsidePort));
  EXPECT_EQ(v[1], Verdict::output(uc::kCtInsidePort));
  expect_burst_matches_scalar(c, trace);
}

// A seeded 1200-packet stream over a pool of 40 connections (both
// directions, every TCP flag step, UDP) between inside clients and
// `server`:`port`.
std::vector<net::Packet> seeded_ct_stream(uint64_t seed, uint32_t server = kServer,
                                          uint16_t port = 443) {
  constexpr uint8_t kFlags[] = {
      proto::kTcpFlagSyn, proto::kTcpFlagSyn | proto::kTcpFlagAck, proto::kTcpFlagAck,
      proto::kTcpFlagFin | proto::kTcpFlagAck, proto::kTcpFlagRst};
  Rng rng(seed);
  std::vector<net::Packet> trace;
  for (size_t i = 0; i < 1200; ++i) {
    const uint32_t conn = static_cast<uint32_t>(rng.below(40));
    const bool reply = rng.below(3) == 0;
    const uint32_t a = kClient + conn, b = server;
    const uint16_t pa = static_cast<uint16_t>(40000 + conn), pb = port;
    proto::PacketSpec spec;
    if (rng.below(4) == 0) {
      spec = reply ? test::udp_spec(b, a, pb, pa) : test::udp_spec(a, b, pa, pb);
    } else {
      const uint8_t flags = kFlags[rng.below(sizeof kFlags)];
      spec = reply ? tcp_with_flags(b, a, pb, pa, flags)
                   : tcp_with_flags(a, b, pa, pb, flags);
    }
    trace.push_back(make_packet(spec, reply ? uc::kCtOutsidePort : uc::kCtInsidePort));
  }
  return trace;
}

// The seeded stream through the firewall, SNAT and load-balancer programs
// (the load balancer's stream targets its VIP).
TEST(CtBurst, SeededStreamProcessBurstMatchesScalar) {
  const uint64_t seed = testing::test_seed(0xC7B1, "CtBurst.SeededProcessBurst");
  const std::vector<net::Packet> trace = seeded_ct_stream(seed);
  const std::vector<net::Packet> vip_trace =
      seeded_ct_stream(seed, uc::kCtLbVip, uc::kCtLbVipPort);
  expect_burst_matches_scalar(manual(uc::make_ct_firewall()), trace);
  expect_burst_matches_scalar(manual(uc::make_ct_nat(uc::kCtNatDefaultIp)), trace);
  expect_burst_matches_scalar(manual(uc::make_ct_lb(4)), vip_trace);
}

// The same stream into tables of 4 and 16 entries, far below the 40
// connections it opens: commits force-evict live entries all the way
// through, and an evicted slot returns when a later commit finds the
// freelist empty (alloc_slot reclaims).
TEST(CtBurst, SeededStreamAtCapacityMatchesScalar) {
  const uint64_t seed = testing::test_seed(0xC7B2, "CtBurst.SeededAtCapacity");
  const std::vector<net::Packet> trace = seeded_ct_stream(seed);
  const std::vector<net::Packet> vip_trace =
      seeded_ct_stream(seed, uc::kCtLbVip, uc::kCtLbVipPort);
  for (const uint32_t cap : {4u, 16u}) {
    const std::pair<uc::CtUseCase, const std::vector<net::Packet>*> cases[] = {
        {manual(uc::make_ct_firewall(cap)), &trace},
        {manual(uc::make_ct_nat(uc::kCtNatDefaultIp, cap)), &trace},
        {manual(uc::make_ct_lb(4, cap)), &vip_trace}};
    for (size_t k = 0; k < std::size(cases); ++k) {
      SCOPED_TRACE("capacity " + std::to_string(cap) + ", program " + std::to_string(k));
      const Conntrack::Stats s = expect_burst_matches_scalar(cases[k].first, *cases[k].second);
      EXPECT_GT(s.evictions_forced, 0u);
      EXPECT_GT(s.commit_drops, 0u);
    }
  }
}

// A switch driven by process() alone keeps its connection table healthy: each
// packet is a burst of one, so it runs the conntrack poll too and idle
// connections expire.  Force-evicted slots return to the freelist.
TEST(CtBurst, ProcessAloneReclaimsAndExpires) {
  const uc::CtUseCase c = manual(uc::make_ct_firewall(/*capacity=*/4));
  Eswitch sw(cfg_for(c));
  sw.install(c.pipeline);
  Conntrack& ct = *sw.conntrack();
  ct.set_now_ms(1'000);
  const auto syn = [](uint32_t k) {
    return make_packet(tcp_with_flags(kClient + k, kServer, 40000, 443, proto::kTcpFlagSyn),
                       uc::kCtInsidePort);
  };
  // Untracked frames: they commit nothing, but each one's chunk polls the
  // timeout wheel.
  const auto idle = [&sw](int n) {
    proto::PacketSpec arp;
    arp.kind = proto::PacketKind::kArp;
    for (int i = 0; i < n; ++i) {
      net::Packet p = make_packet(arp, uc::kCtOutsidePort);
      sw.process(p);
    }
  };

  for (uint32_t k = 0; k < 4; ++k) {
    net::Packet p = syn(k);
    ASSERT_EQ(sw.process(p), Verdict::output(uc::kCtOutsidePort));
  }
  ASSERT_EQ(ct.stats().live, 4u);

  // At capacity: the fifth commit force-evicts a victim and is dropped.
  net::Packet p5 = syn(4);
  sw.process(p5);
  Conntrack::Stats s = ct.stats();
  ASSERT_EQ(s.evictions_forced, 1u);
  ASSERT_EQ(s.commit_drops, 1u);
  ASSERT_EQ(s.live, 3u);

  // The next commit finds the freelist empty and takes the victim's slot
  // back (no worker is registered, so its grace period is over): it lands
  // without an eviction.
  net::Packet p6 = syn(5);
  sw.process(p6);
  s = ct.stats();
  EXPECT_EQ(s.evictions_forced, 1u);
  EXPECT_EQ(s.commit_drops, 1u);
  EXPECT_EQ(s.live, 4u);

  // Past the SYN timeout every connection expires.
  ct.set_now_ms(1'000 + c.ct.tcp_syn_timeout_ms + 5'000);
  idle(256);
  s = ct.stats();
  EXPECT_EQ(s.expired, 4u);
  EXPECT_EQ(s.live, 0u);
  EXPECT_EQ(s.commits, s.live + s.expired + s.evictions_forced);
}

// At capacity a rule-driven commit force-evicts a live entry, which may be
// one a later packet of the same burst hits.  Four connections fill the
// table; the SYN of a fifth then evicts one of them, and the four replies
// that follow in the same burst must see that eviction (the evicted one is
// dropped as invalid), as they do one by one.
TEST(CtBurst, FullTableEvictionMatchesScalar) {
  const uc::CtUseCase c = manual(uc::make_ct_firewall(/*capacity=*/4));
  const auto syn = [](uint32_t k) {
    return make_packet(tcp_with_flags(kClient + k, kServer, 40000, 443, proto::kTcpFlagSyn),
                       uc::kCtInsidePort);
  };
  std::vector<net::Packet> burst_trace = {syn(4)};
  for (uint32_t k = 0; k < 4; ++k)
    burst_trace.push_back(make_packet(tcp_with_flags(kServer, kClient + k, 443, 40000,
                                                     proto::kTcpFlagSyn | proto::kTcpFlagAck),
                                      uc::kCtOutsidePort));

  Eswitch scalar(cfg_for(c));
  Eswitch burst(cfg_for(c));
  scalar.install(c.pipeline);
  burst.install(c.pipeline);
  for (uint32_t k = 0; k < 4; ++k) {
    net::Packet a = syn(k), b = syn(k);
    ASSERT_EQ(scalar.process(a), Verdict::output(uc::kCtOutsidePort));
    ASSERT_EQ(burst.process(b), Verdict::output(uc::kCtOutsidePort));
  }
  std::vector<net::Packet> sp = burst_trace, bp = burst_trace;
  std::vector<Verdict> sv;
  for (net::Packet& p : sp) sv.push_back(scalar.process(p));
  std::vector<net::Packet*> ptrs;
  for (net::Packet& p : bp) ptrs.push_back(&p);
  std::vector<Verdict> bv(ptrs.size());
  burst.process_burst(ptrs.data(), static_cast<uint32_t>(ptrs.size()), bv.data());

  EXPECT_EQ(std::count(sv.begin(), sv.end(), Verdict::drop()), 1);
  for (size_t i = 0; i < sv.size(); ++i) EXPECT_EQ(bv[i], sv[i]) << "packet " << i;
  const Conntrack::Stats a = scalar.conntrack()->stats();
  const Conntrack::Stats b = burst.conntrack()->stats();
  EXPECT_EQ(a.evictions_forced, 1u);
  EXPECT_EQ(b.evictions_forced, a.evictions_forced);
  EXPECT_EQ(b.hits, a.hits);
}

// --- concurrent churn --------------------------------------------------------

// Workers hammer a small table with short-timeout flows while expiry,
// eviction and epoch reclamation run underneath.  The assertions are the
// conservation laws; TSan owns the data-race half of this test.
TEST(CtConcurrency, ChurnConservation) {
  const uint64_t seed = testing::test_seed(0xC7C0, "CtConcurrency.Churn");
  const int scale = [] {
    const char* s = std::getenv("ESW_CONC_SCALE");
    return s != nullptr ? std::max(1, std::atoi(s)) : 4;
  }();

  uc::CtUseCase c = uc::make_ct_firewall(/*capacity=*/512);
  c.ct.auto_commit = true;         // every miss inserts: maximal churn
  c.ct.udp_timeout_ms = 1;         // immediate expiry pressure
  c.ct.tcp_syn_timeout_ms = 1;
  c.ct.tcp_est_timeout_ms = 1;
  CompilerConfig cfg = cfg_for(c);
  Eswitch sw(cfg);
  sw.install(c.pipeline);

  constexpr int kWorkers = 3;
  const int bursts = 200 * scale;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    Eswitch::Worker* ctx = sw.register_worker();
    ASSERT_NE(ctx, nullptr);
    threads.emplace_back([&, ctx, w] {
      Rng rng(seed ^ (w * 0x9E3779B97F4A7C15ULL));
      const auto flows = c.traffic(2048, seed + w);
      std::vector<net::Packet> storage(net::kBurstSize);
      net::Packet* pkts[net::kBurstSize];
      flow::Verdict verdicts[net::kBurstSize];
      for (int b = 0; b < bursts; ++b) {
        for (uint32_t i = 0; i < net::kBurstSize; ++i) {
          const net::FlowSpec& fs = flows[rng.below(flows.size())];
          storage[i] = make_packet(fs.pkt, fs.in_port);
          pkts[i] = &storage[i];
        }
        sw.process_burst(*ctx, pkts, net::kBurstSize, verdicts);
      }
    });
  }
  for (auto& t : threads) t.join();

  Conntrack& ct = *sw.conntrack();
  ct.flush_reclaim();
  const Conntrack::Stats s = ct.stats();
  EXPECT_GT(s.commits, 0u);
  // Conservation: every committed entry is live, expired or evicted; every
  // retirement is pending or reclaimed.
  EXPECT_EQ(s.commits, s.live + s.expired + s.evictions_forced);
  EXPECT_EQ(s.retired_total, s.retire_pending + s.reclaimed_total);
  EXPECT_LE(s.live, 512u);
}

}  // namespace
}  // namespace esw
