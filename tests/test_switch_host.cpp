#include <gtest/gtest.h>

#include <cstring>

#include "core/eswitch.hpp"
#include "core/switch_host.hpp"
#include "flow/dsl.hpp"
#include "ovs/ovs_switch.hpp"
#include "test_util.hpp"

namespace esw {
namespace {

using namespace esw::flow;

// ---------------------------------------------------------------------------
// PortSet
// ---------------------------------------------------------------------------

TEST(PortSet, NumbersPortsFromOne) {
  net::PortSet ps(3);
  EXPECT_EQ(ps.size(), 3u);
  EXPECT_FALSE(ps.valid(0));  // OpenFlow reserves port 0
  EXPECT_TRUE(ps.valid(1));
  EXPECT_TRUE(ps.valid(3));
  EXPECT_FALSE(ps.valid(4));
  EXPECT_EQ(ps.port(1).name(), "port-1");
  EXPECT_EQ(ps.port(3).name(), "port-3");
}

TEST(PortSet, AddPortExtends) {
  net::PortSet ps(1);
  net::Port::Config cfg;
  cfg.name = "uplink";
  const uint32_t no = ps.add_port(cfg);
  EXPECT_EQ(no, 2u);
  EXPECT_EQ(ps.port(2).name(), "uplink-2");
  EXPECT_TRUE(ps.valid(2));
}

TEST(PortSet, InvalidPortThrows) {
  net::PortSet ps(2);
  EXPECT_THROW(ps.port(0), CheckError);
  EXPECT_THROW(ps.port(3), CheckError);
}

TEST(PortSet, ForEachExceptSkipsIngress) {
  net::PortSet ps(4);
  std::vector<uint32_t> visited;
  ps.for_each_except(2, [&](uint32_t no, net::Port&) { visited.push_back(no); });
  EXPECT_EQ(visited, (std::vector<uint32_t>{1, 3, 4}));
  visited.clear();
  ps.for_each_except(0, [&](uint32_t no, net::Port&) { visited.push_back(no); });
  EXPECT_EQ(visited, (std::vector<uint32_t>{1, 2, 3, 4}));
}

TEST(PortSet, TotalsAggregate) {
  net::PortSet ps(2);
  net::Packet a = test::make_packet(test::udp_spec(1, 2, 3, 4));
  net::Packet* pa = &a;
  ps.port(1).inject_rx(&pa, 1);
  ps.port(2).tx_burst(&pa, 1);
  const net::PortCounters t = ps.totals();
  EXPECT_EQ(t.rx_packets, 1u);
  EXPECT_EQ(t.tx_packets, 1u);
  EXPECT_EQ(t.rx_bytes, a.len());
  EXPECT_EQ(t.tx_bytes, a.len());
}

// ---------------------------------------------------------------------------
// SwitchHost over both backends (the unified Dataplane interface)
// ---------------------------------------------------------------------------

template <typename Backend>
class SwitchHostTest : public ::testing::Test {
 protected:
  using Host = core::SwitchHost<Backend>;

  static typename Host::Config small_config() {
    typename Host::Config cfg;
    cfg.n_ports = 4;
    cfg.pool_capacity = 64;
    return cfg;
  }

  /// in_port=1 HTTP -> output:2; broadcast dst -> flood; udp_dst=99 ->
  /// output to a port that does not exist; everything else in table 0 drops;
  /// table 1 (port-4 traffic) punts to the controller.
  static Pipeline pipeline() {
    Pipeline pl;
    pl.table(0).add(parse_rule(
        "priority=100, in_port=1, ip_dst=192.0.2.7, tcp_dst=80, actions=output:2"));
    pl.table(0).add(
        parse_rule("priority=90, eth_dst=ff:ff:ff:ff:ff:ff, actions=flood"));
    pl.table(0).add(parse_rule("priority=80, udp_dst=99, actions=output:200"));
    pl.table(0).add(parse_rule("priority=70, in_port=4, actions=,goto:1"));
    pl.table(0).add(parse_rule("priority=1, actions=drop"));
    pl.table(1).add(parse_rule("priority=1, actions=controller"));
    return pl;
  }

  static uint32_t inject_spec(Host& host, const proto::PacketSpec& spec,
                              uint32_t in_port) {
    uint8_t frame[256];
    const uint32_t len = proto::build_packet(spec, frame, sizeof frame);
    EXPECT_TRUE(host.inject(in_port, frame, len));
    return len;
  }

  static proto::PacketSpec http_spec() {
    proto::PacketSpec s = test::tcp_spec(test::ip("10.0.0.1"), test::ip("192.0.2.7"),
                                         4000, 80);
    return s;
  }
};

using Backends = ::testing::Types<core::Eswitch, ovs::OvsSwitch>;
TYPED_TEST_SUITE(SwitchHostTest, Backends);

TYPED_TEST(SwitchHostTest, OutputLandsOnEgressPort) {
  typename TestFixture::Host host(TestFixture::small_config());
  host.backend().install(TestFixture::pipeline());

  const uint32_t len = TestFixture::inject_spec(host, TestFixture::http_spec(), 1);
  EXPECT_EQ(host.poll(), 1u);

  net::Packet* out[net::kBurstSize];
  ASSERT_EQ(host.drain_tx(2, out, net::kBurstSize), 1u);
  EXPECT_EQ(out[0]->len(), len);
  EXPECT_EQ(out[0]->in_port(), 1u);
  host.release(out[0]);
  EXPECT_EQ(host.counters().tx_packets, 1u);
  EXPECT_EQ(host.ports().port(2).counters().tx_packets, 1u);
  // Verdict-level stats flow through the unified interface.
  const core::DataplaneStats st = host.backend().stats();
  EXPECT_EQ(st.packets, 1u);
  EXPECT_EQ(st.outputs, 1u);
}

TYPED_TEST(SwitchHostTest, FloodFansOutToAllPortsExceptIngress) {
  typename TestFixture::Host host(TestFixture::small_config());
  host.backend().install(TestFixture::pipeline());

  proto::PacketSpec bcast = test::udp_spec(1, 2, 3, 4);
  bcast.eth_dst = 0xFFFFFFFFFFFF;
  TestFixture::inject_spec(host, bcast, 3);
  host.poll();

  // Copies on every port except ingress port 3 — and nothing on 3.
  net::Packet* out[net::kBurstSize];
  for (const uint32_t no : {1u, 2u, 4u}) {
    ASSERT_EQ(host.drain_tx(no, out, net::kBurstSize), 1u) << "port " << no;
    EXPECT_EQ(out[0]->in_port(), 3u);
    host.release(out[0]);
  }
  EXPECT_EQ(host.drain_tx(3, out, net::kBurstSize), 0u);
  EXPECT_EQ(host.counters().flood_copies, 3u);
  // All buffers (original + copies) are back in the pool.
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

TYPED_TEST(SwitchHostTest, ControllerVerdictBecomesPacketInEvent) {
  typename TestFixture::Host host(TestFixture::small_config());
  host.backend().install(TestFixture::pipeline());

  const proto::PacketSpec spec = test::udp_spec(5, 6, 7, 8);
  uint8_t frame[256];
  const uint32_t len = proto::build_packet(spec, frame, sizeof frame);
  ASSERT_TRUE(host.inject(4, frame, len));
  host.poll();

  const auto events = host.drain_packet_ins();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].in_port, 4u);
  ASSERT_EQ(events[0].frame.size(), len);
  EXPECT_EQ(std::memcmp(events[0].frame.data(), frame, len), 0);
  EXPECT_EQ(host.counters().packet_ins, 1u);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
  // Drained once: the queue is consumed.
  EXPECT_TRUE(host.drain_packet_ins().empty());
}

TYPED_TEST(SwitchHostTest, PacketInSinkBypassesBuffering) {
  typename TestFixture::Host host(TestFixture::small_config());
  host.backend().install(TestFixture::pipeline());
  std::vector<core::PacketInEvent> seen;
  host.set_packet_in_sink([&](const core::PacketInEvent& ev) { seen.push_back(ev); });

  TestFixture::inject_spec(host, test::udp_spec(5, 6, 7, 8), 4);
  host.poll();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].in_port, 4u);
  EXPECT_TRUE(host.drain_packet_ins().empty());
}

TYPED_TEST(SwitchHostTest, DropAndBadPortRecycleBuffers) {
  typename TestFixture::Host host(TestFixture::small_config());
  host.backend().install(TestFixture::pipeline());

  TestFixture::inject_spec(host, test::udp_spec(1, 2, 3, 9999), 2);  // drop rule
  TestFixture::inject_spec(host, test::udp_spec(1, 2, 3, 99), 2);    // output:200
  host.poll();

  EXPECT_EQ(host.counters().drops, 1u);
  EXPECT_EQ(host.counters().bad_port, 1u);
  EXPECT_EQ(host.counters().tx_packets, 0u);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

TYPED_TEST(SwitchHostTest, PacketOutExecutesActionList) {
  typename TestFixture::Host host(TestFixture::small_config());
  host.backend().install(TestFixture::pipeline());

  uint8_t frame[256];
  const uint32_t len = proto::build_packet(test::udp_spec(1, 2, 3, 4), frame, sizeof frame);

  // Unicast PACKET_OUT.
  ASSERT_TRUE(host.packet_out(frame, len, 1, {Action::output(3)}));
  EXPECT_EQ(host.drain_and_release_tx(3), 1u);

  // Flood PACKET_OUT honors the ingress exclusion.
  ASSERT_TRUE(host.packet_out(frame, len, 2, {Action::flood()}));
  EXPECT_EQ(host.drain_and_release_tx(1), 1u);
  EXPECT_EQ(host.drain_and_release_tx(2), 0u);
  EXPECT_EQ(host.drain_and_release_tx(3), 1u);
  EXPECT_EQ(host.drain_and_release_tx(4), 1u);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

TYPED_TEST(SwitchHostTest, BurstOfMixedVerdicts) {
  typename TestFixture::Host host(TestFixture::small_config());
  host.backend().install(TestFixture::pipeline());

  // A full burst's worth of interleaved traffic on one port.
  const proto::PacketSpec fwd = TestFixture::http_spec();
  const proto::PacketSpec dropped = test::udp_spec(1, 2, 3, 9999);
  for (uint32_t i = 0; i < net::kBurstSize; ++i)
    TestFixture::inject_spec(host, (i % 2 == 0) ? fwd : dropped, 1);

  EXPECT_EQ(host.poll(), net::kBurstSize);
  EXPECT_EQ(host.counters().tx_packets, net::kBurstSize / 2);
  EXPECT_EQ(host.counters().drops, net::kBurstSize / 2);
  EXPECT_EQ(host.drain_and_release_tx(2), net::kBurstSize / 2);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

// Staged TX: one burst whose outputs interleave over three ports around a
// flood, a drop, a punt and a bad port.  Each port sends its verdicts in
// verdict order, and every processed packet is accounted exactly once.
TYPED_TEST(SwitchHostTest, StagedTxKeepsEachPortInVerdictOrder) {
  typename TestFixture::Host host(TestFixture::small_config());
  host.backend().install(test::mixed_verdict_pipeline());
  const std::vector<net::Packet> frames = test::mixed_burst_frames();
  for (const net::Packet& f : frames) ASSERT_TRUE(host.inject(1, f.data(), f.len()));

  EXPECT_EQ(host.poll(), test::kMixedBurstLen);
  for (uint32_t no = 1; no <= 4; ++no) {
    std::vector<int> got;
    net::Packet* out[net::kBurstSize];
    const uint32_t n = host.drain_tx(no, out, net::kBurstSize);
    for (uint32_t i = 0; i < n; ++i) {
      got.push_back(test::frame_index(*out[i], frames));
      host.release(out[i]);
    }
    EXPECT_EQ(got, test::mixed_burst_expected(no)) << "port " << no;
  }

  const auto& c = host.counters();
  EXPECT_EQ(c.tx_packets, 11u);
  EXPECT_EQ(c.flood_copies, 3u);
  EXPECT_EQ(c.drops, 1u);
  EXPECT_EQ(c.packet_ins, 1u);
  EXPECT_EQ(c.bad_port, 1u);
  EXPECT_EQ(c.tx_rejected, 0u);
  // Conservation: the one flood verdict became three copies.
  EXPECT_EQ(c.tx_packets + c.tx_rejected + c.drops + c.packet_ins + c.bad_port,
            uint64_t{test::kMixedBurstLen} - 1 + 3);
  ASSERT_EQ(host.drain_packet_ins().size(), 1u);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

TYPED_TEST(SwitchHostTest, RuntimeFlowModsThroughUnifiedApply) {
  typename TestFixture::Host host(TestFixture::small_config());
  host.backend().install(TestFixture::pipeline());

  // Redirect the HTTP flow 2 -> 4 via the unified apply().
  FlowMod fm;
  fm.table_id = 0;
  fm.priority = 110;
  fm.match.set(FieldId::kInPort, 1);
  fm.match.set(FieldId::kIpDst, test::ip("192.0.2.7"));
  fm.match.set(FieldId::kTcpDst, 80);
  fm.actions = {Action::output(4)};
  host.backend().apply(fm);

  TestFixture::inject_spec(host, TestFixture::http_spec(), 1);
  host.poll();
  EXPECT_EQ(host.drain_and_release_tx(2), 0u);
  EXPECT_EQ(host.drain_and_release_tx(4), 1u);

  // And batch-delete it again.
  FlowMod del = fm;
  del.command = FlowMod::Cmd::kDelete;
  del.actions.clear();
  host.backend().apply_batch({del});
  TestFixture::inject_spec(host, TestFixture::http_spec(), 1);
  host.poll();
  EXPECT_EQ(host.drain_and_release_tx(2), 1u);
}

TEST(SwitchHost, InjectToInvalidPortIsCountedAndLeaksNothing) {
  core::SwitchHost<core::Eswitch> host({.n_ports = 2, .port = {}, .pool_capacity = 4});
  host.backend().install(Pipeline{});
  uint8_t frame[128];
  const uint32_t len = proto::build_packet(test::udp_spec(1, 2, 3, 4), frame, sizeof frame);
  EXPECT_FALSE(host.inject(0, frame, len));
  EXPECT_FALSE(host.inject(3, frame, len));
  EXPECT_EQ(host.counters().bad_port, 2u);
  EXPECT_EQ(host.counters().rx_packets, 0u);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());  // no leaked buffer
}

// A TX ring that fills mid-burst takes an in-order prefix of the port's
// stage; the tail is counted as rejected and its buffers go back to the pool.
TEST(SwitchHost, FullTxRingAcceptsInOrderPrefix) {
  core::SwitchHost<core::Eswitch>::Config cfg;
  cfg.n_ports = 4;
  cfg.port.ring_size = 16;
  cfg.pool_capacity = 64;
  core::SwitchHost<core::Eswitch> host(cfg);
  host.backend().install(test::mixed_verdict_pipeline());

  // Ten fillers leave room for six of the burst's twelve outputs to port 2.
  net::Packet* filler[10];
  ASSERT_EQ(host.pool().alloc_bulk(filler, 10), 10u);
  ASSERT_EQ(host.ports().port(2).tx_burst(filler, 10), 10u);
  std::vector<net::Packet> frames;
  for (uint16_t i = 0; i < 12; ++i) {
    frames.push_back(test::make_packet(test::udp_spec(1, 2, i, 2)));
    ASSERT_TRUE(host.inject(1, frames.back().data(), frames.back().len()));
  }

  EXPECT_EQ(host.poll(), 12u);
  EXPECT_EQ(host.counters().tx_packets, 6u);
  EXPECT_EQ(host.counters().tx_rejected, 6u);
  net::Packet* out[16];
  ASSERT_EQ(host.drain_tx(2, out, 16), 16u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], filler[i]);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(test::frame_index(*out[10 + i], frames), i);
  for (net::Packet* p : out) host.release(p);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

// The rate cap sees a port's whole stage in one tx_burst: at each virtual
// time it admits exactly what one tx_burst(&pkt, 1, now) per packet would.
TEST(SwitchHost, RateCapAdmitsWhatThePerPacketPathDid) {
  core::SwitchHost<core::Eswitch>::Config cfg;
  cfg.n_ports = 2;
  cfg.port.max_tx_pps = 1e6;  // one packet per virtual microsecond
  cfg.pool_capacity = 256;
  core::SwitchHost<core::Eswitch> host(cfg);
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=1, actions=output:2"));
  host.backend().install(pl);
  net::Port reference(cfg.port);  // the per-packet path's bucket, replayed
  net::Packet pkt = test::make_packet(test::udp_spec(1, 2, 3, 4));
  net::Packet* one = &pkt;
  net::Packet* drained[net::kBurstSize];

  uint64_t want = 0;
  for (const uint64_t now_ns : {10'000ull, 10'500ull, 17'300ull, 400'000ull, 400'001ull}) {
    for (uint32_t i = 0; i < net::kBurstSize; ++i) {
      ASSERT_TRUE(host.inject(1, pkt.data(), pkt.len()));
      if (reference.tx_burst(&one, 1, now_ns) == 1) ++want;
      while (reference.drain_tx(drained, net::kBurstSize) > 0) {
      }
    }
    host.poll(now_ns);
    EXPECT_EQ(host.counters().tx_packets, want) << "at " << now_ns << " ns";
    host.drain_and_release_tx(2);
  }
  EXPECT_GT(want, 0u);
  EXPECT_LT(want, 5u * net::kBurstSize);
  EXPECT_EQ(host.counters().tx_packets + host.counters().tx_rejected, 5u * net::kBurstSize);
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

TEST(SwitchHost, PoolExhaustionIsCountedNotFatal) {
  core::SwitchHost<core::Eswitch>::Config cfg;
  cfg.n_ports = 4;
  cfg.pool_capacity = 2;  // flood needs 3 copies: one must fail
  core::SwitchHost<core::Eswitch> host(cfg);
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=1, actions=flood"));
  host.backend().install(pl);

  uint8_t frame[128];
  const uint32_t len = proto::build_packet(test::udp_spec(1, 2, 3, 4), frame, sizeof frame);
  ASSERT_TRUE(host.inject(1, frame, len));
  host.poll();
  EXPECT_GT(host.counters().pool_exhausted, 0u);
  EXPECT_GT(host.counters().flood_copies, 0u);
  host.ports().for_each_except(
      0, [&](uint32_t no, net::Port&) { host.drain_and_release_tx(no); });
  EXPECT_EQ(host.pool().available(), host.pool().capacity());
}

}  // namespace
}  // namespace esw