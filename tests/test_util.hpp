// Shared helpers for the test suite: quick packet construction and parsing.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "flow/dsl.hpp"
#include "flow/pipeline.hpp"
#include "netio/packet.hpp"
#include "proto/build.hpp"
#include "proto/parse.hpp"

namespace esw::test {

inline net::Packet make_packet(const proto::PacketSpec& spec, uint32_t in_port = 0) {
  net::Packet p;
  const uint32_t len = proto::build_packet(spec, p.data(), net::Packet::kMaxFrame);
  p.set_len(len);
  p.set_in_port(in_port);
  return p;
}

inline proto::PacketSpec udp_spec(uint32_t ip_src, uint32_t ip_dst, uint16_t sport,
                                  uint16_t dport) {
  proto::PacketSpec s;
  s.kind = proto::PacketKind::kUdp;
  s.ip_src = ip_src;
  s.ip_dst = ip_dst;
  s.sport = sport;
  s.dport = dport;
  return s;
}

inline proto::PacketSpec tcp_spec(uint32_t ip_src, uint32_t ip_dst, uint16_t sport,
                                  uint16_t dport) {
  proto::PacketSpec s;
  s.kind = proto::PacketKind::kTcp;
  s.ip_src = ip_src;
  s.ip_dst = ip_dst;
  s.sport = sport;
  s.dport = dport;
  return s;
}

inline proto::ParseInfo parse_packet(const net::Packet& p) {
  proto::ParseInfo pi;
  proto::parse(p.data(), p.len(), proto::ParserPlan::full(), pi);
  pi.in_port = p.in_port();
  return pi;
}

inline uint32_t ip(const char* dotted) { return flow::parse_ipv4(dotted); }

// A mixed burst for verdict-execution tests.  Frame i enters on port 1 with
// udp_src = i; its udp_dst picks the verdict: 2/3/4 output there, 7 floods,
// 8 drops, 9 goes to the controller, 10 outputs to port 200 (missing).  The
// outputs interleave over ports 2-4 around the flood.
inline constexpr uint16_t kMixedBurstDst[] = {2, 3, 4, 7, 2, 8, 3, 9, 4, 10, 2, 3};
inline constexpr uint32_t kMixedBurstLen = sizeof kMixedBurstDst / sizeof kMixedBurstDst[0];

inline flow::Pipeline mixed_verdict_pipeline() {
  flow::Pipeline pl;
  for (const char* rule :
       {"priority=5, udp_dst=2, actions=output:2", "priority=5, udp_dst=3, actions=output:3",
        "priority=5, udp_dst=4, actions=output:4", "priority=5, udp_dst=7, actions=flood",
        "priority=5, udp_dst=8, actions=drop", "priority=5, udp_dst=9, actions=controller",
        "priority=5, udp_dst=10, actions=output:200"})
    pl.table(0).add(flow::parse_rule(rule));
  return pl;
}

inline std::vector<net::Packet> mixed_burst_frames() {
  std::vector<net::Packet> frames;
  for (uint32_t i = 0; i < kMixedBurstLen; ++i)
    frames.push_back(make_packet(udp_spec(1, 2, static_cast<uint16_t>(i), kMixedBurstDst[i]), 1));
  return frames;
}

/// The frame indices port `no` must transmit, in verdict order: its own
/// outputs plus, unless it is the ingress port 1, every flood.
inline std::vector<int> mixed_burst_expected(uint32_t no) {
  std::vector<int> out;
  for (uint32_t i = 0; i < kMixedBurstLen; ++i)
    if (kMixedBurstDst[i] == no || (kMixedBurstDst[i] == 7 && no != 1))
      out.push_back(static_cast<int>(i));
  return out;
}

/// Index of the frame whose bytes `pkt` carries, or -1.
inline int frame_index(const net::Packet& pkt, const std::vector<net::Packet>& frames) {
  for (size_t i = 0; i < frames.size(); ++i)
    if (pkt.len() == frames[i].len() && std::memcmp(pkt.data(), frames[i].data(), pkt.len()) == 0)
      return static_cast<int>(i);
  return -1;
}

}  // namespace esw::test
