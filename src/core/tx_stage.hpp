// Burst-native verdict execution: the one rule both switch runtimes
// (`SwitchHost`, `SwitchRuntime`) use to turn a burst's verdicts into TX.
//
// A burst is executed in two passes:
//
//   1. stage, in verdict order — kOutput parks the buffer in its egress
//      port's lane; kFlood parks one pool copy in every lane except the
//      ingress port's and frees the original; kDrop, kController and an
//      output to a port that does not exist free the buffer at once (a
//      controller-bound frame is copied out first);
//   2. flush — one TX enqueue per touched port.  The port accepts an
//      in-order prefix; the tail goes back to the buffer source in one bulk
//      free and counts as tx_rejected.
//
// A packet adds at most one buffer to any one lane, so kBurstSize slots per
// lane always suffice, and each port's TX order is the verdict order.  The
// burst's counts come back as one ExecTally, so callers touch their shared
// counters once per burst instead of once per packet.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "flow/actions.hpp"
#include "netio/portset.hpp"

namespace esw::core {

/// A controller-bound frame (the runtime-level precursor of a PACKET_IN).
/// The datapath does not distinguish an explicit controller action from a
/// kController table-miss policy, so no reason travels here; the agent layer
/// defaults to "no match", the reactive case.
struct PacketInEvent {
  std::vector<uint8_t> frame;
  uint32_t in_port = 0;
};

/// One burst's verdict-execution counts.
struct ExecTally {
  uint64_t tx_packets = 0;      // accepted by an egress port (flood copies too)
  uint64_t tx_rejected = 0;     // refused by an egress ring or rate cap
  uint64_t flood_copies = 0;    // flood copies accepted by an egress port
  uint64_t drops = 0;           // kDrop verdicts
  uint64_t packet_ins = 0;      // kController verdicts
  uint64_t bad_port = 0;        // kOutput to a port that does not exist
  uint64_t pool_exhausted = 0;  // flood copies lost to an empty pool
};

/// Per-worker staging state.  Not thread-safe: one worker (or the host's
/// polling thread) owns each instance.
class TxStage {
 public:
  /// Executes one burst (`n` <= kBurstSize) of verdicts for `pkts`, taking
  /// ownership of every buffer.  `bufs` is the buffer source flood copies
  /// come from and freed buffers go back to (an MbufPool or a worker's
  /// MbufCache).  `send(port, pkts, k)`
  /// enqueues on one port and returns how many it accepted, a prefix.
  /// Controller-bound frames are appended to `pins` in verdict order.
  template <typename Buffers, typename SendFn>
  ExecTally execute(net::PortSet& ports, Buffers& bufs, net::Packet* const* pkts,
                    const flow::Verdict* verdicts, uint32_t n,
                    std::vector<PacketInEvent>& pins, SendFn&& send) {
    ESW_CHECK_MSG(n <= net::kBurstSize, "one burst at a time");
    if (ESW_UNLIKELY(lanes_.size() != ports.size())) {
      lanes_.resize(ports.size());
      touched_.reserve(ports.size());
    }
    ExecTally t;
    for (uint32_t i = 0; i < n; ++i) {
      net::Packet* pkt = pkts[i];
      const flow::Verdict& v = verdicts[i];
      switch (v.kind) {
        case flow::Verdict::Kind::kOutput:
          if (ports.valid(v.port)) {
            stage(v.port, pkt, false);
          } else {
            ++t.bad_port;
            bufs.free(pkt);
          }
          break;
        case flow::Verdict::Kind::kFlood: {
          const uint32_t ingress = pkt->in_port();
          for (uint32_t no = net::PortSet::kFirstPort;
               no < net::PortSet::kFirstPort + ports.size(); ++no) {
            if (no == ingress) continue;
            net::Packet* copy = bufs.alloc();
            if (copy == nullptr) {
              ++t.pool_exhausted;
              continue;
            }
            copy->assign(pkt->data(), pkt->len());
            copy->set_in_port(ingress);
            stage(no, copy, true);
          }
          bufs.free(pkt);
          break;
        }
        case flow::Verdict::Kind::kController:
          ++t.packet_ins;
          pins.push_back({{pkt->data(), pkt->data() + pkt->len()}, pkt->in_port()});
          bufs.free(pkt);
          break;
        case flow::Verdict::Kind::kDrop:
          ++t.drops;
          bufs.free(pkt);
          break;
      }
    }
    flush(ports, bufs, t, send);
    return t;
  }

 private:
  static_assert(net::kBurstSize <= 32, "Lane::flood_mask holds one bit per slot");

  struct Lane {
    net::Packet* pkts[net::kBurstSize];
    uint32_t n = 0;
    uint32_t flood_mask = 0;  // bit i set: pkts[i] is a flood copy
  };

  void stage(uint32_t port_no, net::Packet* pkt, bool flood_copy) {
    Lane& l = lanes_[port_no - net::PortSet::kFirstPort];
    ESW_DCHECK(l.n < net::kBurstSize);
    if (l.n == 0) touched_.push_back(port_no);
    if (flood_copy) l.flood_mask |= 1u << l.n;
    l.pkts[l.n++] = pkt;
  }

  template <typename Buffers, typename SendFn>
  void flush(net::PortSet& ports, Buffers& bufs, ExecTally& t, SendFn&& send) {
    for (const uint32_t no : touched_) {
      Lane& l = lanes_[no - net::PortSet::kFirstPort];
      const uint32_t acc = send(ports.port(no), l.pkts, l.n);
      const uint32_t accepted_mask = acc >= 32 ? ~0u : (1u << acc) - 1;
      t.tx_packets += acc;
      t.flood_copies += static_cast<uint64_t>(std::popcount(l.flood_mask & accepted_mask));
      if (acc < l.n) {
        t.tx_rejected += l.n - acc;
        bufs.free_bulk(l.pkts + acc, l.n - acc);
      }
      l.n = 0;
      l.flood_mask = 0;
    }
    touched_.clear();
  }

  std::vector<Lane> lanes_;       // indexed by port number - kFirstPort
  std::vector<uint32_t> touched_;  // ports with a non-empty lane, first-touch order
};

}  // namespace esw::core
