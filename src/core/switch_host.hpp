// The switch runtime: a port panel plus a Dataplane backend, run the way a
// production switch runs — packets flow rx_burst → process_burst → tx_burst
// and verdicts are *executed*, not returned to the caller.  Execution is per
// burst (core/tx_stage.hpp), one TX enqueue per egress port:
//
//   * kOutput  — staged on the egress port; the burst's stage for each port
//     is sent in one tx_burst, whose ring or rate cap may tail-drop it;
//   * kFlood   — one pool-allocated copy staged on every port except ingress;
//   * kController — the frame is buffered as a PacketInEvent (or handed to a
//     sink, e.g. an OfAgent session that turns it into a PACKET_IN);
//   * kDrop    — counted, buffer recycled.
//
// Buffer ownership is pool-based end to end: inject() allocates from the
// host's MbufPool, verdict execution either passes ownership to a TX ring or
// frees, and whoever drains a TX ring returns the buffers via release().
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/dataplane.hpp"
#include "core/tx_stage.hpp"
#include "netio/mbuf_pool.hpp"
#include "netio/portset.hpp"
#include "proto/parse.hpp"

namespace esw::core {

template <Dataplane Backend>
class SwitchHost {
 public:
  struct Config {
    uint32_t n_ports = 4;
    net::Port::Config port{};
    uint32_t pool_capacity = 4096;
  };

  struct Counters {
    uint64_t rx_packets = 0;      // accepted by inject()
    uint64_t tx_packets = 0;      // accepted by an egress port
    uint64_t flood_copies = 0;    // per-egress-port flood copies transmitted
    uint64_t drops = 0;           // kDrop verdicts
    uint64_t packet_ins = 0;      // kController verdicts
    uint64_t tx_rejected = 0;     // egress ring/rate-cap rejections
    uint64_t rx_rejected = 0;     // inject() lost to a full RX ring
    uint64_t bad_port = 0;        // kOutput/inject to a port that does not exist
    uint64_t pool_exhausted = 0;  // flood/inject copies lost to an empty pool
  };

  using PacketInSink = std::function<void(const PacketInEvent&)>;

  /// Constructs the backend in place from `args` (its config, typically) —
  /// backends own atomics and are deliberately not movable.
  template <typename... Args>
  explicit SwitchHost(const Config& cfg = {}, Args&&... args)
      : backend_(std::forward<Args>(args)...),
        ports_(cfg.n_ports, cfg.port),
        pool_(cfg.pool_capacity) {}

  Backend& backend() { return backend_; }
  const Backend& backend() const { return backend_; }
  net::PortSet& ports() { return ports_; }
  const net::PortSet& ports() const { return ports_; }
  net::MbufPool& pool() { return pool_; }
  const Counters& counters() const { return counters_; }

  /// Copies a frame into a pool buffer and queues it on the port's RX ring
  /// (what a NIC DMA would do).  False when the port does not exist or the
  /// pool or the ring is full.
  bool inject(uint32_t port_no, const uint8_t* frame, uint32_t len) {
    if (!ports_.valid(port_no)) {
      ++counters_.bad_port;
      return false;
    }
    net::Packet* pkt = pool_.alloc();
    if (pkt == nullptr) {
      ++counters_.pool_exhausted;
      return false;
    }
    pkt->assign(frame, len);
    pkt->set_in_port(port_no);
    if (ports_.port(port_no).inject_rx(&pkt, 1) != 1) {
      ++counters_.rx_rejected;
      pool_.free(pkt);
      return false;
    }
    ++counters_.rx_packets;
    return true;
  }

  /// One scheduling round: every port's RX ring is drained in kBurstSize
  /// bursts through the backend and the verdicts are executed.  Returns the
  /// number of packets processed.
  uint32_t poll(uint64_t now_ns = 0) {
    uint32_t processed = 0;
    ports_.for_each_except(0, [&](uint32_t, net::Port& p) {
      net::Packet* burst[net::kBurstSize];
      flow::Verdict verdicts[net::kBurstSize];
      uint32_t n;
      while ((n = p.rx_burst(burst, net::kBurstSize)) > 0) {
        backend_.process_burst(burst, n, verdicts);
        execute(burst, verdicts, n, now_ns);
        processed += n;
      }
    });
    return processed;
  }

  /// Executes a controller-originated PACKET_OUT: the frame runs through the
  /// action list (set-fields and all) and the resulting verdict is executed
  /// as if the datapath had produced it.  False when no buffer is available.
  bool packet_out(const uint8_t* frame, uint32_t len, uint32_t in_port,
                  const flow::ActionList& actions, uint64_t now_ns = 0) {
    net::Packet* pkt = pool_.alloc();
    if (pkt == nullptr) {
      ++counters_.pool_exhausted;
      return false;
    }
    pkt->assign(frame, len);
    pkt->set_in_port(in_port);
    proto::ParseInfo pi;
    proto::parse(pkt->data(), pkt->len(), proto::ParserPlan::full(), pi);
    pi.in_port = in_port;
    flow::ActionSetBuilder as;
    as.merge(actions);
    const flow::Verdict v = as.execute(*pkt, pi);
    execute(&pkt, &v, 1, now_ns);
    return true;
  }

  /// Drains up to `n` transmitted packets from a port.  The caller owns the
  /// buffers and must hand each back via release().
  uint32_t drain_tx(uint32_t port_no, net::Packet** out, uint32_t n) {
    return ports_.port(port_no).drain_tx(out, n);
  }

  /// Returns a drained buffer to the pool.
  void release(net::Packet* pkt) { pool_.free(pkt); }

  /// Drains a port's whole TX ring back into the pool; returns the count
  /// (a sink for benches and soak loops that don't inspect frames).
  uint32_t drain_and_release_tx(uint32_t port_no) {
    net::Packet* out[net::kBurstSize];
    uint32_t total = 0, n;
    while ((n = ports_.port(port_no).drain_tx(out, net::kBurstSize)) > 0) {
      for (uint32_t i = 0; i < n; ++i) pool_.free(out[i]);
      total += n;
    }
    return total;
  }

  /// Routes kController frames to `sink` instead of buffering them, in
  /// verdict order once their burst has executed (pass nullptr to go back to
  /// buffering).
  void set_packet_in_sink(PacketInSink sink) { sink_ = std::move(sink); }

  /// Takes the buffered controller-bound frames.
  std::vector<PacketInEvent> drain_packet_ins() { return std::exchange(pending_, {}); }

 private:
  /// Executes a burst's verdicts (one tx_burst per egress port at `now_ns`,
  /// so the rate cap sees the burst), then hands the controller-bound frames
  /// on — after the TX flush, so a sink may re-enter packet_out().
  void execute(net::Packet* const* pkts, const flow::Verdict* verdicts, uint32_t n,
               uint64_t now_ns) {
    const ExecTally t = tx_.execute(
        ports_, pool_, pkts, verdicts, n, pins_,
        [now_ns](net::Port& p, net::Packet* const* b, uint32_t k) {
          return p.tx_burst(b, k, now_ns);
        });
    counters_.tx_packets += t.tx_packets;
    counters_.flood_copies += t.flood_copies;
    counters_.drops += t.drops;
    counters_.packet_ins += t.packet_ins;
    counters_.tx_rejected += t.tx_rejected;
    counters_.bad_port += t.bad_port;
    counters_.pool_exhausted += t.pool_exhausted;
    if (pins_.empty()) return;
    std::vector<PacketInEvent> pins = std::exchange(pins_, {});
    for (PacketInEvent& ev : pins) {
      if (sink_)
        sink_(ev);
      else
        pending_.push_back(std::move(ev));
    }
  }

  Backend backend_;
  net::PortSet ports_;
  net::MbufPool pool_;
  Counters counters_;
  TxStage tx_;
  std::vector<PacketInEvent> pins_;  // this burst's controller-bound frames
  PacketInSink sink_;
  std::vector<PacketInEvent> pending_;
};

}  // namespace esw::core
