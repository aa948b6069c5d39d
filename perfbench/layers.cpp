// Per-layer timings of the traced run: the benchmark times, from outside,
// the calls it makes into each module's public functions on the workload's
// own frames.  Every timed call sits in a Span; a metric is the span's self
// time per item.  Layers a workload never reaches report 0.
#include "layers.hpp"

#include <algorithm>
#include <cstring>

#include "common/memtrace.hpp"
#include "netio/mbuf_pool.hpp"
#include "netio/port.hpp"
#include "proto/parse.hpp"
#include "state/conntrack.hpp"
#include "usecases/usecases.hpp"

namespace perfbench {
namespace {

constexpr uint32_t kB = net::kBurstSize;
constexpr uint64_t kItems = uint64_t{1} << 20;  // per timed layer
constexpr size_t kSample = 65536;               // pre-parsed frames
constexpr size_t kStride = 128;                 // 64 B frame + over-read slack
constexpr size_t kLineSample = 4096;            // frames for core.lines_per_pkt

/// The first kSample frames, stored compactly and parsed once.
struct Parsed {
  std::vector<uint8_t> bytes;
  std::vector<proto::ParseInfo> pi;
  size_t n = 0;

  Parsed(const Workload& wl, const proto::ParserPlan& plan)
      : n(std::min(kSample, wl.traffic.size())) {
    bytes.assign(n * kStride, 0);
    pi.resize(n);
    net::Packet pkt;
    for (size_t i = 0; i < n; ++i) {
      wl.traffic.load(i, pkt);
      std::memcpy(at(i), pkt.data(), pkt.len());
      proto::parse(at(i), pkt.len(), plan, pi[i]);
      pi[i].in_port = pkt.in_port();
    }
  }
  uint8_t* at(size_t i) { return bytes.data() + i * kStride; }
};

/// Times bare process_burst on pre-loaded bursts after one untimed pass.
void time_walk(const Workload& wl, core::Eswitch& sw, const char* span, Tracer& tr) {
  std::vector<net::Packet> pkts(kB);
  net::Packet* ptrs[kB];
  for (uint32_t j = 0; j < kB; ++j) ptrs[j] = &pkts[j];
  flow::Verdict v[kB];
  size_t cur = 0;
  for (size_t done = 0; done < wl.traffic.size(); done += kB) {
    for (uint32_t j = 0; j < kB; ++j) wl.traffic.load_next(cur, pkts[j]);
    sw.process_burst(ptrs, kB, v);
  }
  for (uint64_t done = 0; done < kItems; done += kB) {
    for (uint32_t j = 0; j < kB; ++j) wl.traffic.load_next(cur, pkts[j]);
    Span s(&tr, span, kB);
    sw.process_burst(ptrs, kB, v);
  }
}

const char* lookup_span(core::TableTemplate t) {
  switch (t) {
    case core::TableTemplate::kCompoundHash:
      return "cls.hash.lookup";
    case core::TableTemplate::kLpm:
      return "cls.lpm.lookup";
    case core::TableTemplate::kCuckooHash:
      return "cls.cuckoo.lookup";
    default:
      return nullptr;
  }
}

}  // namespace

void run_layers(const Workload& wl, core::Eswitch& fused, Tracer& tr, Metrics& m) {
  uint64_t sink = 0;  // keeps timed results observable

  // netio: traffic load, ring round trip, mbuf cache.
  {
    std::vector<net::Packet> pkts(kB);
    net::Packet* ptrs[kB];
    for (uint32_t j = 0; j < kB; ++j) ptrs[j] = &pkts[j];
    size_t cur = 0;
    for (uint64_t done = 0; done < kItems; done += kB) {
      Span s(&tr, "netio.load", kB);
      for (uint32_t j = 0; j < kB; ++j) wl.traffic.load_next(cur, pkts[j]);
    }
    net::Port port;
    net::Packet* rx[kB];
    net::Packet* tx[kB];
    for (uint64_t done = 0; done < kItems; done += kB) {
      Span s(&tr, "netio.ring", kB);
      port.inject_rx(ptrs, kB);
      const uint32_t n = port.rx_burst(rx, kB);
      port.tx_burst_mp(rx, n);
      sink += port.drain_tx(tx, kB);
    }
    net::MbufPool pool(4096);
    net::MbufCache cache(pool, 128);
    for (uint64_t done = 0; done < kItems; done += kB) {
      Span s(&tr, "netio.mbuf", kB);
      for (uint32_t j = 0; j < kB; ++j) rx[j] = cache.alloc();
      for (uint32_t j = 0; j < kB; ++j) cache.free(rx[j]);
    }
    cache.flush();
  }
  put(m, "netio.load_ns", tr.self_ns_per_item("netio.load"), "ns");
  put(m, "netio.ring_ns", tr.self_ns_per_item("netio.ring"), "ns");
  put(m, "netio.mbuf_ns", tr.self_ns_per_item("netio.mbuf"), "ns");

  // proto: the datapath's parser plan over the workload's frames.
  Parsed parsed(wl, fused.datapath().plan());
  {
    const proto::ParserPlan plan = fused.datapath().plan();
    for (uint64_t done = 0; done < kItems; done += kB) {
      Span s(&tr, "proto.parse", kB);
      for (uint32_t j = 0; j < kB; ++j) {
        const size_t i = (done + j) % parsed.n;
        proto::ParseInfo pi;
        proto::parse(parsed.at(i), 64, plan, pi);
        sink += pi.proto_mask;
      }
    }
  }
  put(m, "proto.parse_ns", tr.self_ns_per_item("proto.parse"), "ns");

  // cls: every table visit of the sampled frames, grouped by template.
  {
    struct Visit {
      uint32_t frame;
      const core::CompiledTable* table;
    };
    std::vector<std::pair<const char*, std::vector<Visit>>> by_span;
    for (size_t i = 0; i < parsed.n && i < wl.visits.size(); ++i) {
      for (const int16_t t : wl.visits[i]) {
        if (t < 0) break;
        const auto id = static_cast<uint8_t>(t);
        const char* span = lookup_span(fused.table_template(id));
        if (span == nullptr || fused.is_decomposed(id)) continue;
        auto it = std::find_if(by_span.begin(), by_span.end(),
                               [span](const auto& p) { return p.first == span; });
        if (it == by_span.end()) it = by_span.insert(by_span.end(), {span, {}});
        it->second.push_back({static_cast<uint32_t>(i),
                              fused.datapath().impl(fused.root_slot(id))});
      }
    }
    for (const auto& [span, visits] : by_span) {
      for (uint64_t done = 0; done < kItems; done += kB) {
        Span s(&tr, span, kB);
        for (uint32_t j = 0; j < kB; ++j) {
          const Visit& v = visits[(done + j) % visits.size()];
          sink += v.table->lookup(parsed.at(v.frame), parsed.pi[v.frame]);
        }
      }
    }
  }
  put(m, "cls.hash.lookup_ns", tr.self_ns_per_item("cls.hash.lookup"), "ns");
  put(m, "cls.lpm.lookup_ns", tr.self_ns_per_item("cls.lpm.lookup"), "ns");
  put(m, "cls.cuckoo.lookup_ns", tr.self_ns_per_item("cls.cuckoo.lookup"), "ns");

  // state: conntrack pre/post on the warmed connection table.
  if (state::Conntrack* ct = fused.conntrack()) {
    Parsed full(wl, proto::ParserPlan::full());
    state::Conntrack::Hit hits[kB];
    proto::ParseInfo pis[kB];
    const uint64_t now = ct->now_ms();
    for (uint64_t done = 0; done < kItems; done += kB) {
      {
        Span s(&tr, "state.ct_pre", kB);
        for (uint32_t j = 0; j < kB; ++j) {
          const size_t i = (done + j) % full.n;
          pis[j] = full.pi[i];
          hits[j] = ct->pre(full.at(i), pis[j], now);
        }
      }
      Span s(&tr, "state.ct_post", kB);
      for (uint32_t j = 0; j < kB; ++j) {
        const size_t i = (done + j) % full.n;
        ct->post(hits[j], pis[j].in_port == uc::kCtInsidePort, 0, full.at(i), pis[j], now);
      }
    }
  }
  put(m, "state.ct_pre_ns", tr.self_ns_per_item("state.ct_pre"), "ns");
  put(m, "state.ct_post_ns", tr.self_ns_per_item("state.ct_post"), "ns");

  // core: the fused walk on the runtime's switch, then a staged twin.
  time_walk(wl, fused, "core.walk", tr);
  put(m, "core.walk_ns", tr.self_ns_per_item("core.walk"), "ns");
  {
    core::CompilerConfig cfg = wl.cfg;
    cfg.enable_fusion = false;
    core::Eswitch staged(cfg);
    staged.install(wl.pipeline);
    // Cache lines the scalar walk touches, on a freshly installed switch so
    // the count repeats exactly for a given seed.
    MemTrace mt;
    net::Packet pkt;
    const size_t n = std::min(kLineSample, wl.traffic.size());
    uint64_t lines = 0;
    for (size_t i = 0; i < n; ++i) {
      wl.traffic.load(i, pkt);
      mt.clear();
      staged.process(pkt, &mt);
      lines += mt.lines().size();
    }
    put(m, "core.lines_per_pkt", static_cast<double>(lines) / static_cast<double>(n), "count");
    time_walk(wl, staged, "core.walk_staged", tr);
  }
  put(m, "core.walk_staged_ns", tr.self_ns_per_item("core.walk_staged"), "ns");
  asm volatile("" : : "r"(sink) : "memory");  // keeps the timed results live
}

}  // namespace perfbench
