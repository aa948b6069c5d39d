// Workload inputs and their reference outcomes.
//
// Pipelines and traffic come from the src/usecases generators, seeded from
// --seed; frames are padded to 64 B (the paper's frame size) so the last 8
// bytes are payload the latency phase can stamp.
//
// Reference outcomes come from flow::Pipeline::process, the spec-walking
// interpreter.  Its tables are scanned linearly, which over 100K-entry
// tables and 500K frames would take minutes, so for each large table the
// benchmark keeps an index on the one field every non-catch-all entry
// constrains and hands the interpreter only the entries that can match the
// frame: the entries whose (value, mask) admits the frame's field value, plus
// the catch-alls.  The interpreter then decides among them by strict
// priority.  Action sets run at the end of the walk, so every table matches
// the unmodified frame and the candidate filter is exact.
//
// ct_fw's verdicts depend on connection state, so its reference is a JIT-off
// Eswitch (scalar walk) run over the traffic once to warm the connection
// table; the second pass gives the steady outcomes, a third must repeat them.
#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "common/bits.hpp"
#include "flow/fields.hpp"
#include "proto/build.hpp"
#include "proto/parse.hpp"
#include "usecases/usecases.hpp"

namespace perfbench {
namespace {

constexpr uint32_t kFrameLen = 64;
constexpr size_t kSmallTable = 64;  // scanned whole by the interpreter

uint64_t derive(uint64_t seed, uint64_t stream) { return mix64(seed * 0x9E37 + stream); }

/// Pads every frame to 64 B and maps the unused ingress port 0 to port 1.
std::vector<net::FlowSpec> to_64b(std::vector<net::FlowSpec> flows) {
  uint8_t buf[256];
  for (net::FlowSpec& fs : flows) {
    if (fs.in_port == 0) fs.in_port = 1;
    proto::PacketSpec bare = fs.pkt;
    bare.payload_len = 0;
    const uint32_t hdr = proto::build_packet(bare, buf, sizeof(buf));
    if (hdr == 0 || hdr + 8 > kFrameLen)
      throw std::runtime_error("frame headers leave no room for the 8-byte stamp");
    fs.pkt.payload_len = static_cast<uint16_t>(kFrameLen - hdr);
  }
  return flows;
}

Expect expect_of(const flow::Verdict& v) {
  return {v.kind, v.kind == flow::Verdict::Kind::kOutput ? v.port : 0};
}

/// Candidate index over one table's entries (see the file comment).
struct TableIndex {
  uint8_t table = 0;
  flow::FieldId field = flow::FieldId::kCount;
  std::vector<std::pair<uint64_t, std::unordered_map<uint64_t, std::vector<uint32_t>>>>
      by_mask;
  std::vector<uint32_t> always;  // catch-all entries

  static std::optional<TableIndex> build(const flow::FlowTable& t) {
    const auto& es = t.entries();
    std::optional<flow::FieldId> field;
    for (unsigned f = 0; f < static_cast<unsigned>(flow::FieldId::kCount) && !field; ++f) {
      const auto id = static_cast<flow::FieldId>(f);
      bool all = true, any = false;
      for (const flow::FlowEntry& e : es) {
        if (e.match.is_catch_all()) continue;
        any = true;
        all = all && e.match.has(id);
      }
      if (any && all) field = id;
    }
    if (!field) return std::nullopt;
    TableIndex ix;
    ix.table = t.id();
    ix.field = *field;
    for (uint32_t i = 0; i < es.size(); ++i) {
      const flow::Match& m = es[i].match;
      if (m.is_catch_all()) {
        ix.always.push_back(i);
        continue;
      }
      const uint64_t mask = m.mask(ix.field);
      auto it = std::find_if(ix.by_mask.begin(), ix.by_mask.end(),
                             [mask](const auto& p) { return p.first == mask; });
      if (it == ix.by_mask.end()) {
        ix.by_mask.emplace_back(mask, std::unordered_map<uint64_t, std::vector<uint32_t>>{});
        it = std::prev(ix.by_mask.end());
      }
      it->second[m.value(ix.field) & mask].push_back(i);
    }
    return ix;
  }

  /// Entry indexes (ascending) that can match the parsed frame.
  void candidates(const uint8_t* pkt, const proto::ParseInfo& pi,
                  std::vector<uint32_t>& out) const {
    out.assign(always.begin(), always.end());
    if (flow::field_present(field, pi)) {
      const uint64_t v = flow::extract_field(field, pkt, pi);
      for (const auto& [mask, map] : by_mask) {
        const auto it = map.find(v & mask);
        if (it != map.end()) out.insert(out.end(), it->second.begin(), it->second.end());
      }
    }
    std::sort(out.begin(), out.end());
  }
};

void reference_stateless(Workload& wl) {
  flow::Pipeline scratch = wl.pipeline;
  std::vector<TableIndex> index;
  for (const flow::FlowTable& t : wl.pipeline.tables()) {
    if (t.size() <= kSmallTable) continue;
    if (auto ix = TableIndex::build(t)) {
      scratch.table(t.id()).replace_all({});
      index.push_back(std::move(*ix));
    }
  }
  const size_t n = wl.traffic.size();
  wl.first.resize(n);
  wl.visits.resize(n);
  net::Packet pkt;
  std::vector<uint32_t> cand;
  std::vector<flow::TraceStep> steps;
  for (size_t i = 0; i < n; ++i) {
    wl.traffic.load(i, pkt);
    proto::ParseInfo pi;
    proto::parse(pkt.data(), pkt.len(), proto::ParserPlan::full(), pi);
    pi.in_port = pkt.in_port();
    for (const TableIndex& ix : index) {
      ix.candidates(pkt.data(), pi, cand);
      const auto& all = wl.pipeline.find_table(ix.table)->entries();
      std::vector<flow::FlowEntry> es;
      es.reserve(cand.size());
      for (const uint32_t c : cand) es.push_back(all[c]);
      scratch.table(ix.table).replace_all(std::move(es));
    }
    steps.clear();
    wl.first[i] = expect_of(scratch.process(pkt, pi, &steps));
    Visits v;
    v.fill(-1);
    for (size_t s = 0; s < steps.size() && s < v.size(); ++s) v[s] = steps[s].table_id;
    wl.visits[i] = v;
  }
  wl.steady = wl.first;
}

void reference_stateful(Workload& wl) {
  core::CompilerConfig cfg = wl.cfg;
  cfg.enable_jit = false;
  core::Eswitch sw(cfg);
  sw.install(wl.pipeline);
  const size_t n = wl.traffic.size();
  net::Packet pkt;
  auto pass = [&](std::vector<Expect>& out) {
    out.resize(n);
    for (size_t i = 0; i < n; ++i) {
      wl.traffic.load(i, pkt);
      out[i] = expect_of(sw.process(pkt));
    }
  };
  pass(wl.first);
  pass(wl.steady);
  std::vector<Expect> again;
  pass(again);
  if (again != wl.steady)
    throw std::runtime_error("stateful reference does not settle after one pass");
}

uint32_t max_port(const Workload& wl) {
  uint32_t m = 1;
  for (size_t i = 0; i < wl.traffic.size(); ++i) {
    net::Packet pkt;
    wl.traffic.load(i, pkt);
    m = std::max(m, pkt.in_port());
  }
  for (const flow::FlowTable& t : wl.pipeline.tables())
    for (const flow::FlowEntry& e : t.entries())
      for (const flow::Action& a : e.actions)
        if (a.type == flow::ActionType::kOutput) m = std::max(m, static_cast<uint32_t>(a.value));
  return m;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"gateway", "l3_rib", "l2_churn", "ct_fw"};
  return names;
}

Workload make_workload(const std::string& name, uint64_t seed) {
  Workload wl;
  wl.name = name;
  const uint64_t pl_seed = derive(seed, 1), tr_seed = derive(seed, 2);
  std::vector<net::FlowSpec> flows;
  if (name == "gateway") {
    uc::UseCase u = uc::make_gateway(10, 20, 10000, pl_seed);
    wl.pipeline = std::move(u.pipeline);
    flows = u.traffic(100000, tr_seed);
  } else if (name == "l3_rib") {
    uc::UseCase u = uc::make_l3(100000, pl_seed);
    wl.pipeline = std::move(u.pipeline);
    flows = u.traffic(500000, tr_seed);
  } else if (name == "l2_churn") {
    uc::UseCase u = uc::make_l2(65536, pl_seed);
    wl.pipeline = std::move(u.pipeline);
    flows = u.traffic(100000, tr_seed);
    wl.churn = true;
  } else if (name == "ct_fw") {
    uc::CtUseCase u = uc::make_ct_firewall(1u << 18, pl_seed);
    wl.pipeline = std::move(u.pipeline);
    wl.cfg.ct = u.ct;
    flows = u.traffic(100000, tr_seed);
    wl.stateful = true;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  wl.traffic = net::TrafficSet::from_flows(to_64b(std::move(flows)));
  for (size_t i = 0; i < wl.traffic.size(); ++i)
    if (wl.traffic.frame_len(i) != kFrameLen) throw std::runtime_error("frame is not 64 B");
  wl.n_ports = max_port(wl);
  if (wl.stateful)
    reference_stateful(wl);
  else
    reference_stateless(wl);
  // The conservation checks count one TX per output frame; flood copies are
  // not modelled, and no workload floods.
  for (const auto* ref : {&wl.first, &wl.steady})
    for (const Expect& e : *ref)
      if (e.kind == flow::Verdict::Kind::kFlood)
        throw std::runtime_error("reference floods a frame; the checks do not model floods");
  return wl;
}

}  // namespace perfbench
