#include "trace.hpp"

#include <cstring>

namespace perfbench {

using esw::perf::Json;

void Tracer::begin(const char* name) {
  int32_t rec = -1;
  const int64_t t = now_ns();
  if (recs_.size() < kKeep) {
    const int32_t parent = open_.empty() ? -1 : open_.back().rec;
    rec = static_cast<int32_t>(recs_.size());
    recs_.push_back({name, t, t, parent});
  } else {
    ++dropped_;
  }
  open_.push_back({name, t, 0.0, rec});
}

void Tracer::end(uint64_t items) {
  const int64_t t = now_ns();
  const Open o = open_.back();
  open_.pop_back();
  const double dur = static_cast<double>(t - o.start);
  if (o.rec >= 0) recs_[static_cast<size_t>(o.rec)].end = t;
  Stat& s = stat_of(o.name);
  ++s.calls;
  s.items += items;
  s.total_ns += dur;
  s.self_ns += dur - o.child_ns;
  if (!open_.empty()) open_.back().child_ns += dur;
}

Tracer::Stat& Tracer::stat_of(const char* name) {
  for (auto& [n, s] : stats_)
    if (n == name || std::strcmp(n, name) == 0) return s;
  stats_.emplace_back(name, Stat{});
  return stats_.back().second;
}

Tracer::Stat Tracer::stat(const char* name) const {
  for (const auto& [n, s] : stats_)
    if (std::strcmp(n, name) == 0) return s;
  return {};
}

double Tracer::self_ns_per_item(const char* name) const {
  const Stat s = stat(name);
  return s.items == 0 ? 0.0 : s.self_ns / static_cast<double>(s.items);
}

Json Tracer::to_json(int64_t t0) const {
  Json doc = Json::object();
  doc.set("thread", Json::string(thread_));
  doc.set("dropped", Json::number(static_cast<double>(dropped_)));
  Json spans = Json::array();
  for (const Rec& r : recs_) {
    Json s = Json::array();
    s.push_back(Json::string(r.name));
    s.push_back(Json::number(static_cast<double>(r.start - t0)));
    s.push_back(Json::number(static_cast<double>(r.end - t0)));
    s.push_back(Json::number(r.parent));
    spans.push_back(std::move(s));
  }
  doc.set("spans", std::move(spans));
  Json self = Json::object();
  for (const auto& [n, s] : stats_) {
    Json e = Json::object();
    e.set("calls", Json::number(static_cast<double>(s.calls)));
    e.set("items", Json::number(static_cast<double>(s.items)));
    e.set("total_ns", Json::number(s.total_ns));
    e.set("self_ns", Json::number(s.self_ns));
    self.set(n, std::move(e));
  }
  doc.set("self", std::move(self));
  return doc;
}

}  // namespace perfbench
