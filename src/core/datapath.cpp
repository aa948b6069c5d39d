#include "core/datapath.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/failpoint.hpp"
#include "state/conntrack.hpp"

namespace esw::core {

namespace {

using common::counter_add;   // multi-writer per-slot stats, once per burst
using common::counter_bump;  // single-writer worker stat blocks

/// Global-stat outcome of a verdict.  A controller verdict covers both the
/// miss-policy punt and an explicit controller action; flood counts as
/// output.  Folding the bookkeeping over the verdict keeps every exit path
/// (miss, action set, plan guard) on one counting rule.
void count_verdict(const flow::Verdict& v, CompiledDatapath::Stats& st) {
  switch (v.kind) {
    case flow::Verdict::Kind::kOutput:
    case flow::Verdict::Kind::kFlood:
      ++st.outputs;
      break;
    case flow::Verdict::Kind::kController:
      ++st.to_controller;
      break;
    case flow::Verdict::Kind::kDrop:
      ++st.drops;
      break;
  }
}

}  // namespace

CompiledDatapath::CompiledDatapath()
    : slots_(new Slot[kMaxSlots]), workers_(new Worker[kMaxWorkers + 1]) {
  for (uint32_t i = 0; i <= kMaxWorkers; ++i) workers_[i].id_ = i;
}

// --- control plane -----------------------------------------------------------

int32_t CompiledDatapath::add_slot() {
  int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = n_slots_.load(std::memory_order_relaxed);
    ESW_CHECK_MSG(slot < kMaxSlots, "out of trampoline slots");
    n_slots_.store(slot + 1, std::memory_order_release);
  }
  return slot;
}

std::unique_ptr<CompiledTable> CompiledDatapath::take_live(CompiledTable* old) {
  for (auto it = live_.begin(); it != live_.end(); ++it) {
    if (it->get() == old) {
      std::unique_ptr<CompiledTable> taken = std::move(*it);
      live_.erase(it);
      return taken;
    }
  }
  ESW_CHECK_MSG(false, "retiring an implementation the datapath does not own");
  return nullptr;
}

void CompiledDatapath::retire_impl(CompiledTable* old) {
  retired_impls_.retire(take_live(old), domain_.current_epoch());
}

void CompiledDatapath::set_impl(int32_t slot, std::unique_ptr<CompiledTable> impl) {
  CompiledTable* fresh = impl.get();
  // Templates that retire internal memory (cuckoo) ride this domain from the
  // moment they are published under readers.
  fresh->attach_epoch_domain(&domain_);
  live_.push_back(std::move(impl));
  CompiledTable* old = slots_[slot].impl.exchange(fresh, std::memory_order_acq_rel);
  if (old != nullptr) retire_impl(old);
}

void CompiledDatapath::retire_slot(int32_t slot) {
  // The impl stays live: a chunk still walking the pre-swap plan may reach
  // it and must find the old table (the old-or-new verdict guarantee), and
  // flushes its stats into this slot.  The slot only becomes unreachable for
  // chunks that load a later plan, so pointer, object and slot id are all
  // reclaimed together once the grace period ends (recycle_slot).
  retired_slots_.retire(slot, domain_.current_epoch());
}

void CompiledDatapath::recycle_slot(int32_t slot) {
  // Grace period over: no worker can reach this slot anymore (every burst
  // started after the root swap), so unpublishing, destroying the impl and
  // zeroing the counters cannot race anything.
  CompiledTable* old = slots_[slot].impl.exchange(nullptr, std::memory_order_relaxed);
  if (old != nullptr) take_live(old);  // destroyed here — grace already served
  slots_[slot].lookups.store(0, std::memory_order_relaxed);
  slots_[slot].hits.store(0, std::memory_order_relaxed);
  slots_[slot].misses.store(0, std::memory_order_relaxed);
  free_slots_.push_back(slot);
}

uint64_t CompiledDatapath::reclaim() {
  // Injectable stall: skip this pass as if no grace period had elapsed.
  // Retirements stay pending (bounded growth, audited by the soak's reclaim
  // check) until a later pass runs with the point disarmed.
  if (ESW_FAILPOINT("epoch.reclaim")) return 0;
  size_t internal_pending = 0;
  for (const auto& t : live_) internal_pending += t->retired_pending();
  if (retired_impls_.pending() == 0 && retired_slots_.pending() == 0 &&
      retired_fused_.pending() == 0 && internal_pending == 0)
    return 0;
  const uint64_t horizon = domain_.advance_and_horizon();
  uint64_t n = retired_impls_.reclaim(horizon);
  n += retired_slots_.reclaim_into(horizon,
                                   [this](int32_t slot) { recycle_slot(slot); });
  n += retired_fused_.reclaim(horizon);
  // Drain template-internal retire lists (cuckoo entries/views) on the same
  // horizon.
  for (const auto& t : live_) n += t->epoch_reclaim(horizon);
  return n;
}

void CompiledDatapath::set_fused(std::unique_ptr<FusedPipeline> fused) {
  fused_.store(fused.get(), std::memory_order_release);
  if (fused_live_ != nullptr)
    retired_fused_.retire(std::move(fused_live_), domain_.current_epoch());
  fused_live_ = std::move(fused);
}

void CompiledDatapath::reset() {
  ESW_CHECK_MSG(!domain_.has_workers(),
                "reset()/install() is stop-the-world: unregister workers first");
  const int32_t n = n_slots_.load(std::memory_order_relaxed);
  for (int32_t i = 0; i < n; ++i) {
    slots_[i].impl.store(nullptr, std::memory_order_relaxed);
    slots_[i].lookups.store(0, std::memory_order_relaxed);
    slots_[i].hits.store(0, std::memory_order_relaxed);
    slots_[i].misses.store(0, std::memory_order_relaxed);
  }
  n_slots_.store(0, std::memory_order_release);
  free_slots_.clear();
  live_.clear();
  fused_.store(nullptr, std::memory_order_release);
  fused_live_.reset();
  retired_impls_.clear();   // no workers: immediate free is safe
  retired_slots_.clear();
  retired_fused_.clear();
  clear_stats();
}

// --- worker management -------------------------------------------------------

CompiledDatapath::Worker* CompiledDatapath::register_worker() {
  for (uint32_t i = 1; i <= kMaxWorkers; ++i) {
    Worker& w = workers_[i];
    if (w.in_use_) continue;
    w.epoch_ = domain_.register_worker();
    ESW_CHECK(w.epoch_ != nullptr);
    w.in_use_ = true;
    return &w;
  }
  return nullptr;
}

void CompiledDatapath::unregister_worker(Worker* w) {
  ESW_CHECK(w != nullptr && w->in_use_ && w->epoch_ != nullptr);
  domain_.unregister_worker(w->epoch_);
  w->epoch_ = nullptr;
  w->in_use_ = false;
}

// --- datapath ----------------------------------------------------------------

flow::Verdict CompiledDatapath::process(Worker& w, net::Packet& pkt, MemTrace* trace) {
  net::Packet* const one = &pkt;
  flow::Verdict v;
  if (ESW_UNLIKELY(trace != nullptr))
    process_chunk<1, true>(w, &one, 1, &v, trace);
  else
    process_chunk<1, false>(w, &one, 1, &v, nullptr);
  return v;
}

void CompiledDatapath::process_burst(Worker& w, net::Packet* const* pkts, uint32_t n,
                                     flow::Verdict* out) {
  while (n > net::kBurstSize) {
    process_chunk<net::kBurstSize, false>(w, pkts, net::kBurstSize, out, nullptr);
    pkts += net::kBurstSize;
    out += net::kBurstSize;
    n -= net::kBurstSize;
  }
  if (n > 0) process_chunk<net::kBurstSize, false>(w, pkts, n, out, nullptr);
}

template <uint32_t kCap, bool kTraced>
void CompiledDatapath::process_chunk(Worker& w, net::Packet* const* pkts, uint32_t n,
                                     flow::Verdict* out, MemTrace* mt) {
  ESW_DCHECK(n <= kCap);
  // Chunk entry is the worker's quiescent point: nothing loaded during the
  // previous chunk survives here, so a plan (and the impls it pins) retired
  // before the writer observed this tick can never be loaded again.
  if (w.epoch_ != nullptr) domain_.quiescent(*w.epoch_);

  Stats local;
  local.packets = n;
  // One plan per chunk: the whole chunk runs against that consistent graph
  // (its pinned impls, not the trampolines), so a concurrent republish only
  // lands at the next chunk.
  const FusedPipeline* const fp = fused_.load(std::memory_order_acquire);
  if (ESW_UNLIKELY(fp == nullptr)) {  // empty pipeline: nothing to walk
    local.drops = n;
    for (uint32_t i = 0; i < n; ++i) out[i] = flow::Verdict::drop();
    counter_bump(w.stats_.packets, local.packets);
    counter_bump(w.stats_.drops, local.drops);
    return;
  }
  const uint32_t n_stages = static_cast<uint32_t>(fp->stages.size());
  ESW_DCHECK(n_stages > 0);

  // Conntrack maintenance rides the chunk boundary: this is a quiescent
  // point, so no Hit pointer from a previous chunk can survive into the
  // expiry/reclaim work poll() does.
  state::Conntrack* const ct = ct_.load(std::memory_order_acquire);
  state::Conntrack::Hit ct_hits[kCap];
  uint64_t ct_now = 0;
  if (ESW_UNLIKELY(ct != nullptr)) {
    ct_now = ct->now_ms();
    ct->poll(ct_now);
  }

  // Parse the whole chunk, the next frame's header line in flight while the
  // current one parses.
  const proto::ParserPlan plan = plan_.load(std::memory_order_acquire);
  proto::ParseInfo pis[kCap];
  const uint8_t* frames[kCap];
  for (uint32_t i = 0; i < n; ++i) {
    if (i + 1 < n) esw_prefetch(pkts[i + 1]->data());
    frames[i] = pkts[i]->data();
    proto::parse(frames[i], pkts[i]->len(), plan, pis[i]);
    pis[i].in_port = pkts[i]->in_port();
    if constexpr (kTraced) mt->touch(frames[i], 64);  // header cache line(s)
  }

  // Per-stage stat deltas.  Every entry is zero between chunks; a stage's
  // first lookup in this chunk records it as touched, and only touched
  // stages are flushed and re-zeroed below — stat work follows the hops
  // walked, not the plan's size.  A machine walk appends at most two trace
  // words per stage it visits (jit/fusion.hpp).
  if (w.stage_delta_.size() < n_stages) w.stage_delta_.resize(n_stages);
  if (w.stage_touched_.capacity() < n_stages) w.stage_touched_.reserve(n_stages);
  if (w.fused_trace_.size() < 2 * n_stages) w.fused_trace_.resize(2 * n_stages);
  TableStats* const delta = w.stage_delta_.data();
  uint32_t* const trace = w.fused_trace_.data();
  const auto lookup_at = [&w, delta](uint32_t stage) -> TableStats& {
    TableStats& d = delta[stage];
    if (d.lookups++ == 0) w.stage_touched_.push_back(stage);
    return d;
  };

  // Walk state: cur >= 0 is the packet's stage; -1 = path end reached
  // (finalized in packet order below); -2 = verdict already in vd.
  flow::ActionSetBuilder asb[kCap];
  int32_t cur[kCap];
  flow::Verdict vd[kCap];
  std::fill_n(cur, n, 0);  // every walk starts at stage 0, the first table
  const FusedPipeline::Stage& ss = fp->stages[0];

  // The chunk runs as one segment [lo, hi) unless the conntrack pre-stage
  // ends a prefix early: a packet whose connection an earlier packet's
  // post-stage may commit waits for that commit, as it would if the packets
  // ran one at a time.
  for (uint32_t lo = 0, hi = 0; lo < n; lo = hi) {
    // The conntrack pre-stage — ct_state must be stamped before any lookup can
    // match it — over the segment at once, so its connection lookups take
    // their cache misses together.
    hi = ESW_UNLIKELY(ct != nullptr)
             ? lo + ct->pre_burst(frames + lo, pis + lo, n - lo, ct_now, ct_hits + lo)
             : n;
    uint32_t live = hi - lo;

    // Round 0 runs the start stage with packet i+1's lookup lines in flight
    // (software pipelining within the segment).
    if (ss.want_prefetch) ss.impl->prefetch(pkts[lo]->data(), pis[lo]);

    // Round-based walk: every live packet advances at least one stage per
    // round (transitions must go forward), so n_stages rounds finish every
    // packet; anything still live after the clamp is dropped.
    for (uint32_t round = 0; round <= n_stages && live > 0; ++round) {
      for (uint32_t i = lo; i < hi; ++i) {
        const int32_t cs = cur[i];
        if (cs < 0) continue;
        if (round == 0 && i + 1 < hi && ss.want_prefetch)
          ss.impl->prefetch(pkts[i + 1]->data(), pis[i + 1]);
        net::Packet& pkt = *pkts[i];
        proto::ParseInfo& pi = pis[i];
        const FusedPipeline::Stage& s = fp->stages[cs];
        int32_t ts;  // next stage
        // A traced walk takes every stage through its C++ lookup: machine
        // code reports no memory accesses.
        if (!kTraced && s.entry != nullptr) {
          // Machine subgraph: runs fused members until the walk completes,
          // misses, or exits toward a C++ stage.  The trace lists the action
          // sets hit and the stages entered after this one, in walk order:
          // every stage but the last one entered was a hit.
          const uint64_t word = s.entry(pkt.data(), &pi, trace);
          TableStats* d = &lookup_at(static_cast<uint32_t>(cs));
          const uint32_t nw = jit::fused_exit_words(word);
          for (uint32_t k = 0; k < nw; ++k) {
            if (trace[k] & jit::kFusedEnterTag) {
              ++d->hits;
              d = &lookup_at(trace[k] & ~jit::kFusedEnterTag);
            } else {
              asb[i].merge(actions_.get(trace[k]));
            }
          }
          if (word & jit::kFusedMiss) {
            ++d->misses;
            vd[i] = fp->stages[jit::fused_exit_stage(word)].miss ==
                            flow::FlowTable::MissPolicy::kController
                        ? flow::Verdict::controller()
                        : flow::Verdict::drop();
            cur[i] = -2;
            --live;
            continue;
          }
          ++d->hits;
          if (word & jit::kFusedCompleted) {
            cur[i] = -1;
            --live;
            continue;
          }
          ts = static_cast<int32_t>(jit::fused_exit_stage(word));
        } else {
          // C++ stage: pinned impl, packed-result decode.
          TableStats& d = lookup_at(static_cast<uint32_t>(cs));
          const uint64_t r = s.impl->lookup(pkt.data(), pi, kTraced ? mt : nullptr);
          if (ESW_UNLIKELY(r == jit::kMissResult)) {
            ++d.misses;
            vd[i] = s.miss == flow::FlowTable::MissPolicy::kController
                        ? flow::Verdict::controller()
                        : flow::Verdict::drop();
            cur[i] = -2;
            --live;
            continue;
          }
          ++d.hits;
          int32_t action = -1, next = -1;
          jit::unpack_result(r, action, next);
          if (action >= 0) asb[i].merge(actions_.get(static_cast<uint32_t>(action)));
          if (next < 0) {
            cur[i] = -1;
            --live;
            continue;
          }
          ts = static_cast<size_t>(next) < fp->stage_of_slot.size()
                   ? fp->stage_of_slot[next]
                   : -1;
        }
        if (ESW_UNLIKELY(ts <= cs || static_cast<uint32_t>(ts) >= n_stages)) {
          vd[i] = flow::Verdict::drop();  // unresolvable/backward: guard drop
          cur[i] = -2;
          --live;
          continue;
        }
        // Transition: issue the next stage's lookup prefetch now, consume it
        // next round — the cross-table extension of the one-ahead pipelining.
        const FusedPipeline::Stage& nx = fp->stages[ts];
        if (nx.want_prefetch) nx.impl->prefetch(pkt.data(), pi);
        cur[i] = ts;
      }
    }

    // Finalize in packet order: conntrack post-stage + action execution for
    // completed packets — the same ordering and side effects as n bursts of
    // one, which finish packet i before touching packet i+1.
    for (uint32_t i = lo; i < hi; ++i) {
      flow::Verdict v = flow::Verdict::drop();
      if (cur[i] == -1) {
        if (ESW_UNLIKELY(ct != nullptr))
          ct->post(ct_hits[i], asb[i].ct_commit(), asb[i].ct_profile(),
                   pkts[i]->data(), pis[i], ct_now);
        v = asb[i].execute(*pkts[i], pis[i]);
      } else if (cur[i] == -2) {
        v = vd[i];
      }
      count_verdict(v, local);
      out[i] = v;
    }
  }

  // Flush the touched stages' deltas into their slots' shared counters.
  for (const uint32_t st : w.stage_touched_) {
    TableStats& d = delta[st];
    Slot& s = slots_[fp->stages[st].slot];
    counter_add(s.lookups, d.lookups);
    if (d.hits != 0) counter_add(s.hits, d.hits);
    if (d.misses != 0) counter_add(s.misses, d.misses);
    d = TableStats{};
  }
  w.stage_touched_.clear();
  counter_bump(w.stats_.packets, local.packets);
  counter_bump(w.stats_.outputs, local.outputs);
  counter_bump(w.stats_.drops, local.drops);
  counter_bump(w.stats_.to_controller, local.to_controller);
}

// --- introspection -----------------------------------------------------------

CompiledDatapath::TableStats CompiledDatapath::table_stats(int32_t slot) const {
  const Slot& s = slots_[slot];
  return {s.lookups.load(std::memory_order_relaxed),
          s.hits.load(std::memory_order_relaxed),
          s.misses.load(std::memory_order_relaxed)};
}

CompiledDatapath::Stats CompiledDatapath::stats() const {
  Stats out;
  for (uint32_t i = 0; i <= kMaxWorkers; ++i) {
    const Worker::StatBlock& b = workers_[i].stats_;
    out.packets += b.packets.load(std::memory_order_relaxed);
    out.outputs += b.outputs.load(std::memory_order_relaxed);
    out.drops += b.drops.load(std::memory_order_relaxed);
    out.to_controller += b.to_controller.load(std::memory_order_relaxed);
  }
  return out;
}

void CompiledDatapath::clear_stats() {
  for (uint32_t i = 0; i <= kMaxWorkers; ++i) {
    Worker::StatBlock& b = workers_[i].stats_;
    b.packets.store(0, std::memory_order_relaxed);
    b.outputs.store(0, std::memory_order_relaxed);
    b.drops.store(0, std::memory_order_relaxed);
    b.to_controller.store(0, std::memory_order_relaxed);
  }
  const int32_t n = n_slots_.load(std::memory_order_relaxed);
  for (int32_t i = 0; i < n; ++i) {
    slots_[i].lookups.store(0, std::memory_order_relaxed);
    slots_[i].hits.store(0, std::memory_order_relaxed);
    slots_[i].misses.store(0, std::memory_order_relaxed);
  }
}

CompiledDatapath::ReclaimStats CompiledDatapath::reclaim_stats() const {
  return {retired_impls_.retired_total() + retired_slots_.retired_total() +
              retired_fused_.retired_total(),
          retired_impls_.reclaimed_total() + retired_slots_.reclaimed_total() +
              retired_fused_.reclaimed_total(),
          retired_impls_.pending() + retired_slots_.pending() +
              retired_fused_.pending()};
}

size_t CompiledDatapath::memory_bytes() const {
  size_t n = 0;
  for (const auto& t : live_) n += t->memory_bytes();
  return n;
}

}  // namespace esw::core
