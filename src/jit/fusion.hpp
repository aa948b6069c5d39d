// Whole-pipeline fusion: the goto graph's direct-code members compiled into
// ONE function, with inter-table dispatch resolved at compile time.
//
// The per-table JIT (direct_code.hpp) renders a single table; between tables
// the plan walk still runs C++ glue — unpack the packed result, map the goto
// target to a stage, dispatch again.  A FusedProgram inlines that glue: each
// direct-code stage's entry chain is emitted into one code buffer, and a hit
// whose goto targets another fused stage becomes a plain `jmp` to that
// stage's first entry — no packed-result round trip, no stage lookup, no
// indirect call.  The walk leaves a *trace* in a caller array: every hit
// whose entry carries an action set appends that id (sunk into the
// instruction stream as a constant), and every fused dispatch appends an
// enter marker naming the stage it jumps to — from the markers and the exit
// word the caller derives each visited stage's lookup/hit/miss counts.
//
// Fused functions use a wider SysV signature than the per-table templates:
//
//   uint64_t fn(const uint8_t* pkt,            // rdi
//               const proto::ParseInfo* pi,    // rsi
//               uint32_t* trace);              // rdx -> parked in r8
//
// `trace` receives, in walk order, the action-set id of every hit that has
// one and `kFusedEnterTag | stage` for every jump into another member (ids
// never carry the tag bit).  The entry stage gets no marker: the caller
// knows it.  The return value encodes where the walk left the fused
// subgraph:
//
//   bit 63          walk completed (last hit had no goto) — verdict is the
//                   accumulated action set
//   bit 62          table miss at stage = low 32 bits — caller counts the
//                   miss and applies that stage's miss policy
//   neither         external goto: the plan walk continues in C++ at
//                   stage = low 32 bits (a non-direct-code member)
//   bits 32..61     number of words appended to `trace`
//
// Non-direct-code stages (hash / LPM / range / linked-list) are walked by the
// C++ plan walk through their pinned impls; the fused program exposes one
// entry point per member so the walk can re-enter machine code whenever
// control returns to a fused stage.  Everything here is immutable after
// compile — churn publishes a new FusedProgram through the epoch domain
// exactly like a table impl.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "jit/exec_mem.hpp"
#include "jit/ir.hpp"

namespace esw::jit {

/// Exit-word markers (see the file comment for the full encoding).
inline constexpr uint64_t kFusedCompleted = uint64_t{1} << 63;
inline constexpr uint64_t kFusedMiss = uint64_t{1} << 62;

/// Stage index the exit word points at (miss stage or external-goto target).
inline uint32_t fused_exit_stage(uint64_t w) {
  return static_cast<uint32_t>(w & 0xFFFFFFFFu);
}

/// How many words the walk appended to the `trace` array.
inline uint32_t fused_exit_words(uint64_t w) {
  return static_cast<uint32_t>((w >> 32) & 0x3FFFFFFFu);
}

/// Trace-word tag of an enter marker (low bits = stage); untagged words are
/// action-set ids.  A walk appends at most two words per stage it visits.
inline constexpr uint32_t kFusedEnterTag = uint32_t{1} << 31;

/// One compiled function covering every direct-code member of a pipeline.
class FusedProgram {
 public:
  using Fn = uint64_t (*)(const uint8_t* pkt, const proto::ParseInfo* pi,
                          uint32_t* trace);

  /// One fusable stage: its position in the pipeline walk order and its
  /// lowered entry chain (borrowed only for the duration of compile()).
  struct Member {
    uint32_t stage = 0;
    const std::vector<LoweredEntry>* entries = nullptr;
  };

  /// Compiles the members (sorted ascending by stage) into one buffer.
  /// `stage_of_slot[slot]` maps a packed-result goto slot to its stage index
  /// (-1 = unknown); `n_stages` bounds both maps.  Returns nullptr when
  /// executable memory is unavailable, linking fails, or a goto target
  /// cannot be resolved to a forward stage — the caller publishes its plan
  /// without machine code (and may retry per the jit fallback policy).
  static std::shared_ptr<const FusedProgram> compile(
      const std::vector<Member>& members, const std::vector<int32_t>& stage_of_slot,
      uint32_t n_stages);

  /// Entry point for a member stage; nullptr for non-member stages.
  Fn entry(uint32_t stage) const {
    return stage < entries_.size() ? entries_[stage] : nullptr;
  }

  size_t code_size() const { return buf_->code_size(); }
  uint32_t n_members() const { return n_members_; }

 private:
  FusedProgram() = default;

  std::unique_ptr<ExecBuffer> buf_;
  std::vector<Fn> entries_;  // indexed by stage, nullptr = not fused
  uint32_t n_members_ = 0;
};

}  // namespace esw::jit
