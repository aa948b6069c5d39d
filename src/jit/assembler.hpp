// Minimal x86-64 assembler for the matcher templates.
//
// Emits exactly the instruction shapes the paper's hand-written templates use
// (§3.1): the prologue mirrors its register convention — r12 = L2 header
// pointer/offset, r13 = L3, r14 = L4, r15 = protocol bitmask — protocol
// presence is tested with `bt`/`jae` for single bits, and match keys/masks are
// immediates folded into the instruction stream.  Jump targets are Labels
// resolved in a final linking pass (§3.3), rel32 throughout.
//
// Generated function signature (SysV AMD64):
//   uint64_t fn(const uint8_t* pkt /*rdi*/, const proto::ParseInfo* pi /*rsi*/);
// returning jit::pack_result / kMissResult.
#pragma once

#include <cstdint>
#include <vector>

#include "jit/ir.hpp"

namespace esw::jit {

class Assembler {
 public:
  using Label = uint32_t;

  Label new_label() {
    labels_.push_back(kUnbound);
    return static_cast<Label>(labels_.size() - 1);
  }
  void bind(Label l);

  // --- template building blocks -----------------------------------------

  /// push r12..r15; load l2/l3/l4 offsets and the protocol bitmask from the
  /// ParseInfo (the paper's PROTOCOL_PARSER / Lx_PARSER register loads).
  void emit_prologue();

  /// Bind-point for all exits: pop r15..r12; ret.
  void emit_epilogue();

  /// Jump to `fail` unless (proto_mask & required) == required.
  /// Single-bit masks compile to the paper's `bt r15d, bit; jae fail`.
  void emit_proto_check(uint32_t required, Label fail);

  /// One matcher template instance: load, xor key, test mask, jnz fail.
  void emit_field_test(const FieldTest& test, Label fail);

  /// mov rax, packed; jmp epilogue.
  void emit_return(uint64_t packed, Label epilogue);

  /// Unconditional jump (used for the final fall-through miss).
  void emit_jmp(Label target);

  // --- whole-pipeline fusion building blocks (jit/fusion.hpp) --------------
  //
  // Fused functions use a wider signature:
  //   uint64_t fn(const uint8_t* pkt /*rdi*/, const proto::ParseInfo* pi /*rsi*/,
  //               uint32_t* trace /*rdx*/);
  // The 8-byte field test clobbers rcx/rdx, so the fused prologue parks the
  // trace cursor in r8 and zeroes the pushed-word count in r10d before the
  // shared register loads.

  /// mov r8, rdx; xor r10d, r10d; then the standard prologue.
  void emit_fused_prologue();

  /// Appends one word (enter marker or action-set id) to the trace array:
  /// mov dword [r8], word; add r8, 4; inc r10d.
  void emit_trace_push(uint32_t word);

  /// Terminates a fused walk: rax = (r10 << 32) | marker_bits | stage,
  /// jmp epilogue.  `marker` is OR-ed in via bts (bit 63 = completed,
  /// bit 62 = miss); stage occupies the low 32 bits.
  void emit_fused_exit(uint8_t marker_bit, uint32_t stage, Label epilogue);

  /// Offset a bound label resolved to (for entry-stub tables). kUnbound if
  /// the label was never bound.
  int32_t label_offset(Label l) const { return labels_[l]; }

  // --- linking -------------------------------------------------------------

  /// Resolves all fixups; returns false if any label stayed unbound.
  bool link();

  const std::vector<uint8_t>& code() const { return code_; }
  size_t size() const { return code_.size(); }

 private:
  static constexpr int32_t kUnbound = -1;

  void u8(uint8_t b) { code_.push_back(b); }
  void u32le(uint32_t v);
  void u64le(uint64_t v);
  void jcc32(uint8_t cc, Label target);  // 0F 8x rel32
  void jmp32(Label target);              // E9 rel32

  std::vector<uint8_t> code_;
  std::vector<int32_t> labels_;  // offset or kUnbound
  struct Fixup {
    size_t at;  // position of the rel32 field
    Label label;
  };
  std::vector<Fixup> fixups_;
};

}  // namespace esw::jit
