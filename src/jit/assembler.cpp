#include "jit/assembler.hpp"

#include "common/check.hpp"

namespace esw::jit {

namespace {
// SIB index encodings for the layer-offset registers (all need REX.X).
uint8_t index_bits(LoadBase base) {
  switch (base) {
    case LoadBase::kL2:
      return 0b100;  // r12
    case LoadBase::kL3:
      return 0b101;  // r13
    case LoadBase::kL4:
      return 0b110;  // r14
    default:
      return 0;
  }
}
}  // namespace

void Assembler::u32le(uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<uint8_t>(v >> (8 * i)));
}

void Assembler::u64le(uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<uint8_t>(v >> (8 * i)));
}

void Assembler::bind(Label l) {
  ESW_CHECK(labels_[l] == kUnbound);
  labels_[l] = static_cast<int32_t>(code_.size());
}

void Assembler::jcc32(uint8_t cc, Label target) {
  u8(0x0F);
  u8(cc);
  fixups_.push_back({code_.size(), target});
  u32le(0);
}

void Assembler::jmp32(Label target) {
  u8(0xE9);
  fixups_.push_back({code_.size(), target});
  u32le(0);
}

void Assembler::emit_prologue() {
  // push r12; push r13; push r14; push r15
  u8(0x41); u8(0x54);
  u8(0x41); u8(0x55);
  u8(0x41); u8(0x56);
  u8(0x41); u8(0x57);
  // L2_PARSER: movzx r12d, word [rsi+4]
  u8(0x44); u8(0x0F); u8(0xB7); u8(0x66); u8(0x04);
  // L3_PARSER: movzx r13d, word [rsi+6]
  u8(0x44); u8(0x0F); u8(0xB7); u8(0x6E); u8(0x06);
  // L4_PARSER: movzx r14d, word [rsi+8]
  u8(0x44); u8(0x0F); u8(0xB7); u8(0x76); u8(0x08);
  // PROTOCOL_PARSER bitmask: mov r15d, [rsi]
  u8(0x44); u8(0x8B); u8(0x3E);
}

void Assembler::emit_epilogue() {
  // pop r15; pop r14; pop r13; pop r12; ret
  u8(0x41); u8(0x5F);
  u8(0x41); u8(0x5E);
  u8(0x41); u8(0x5D);
  u8(0x41); u8(0x5C);
  u8(0xC3);
}

void Assembler::emit_proto_check(uint32_t required, Label fail) {
  if (required == 0) return;
  if ((required & (required - 1)) == 0) {
    // Single protocol bit — the paper's "bt r15d, BIT; jae NEXT_FLOW".
    const uint8_t bit = static_cast<uint8_t>(__builtin_ctz(required));
    u8(0x41); u8(0x0F); u8(0xBA); u8(0xE7); u8(bit);  // bt r15d, imm8
    jcc32(0x83, fail);                                 // jae (CF == 0)
    return;
  }
  // mov eax, r15d; and eax, req; cmp eax, req; jne fail
  u8(0x44); u8(0x89); u8(0xF8);
  u8(0x25); u32le(required);
  u8(0x3D); u32le(required);
  jcc32(0x85, fail);
}

void Assembler::emit_field_test(const FieldTest& t, Label fail) {
  const uint8_t disp = static_cast<uint8_t>(t.rel_off);

  if (t.base == LoadBase::kParseInfo) {
    // Loads from the ParseInfo block: [rsi + disp8].
    switch (t.load_width) {
      case 1:
        u8(0x0F); u8(0xB6); u8(0x46); u8(disp);  // movzx eax, byte [rsi+d]
        break;
      case 2:
        u8(0x0F); u8(0xB7); u8(0x46); u8(disp);  // movzx eax, word [rsi+d]
        break;
      case 4:
        u8(0x8B); u8(0x46); u8(disp);  // mov eax, [rsi+d]
        break;
      case 8:
        u8(0x48); u8(0x8B); u8(0x46); u8(disp);  // mov rax, [rsi+d]
        break;
      default:
        ESW_CHECK_MSG(false, "bad load width");
    }
  } else {
    // Loads from the packet: [rdi + r12/13/14 + disp8] via SIB.
    const uint8_t sib = static_cast<uint8_t>((index_bits(t.base) << 3) | 0b111);
    switch (t.load_width) {
      case 1:
        u8(0x42); u8(0x0F); u8(0xB6); u8(0x44); u8(sib); u8(disp);
        break;
      case 2:
        u8(0x42); u8(0x0F); u8(0xB7); u8(0x44); u8(sib); u8(disp);
        break;
      case 4:
        u8(0x42); u8(0x8B); u8(0x44); u8(sib); u8(disp);
        break;
      case 8:
        u8(0x4A); u8(0x8B); u8(0x44); u8(sib); u8(disp);
        break;
      default:
        ESW_CHECK_MSG(false, "bad load width");
    }
  }

  // Key and mask are immediates: the template-specialization constant folding.
  if (t.load_width == 8) {
    u8(0x48); u8(0xB9); u64le(t.cmp_const);  // mov rcx, key
    u8(0x48); u8(0x31); u8(0xC8);            // xor rax, rcx
    u8(0x48); u8(0xBA); u64le(t.cmp_mask);   // mov rdx, mask
    u8(0x48); u8(0x85); u8(0xD0);            // test rax, rdx
  } else {
    if (t.cmp_const != 0) {
      u8(0x35); u32le(static_cast<uint32_t>(t.cmp_const));  // xor eax, key
    }
    u8(0xA9); u32le(static_cast<uint32_t>(t.cmp_mask));  // test eax, mask
  }
  jcc32(0x85, fail);  // jnz -> no match
}

void Assembler::emit_return(uint64_t packed, Label epilogue) {
  if (packed <= 0xFFFFFFFFu) {
    u8(0xB8); u32le(static_cast<uint32_t>(packed));  // mov eax, imm32
  } else {
    u8(0x48); u8(0xB8); u64le(packed);  // mov rax, imm64
  }
  jmp32(epilogue);
}

void Assembler::emit_jmp(Label target) { jmp32(target); }

void Assembler::emit_fused_prologue() {
  // Park the trace cursor before anything can clobber rdx (the 8-byte field
  // test uses rcx/rdx as scratch).
  u8(0x49); u8(0x89); u8(0xD0);  // mov r8, rdx   (trace cursor)
  u8(0x45); u8(0x31); u8(0xD2);  // xor r10d, r10d (trace word count)
  emit_prologue();
}

void Assembler::emit_trace_push(uint32_t word) {
  u8(0x41); u8(0xC7); u8(0x00); u32le(word);  // mov dword [r8], imm32
  u8(0x49); u8(0x83); u8(0xC0); u8(0x04);     // add r8, 4
  u8(0x41); u8(0xFF); u8(0xC2);               // inc r10d
}

void Assembler::emit_fused_exit(uint8_t marker_bit, uint32_t stage,
                                Label epilogue) {
  u8(0x4C); u8(0x89); u8(0xD0);            // mov rax, r10
  u8(0x48); u8(0xC1); u8(0xE0); u8(0x20);  // shl rax, 32
  if (stage != 0) {
    u8(0x48); u8(0x0D); u32le(stage);      // or rax, imm32 (stage id)
  }
  if (marker_bit != 0) {
    // bts rax, 62/63 — the completed / miss marker.
    u8(0x48); u8(0x0F); u8(0xBA); u8(0xE8); u8(marker_bit);
  }
  jmp32(epilogue);
}

bool Assembler::link() {
  for (const Fixup& f : fixups_) {
    const int32_t at_label = labels_[f.label];
    if (at_label == kUnbound) return false;
    const int32_t rel = at_label - static_cast<int32_t>(f.at + 4);
    for (int i = 0; i < 4; ++i)
      code_[f.at + i] = static_cast<uint8_t>(static_cast<uint32_t>(rel) >> (8 * i));
  }
  fixups_.clear();
  return true;
}

}  // namespace esw::jit
