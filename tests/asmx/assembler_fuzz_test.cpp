// Fuzz properties of the assembler.  Round trip: any instruction the
// library can construct disassembles to text that re-assembles to the
// identical instruction, closing the loop between the three AL32
// representations (IR, text, binary) beyond the fixed corpus in
// disasm_test.cpp.  Mutation: damaged assembly text comes back as a
// program or a util::assembly_error, never anything else.
#include <gtest/gtest.h>

#include <string>

#include "asmx/assembler.h"
#include "isa/disasm.h"
#include "isa/encoding.h"
#include "util/bitops.h"
#include "util/error.h"
#include "util/rng.h"

namespace usca::asmx {
namespace {

using isa::condition;
using isa::instruction;
using isa::opcode;
using isa::reg;
using isa::shift_kind;

reg rand_reg(util::xoshiro256& rng) {
  return isa::reg_from_index(static_cast<std::uint8_t>(rng.bounded(16)));
}

condition rand_cond(util::xoshiro256& rng) {
  // Exclude nv: "addnv ..." would disassemble with the nv suffix but a
  // condition-never data-processing op is canonically reserved for nop.
  return static_cast<condition>(rng.bounded(15));
}

instruction random_instruction(util::xoshiro256& rng) {
  instruction ins;
  switch (rng.bounded(9)) {
  case 0: { // dp reg with optional shift
    static constexpr opcode ops[] = {opcode::mov, opcode::mvn, opcode::add,
                                     opcode::adc, opcode::sub, opcode::sbc,
                                     opcode::rsb, opcode::and_, opcode::orr,
                                     opcode::eor, opcode::bic};
    ins.op = ops[rng.bounded(std::size(ops))];
    ins.cond = rand_cond(rng);
    ins.set_flags = rng.bounded(2) != 0;
    ins.rd = rand_reg(rng);
    ins.rn = (ins.op == opcode::mov || ins.op == opcode::mvn)
                 ? reg::r0
                 : rand_reg(rng);
    isa::shift_spec spec;
    if (rng.bounded(2) != 0) {
      spec.kind = static_cast<shift_kind>(rng.bounded(4));
      if (rng.bounded(2) != 0) {
        spec.by_register = true;
        spec.amount_reg = rand_reg(rng);
      } else {
        spec.amount = static_cast<std::uint8_t>(1 + rng.bounded(31));
      }
    }
    ins.op2 = isa::operand2::make_reg(rand_reg(rng), spec);
    return ins;
  }
  case 1: { // dp imm (ARM-encodable)
    ins.op = rng.bounded(2) ? opcode::add : opcode::eor;
    ins.rd = rand_reg(rng);
    ins.rn = rand_reg(rng);
    const auto imm8 = static_cast<std::uint32_t>(rng.bounded(256));
    const auto rot = 2 * static_cast<unsigned>(rng.bounded(16));
    ins.op2 = isa::operand2::make_imm(util::rotate_right(imm8, rot));
    return ins;
  }
  case 2: { // compare
    ins.op = static_cast<opcode>(static_cast<int>(opcode::cmp) +
                                 static_cast<int>(rng.bounded(4)));
    ins.rn = rand_reg(rng);
    ins.op2 = isa::operand2::make_reg(rand_reg(rng));
    ins.set_flags = true;
    return ins;
  }
  case 3: // wide moves
    ins.op = rng.bounded(2) ? opcode::movw : opcode::movt;
    ins.rd = rand_reg(rng);
    ins.imm16 = static_cast<std::uint16_t>(rng.bounded(65536));
    return ins;
  case 4: // multiply
    return rng.bounded(2)
               ? isa::ins::mul(rand_reg(rng), rand_reg(rng), rand_reg(rng))
               : isa::ins::mla(rand_reg(rng), rand_reg(rng), rand_reg(rng),
                               rand_reg(rng));
  case 5: { // memory, immediate offset
    static constexpr opcode ops[] = {opcode::ldr,  opcode::ldrb,
                                     opcode::ldrh, opcode::str,
                                     opcode::strb, opcode::strh};
    ins.op = ops[rng.bounded(std::size(ops))];
    ins.rd = rand_reg(rng);
    ins.mem.base = rand_reg(rng);
    ins.mem.offset_imm = static_cast<std::uint32_t>(rng.bounded(4096));
    ins.mem.subtract = ins.mem.offset_imm != 0 && rng.bounded(2) != 0;
    return ins;
  }
  case 6: { // memory, register offset
    ins.op = rng.bounded(2) ? opcode::ldr : opcode::str;
    ins.rd = rand_reg(rng);
    ins.mem.base = rand_reg(rng);
    ins.mem.reg_offset = true;
    ins.mem.offset_reg = rand_reg(rng);
    ins.mem.offset_shift = static_cast<std::uint8_t>(rng.bounded(32));
    ins.mem.subtract = rng.bounded(2) != 0;
    return ins;
  }
  case 7: { // branches
    switch (rng.bounded(3)) {
    case 0:
      return isa::ins::b(
          static_cast<std::int32_t>(rng.bounded(2000)) - 1000,
          rand_cond(rng));
    case 1:
      return isa::ins::bl(static_cast<std::int32_t>(rng.bounded(2000)) -
                          1000);
    default:
      return isa::ins::bx(rand_reg(rng));
    }
  }
  default:
    switch (rng.bounded(3)) {
    case 0:
      return isa::ins::nop();
    case 1:
      return isa::ins::mark(static_cast<std::uint16_t>(rng.bounded(65536)));
    default:
      return isa::ins::halt();
    }
  }
}

class AssemblerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AssemblerFuzz, DisasmAssembleRoundTrip) {
  util::xoshiro256 rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const instruction original = random_instruction(rng);
    const std::string text = isa::disassemble(original);
    program prog;
    ASSERT_NO_THROW(prog = assemble(text)) << text;
    ASSERT_EQ(prog.code.size(), 1u) << text;
    ASSERT_EQ(prog.code.front(), original) << text;
  }
}

TEST_P(AssemblerFuzz, EncodeDecodeRoundTrip) {
  util::xoshiro256 rng(GetParam() ^ 0xe17c0de);
  for (int i = 0; i < 500; ++i) {
    const instruction original = random_instruction(rng);
    if (!isa::encodable(original)) {
      continue;
    }
    const auto decoded = isa::decode(isa::encode(original));
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(*decoded, original) << isa::disassemble(original);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssemblerFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull));

// Byte flips, inserts, deletes and truncations of valid assembly — labels,
// directives, expressions and random instructions — must assemble or throw
// util::assembly_error: no other exception, crash or UB (the sanitizer
// job runs this suite).  At most four edits per mutant; a mutated
// `.space` or `.align` that would grow the data section past
// max_data_bytes is refused like any other malformed statement.
TEST(AssemblerMutationFuzz, MutantsAssembleOrThrowAssemblyError) {
  static constexpr char alphabet[] = "0123456789abcdefx#[],:-+.;@/ \n\trlsh()";
  util::xoshiro256 rng(0x3a7a7e);
  int accepted = 0;
  int refused = 0;
  for (int round = 0; round < 3000; ++round) {
    std::string text = ".equ size, 0x40\n.data\n.align 4\n"
                       "table: .word 1, 2, size\nbuf: .space 8\n"
                       ".text\nstart:\n  lda r0, table\n"
                       "  ldi r3, #0x12345678\n  movw r1, #lo(buf)\n";
    for (int i = 0; i < 6; ++i) {
      text += isa::disassemble(random_instruction(rng)) + "\n";
    }
    text += "  bne start ; loop\n";
    const int edits = 1 + static_cast<int>(rng.bounded(4));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng.bounded(text.size());
      switch (rng.bounded(4)) {
      case 0:
        text[at] = static_cast<char>(text[at] ^ (1 << rng.bounded(8)));
        break;
      case 1:
        text.insert(at, 1,
                    rng.bounded(2) != 0
                        ? alphabet[rng.bounded(sizeof alphabet - 1)]
                        : static_cast<char>(rng.bounded(256)));
        break;
      case 2:
        text.erase(at, 1);
        break;
      default:
        text.resize(at);
        break;
      }
    }
    try {
      (void)assemble(text);
      ++accepted;
    } catch (const util::assembly_error&) {
      ++refused;
    } catch (const std::exception& e) {
      FAIL() << "round " << round << ": " << e.what() << " on:\n" << text;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

} // namespace
} // namespace usca::asmx
