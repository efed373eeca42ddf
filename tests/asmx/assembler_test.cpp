#include "asmx/assembler.h"

#include <gtest/gtest.h>

#include "isa/instruction.h"
#include "util/error.h"

namespace usca::asmx {
namespace {

using isa::condition;
using isa::opcode;
using isa::reg;
namespace mk = isa::ins;

TEST(Assembler, EmptySourceGivesEmptyProgram) {
  const program p = assemble("");
  EXPECT_TRUE(p.code.empty());
  EXPECT_TRUE(p.data.empty());
}

TEST(Assembler, SingleInstruction) {
  const program p = assemble("add r1, r2, r3");
  ASSERT_EQ(p.code.size(), 1u);
  EXPECT_EQ(p.code[0], mk::add(reg::r1, reg::r2, reg::r3));
}

TEST(Assembler, ConditionAndSetFlagsSuffixes) {
  const program p = assemble("addeqs r1, r2, r3\n"
                             "adds r1, r2, r3\n"
                             "addseq r1, r2, r3\n"
                             "addne r1, r2, #4\n");
  ASSERT_EQ(p.code.size(), 4u);
  EXPECT_EQ(p.code[0].cond, condition::eq);
  EXPECT_TRUE(p.code[0].set_flags);
  EXPECT_EQ(p.code[1].cond, condition::al);
  EXPECT_TRUE(p.code[1].set_flags);
  EXPECT_EQ(p.code[2].cond, condition::eq);
  EXPECT_TRUE(p.code[2].set_flags);
  EXPECT_EQ(p.code[3].cond, condition::ne);
  EXPECT_FALSE(p.code[3].set_flags);
}

TEST(Assembler, BlsParsesAsConditionalBranchNotBlWithS) {
  const program p = assemble("label:\n bls label");
  ASSERT_EQ(p.code.size(), 1u);
  EXPECT_EQ(p.code[0].op, opcode::b);
  EXPECT_EQ(p.code[0].cond, condition::ls);
}

TEST(Assembler, ShiftAliases) {
  const program p = assemble("lsl r1, r2, #3\nlsr r4, r5, r6\n");
  EXPECT_EQ(p.code[0], mk::lsl(reg::r1, reg::r2, 3));
  EXPECT_EQ(p.code[1].op2.shift.by_register, true);
  EXPECT_EQ(p.code[1].op2.shift.amount_reg, reg::r6);
}

TEST(Assembler, NopPseudo) {
  const program p = assemble("nop");
  ASSERT_EQ(p.code.size(), 1u);
  EXPECT_TRUE(isa::is_nop(p.code[0]));
}

TEST(Assembler, LdiExpandsToMovwMovt) {
  const program p = assemble("ldi r3, #0x12345678");
  ASSERT_EQ(p.code.size(), 2u);
  EXPECT_EQ(p.code[0], mk::movw(reg::r3, 0x5678));
  EXPECT_EQ(p.code[1], mk::movt(reg::r3, 0x1234));
}

TEST(Assembler, LdaLoadsSymbolAddress) {
  const program p = assemble(".data\n"
                             "table: .word 1, 2, 3\n"
                             ".text\n"
                             "lda r0, table\n");
  ASSERT_EQ(p.code.size(), 2u);
  const std::uint32_t addr = *p.symbol("table");
  EXPECT_EQ(p.code[0].imm16, addr & 0xffffU);
  EXPECT_EQ(p.code[1].imm16, addr >> 16);
}

TEST(Assembler, BranchToLabelOffsets) {
  const program p = assemble("start: nop\n"
                             "nop\n"
                             "b start\n"
                             "beq start\n");
  // Offset is relative to the *next* instruction.
  EXPECT_EQ(p.code[2].branch_offset, -3);
  EXPECT_EQ(p.code[3].branch_offset, -4);
}

TEST(Assembler, ForwardBranch) {
  const program p = assemble("b end\nnop\nnop\nend: nop\n");
  EXPECT_EQ(p.code[0].branch_offset, 2);
}

TEST(Assembler, MemoryOperandForms) {
  const program p = assemble("ldr r1, [r2]\n"
                             "ldr r1, [r2, #4]\n"
                             "ldr r1, [r2, #-4]\n"
                             "ldr r1, [r2, r3]\n"
                             "ldrb r1, [r2, r3, lsl #2]\n"
                             "str r1, [r2, -r3]\n");
  EXPECT_EQ(p.code[0].mem.offset_imm, 0u);
  EXPECT_EQ(p.code[1].mem.offset_imm, 4u);
  EXPECT_TRUE(p.code[2].mem.subtract);
  EXPECT_EQ(p.code[2].mem.offset_imm, 4u);
  EXPECT_TRUE(p.code[3].mem.reg_offset);
  EXPECT_EQ(p.code[4].mem.offset_shift, 2);
  EXPECT_TRUE(p.code[5].mem.subtract);
  EXPECT_TRUE(p.code[5].mem.reg_offset);
}

TEST(Assembler, DataDirectives) {
  const program p = assemble(".data\n"
                             "w: .word 0x11223344\n"
                             "h: .half 0x5566\n"
                             "b: .byte 0x77, 0x88\n"
                             ".align 8\n"
                             "s: .space 4\n");
  EXPECT_EQ(p.data[0], 0x44);
  EXPECT_EQ(p.data[3], 0x11);
  EXPECT_EQ(p.data[4], 0x66);
  EXPECT_EQ(p.data[6], 0x77);
  EXPECT_EQ(p.data[7], 0x88);
  EXPECT_EQ(*p.symbol("s") % 8, 0u);
  EXPECT_EQ(*p.symbol("w"), p.data_base);
}

TEST(Assembler, EquConstants) {
  const program p = assemble(".equ size, 0x40\nadd r1, r2, #size\n");
  EXPECT_EQ(p.code[0].op2.imm, 0x40u);
}

TEST(Assembler, LoHiExpressions) {
  const program p = assemble(".data\n.align 4\nbuf: .space 16\n.text\n"
                             "movw r0, #lo(buf)\nmovt r0, #hi(buf)\n");
  const std::uint32_t addr = *p.symbol("buf");
  EXPECT_EQ(p.code[0].imm16, addr & 0xffffU);
  EXPECT_EQ(p.code[1].imm16, addr >> 16);
}

TEST(Assembler, MultipleLabelsOnOneLine) {
  const program p = assemble("a: b: nop\n");
  EXPECT_EQ(*p.symbol("a"), *p.symbol("b"));
}

TEST(Assembler, ErrorUnknownMnemonic) {
  EXPECT_THROW(assemble("frobnicate r1"), util::assembly_error);
}

TEST(Assembler, ErrorUndefinedLabel) {
  EXPECT_THROW(assemble("b nowhere"), util::assembly_error);
}

TEST(Assembler, ErrorDuplicateLabel) {
  EXPECT_THROW(assemble("x: nop\nx: nop\n"), util::assembly_error);
}

TEST(Assembler, ErrorNonEncodableImmediateSuggestsLdi) {
  try {
    assemble("add r1, r2, #0x12345678");
    FAIL() << "expected assembly_error";
  } catch (const util::assembly_error& e) {
    EXPECT_NE(std::string(e.what()).find("ldi"), std::string::npos);
  }
}

TEST(Assembler, ErrorOversizedShift) {
  EXPECT_THROW(assemble("lsl r1, r2, #32"), util::assembly_error);
}

TEST(Assembler, ErrorInstructionInDataSection) {
  EXPECT_THROW(assemble(".data\nadd r1, r2, r3\n"), util::assembly_error);
}

TEST(Assembler, ErrorDataSectionPastTheLimit) {
  // `.space` and `.align` take any 32-bit operand; a data section past
  // max_data_bytes is refused in the layout pass, before it is allocated.
  EXPECT_THROW(assemble(".data\nb: .space 0x40000000\n"),
               util::assembly_error);
  EXPECT_THROW(assemble(".data\nb: .space 0xffffffff\n"),
               util::assembly_error);
  EXPECT_THROW(assemble(".data\n.byte 1\n.align 0x80000000\n"),
               util::assembly_error);
  // Each directive within the limit, their sum one byte past it.
  EXPECT_THROW(assemble(".data\n.space 0x800000\n.space 0x800001\n"),
               util::assembly_error);
  const program p = assemble(".data\n.space 0x800000\n.space 0x800000\n");
  EXPECT_EQ(p.data.size(), max_data_bytes);
}

TEST(Assembler, ErrorTrailingTokens) {
  EXPECT_THROW(assemble("nop nop"), util::assembly_error);
}

TEST(Assembler, ErrorReportsLineNumber) {
  try {
    assemble("nop\nnop\nbogus r1\n");
    FAIL() << "expected assembly_error";
  } catch (const util::assembly_error& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(Assembler, MulAndMla) {
  const program p = assemble("mul r1, r2, r3\nmla r4, r5, r6, r7\n");
  EXPECT_EQ(p.code[0], mk::mul(reg::r1, reg::r2, reg::r3));
  EXPECT_EQ(p.code[1], mk::mla(reg::r4, reg::r5, reg::r6, reg::r7));
}

TEST(Assembler, MarkAndHalt) {
  const program p = assemble("mark #7\nhalt\n");
  EXPECT_EQ(p.code[0].imm16, 7);
  EXPECT_EQ(p.code[1].op, opcode::halt);
}

TEST(Assembler, CustomBases) {
  assemble_options opts;
  opts.code_base = 0x8000;
  opts.data_base = 0x20000;
  const program p = assemble("start: nop\n.data\nd: .word 1\n", opts);
  EXPECT_EQ(*p.symbol("start"), 0x8000u);
  EXPECT_EQ(*p.symbol("d"), 0x20000u);
}

} // namespace
} // namespace usca::asmx
