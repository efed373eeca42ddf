#include "asmx/lexer.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace usca::asmx {
namespace {

TEST(Lexer, TokenizesInstructionLine) {
  const auto tokens = tokenize_line("add r1, r2, #7", 1);
  ASSERT_EQ(tokens.size(), 8u); // add r1 , r2 , # 7 EOL
  EXPECT_EQ(tokens[0].kind, token_kind::identifier);
  EXPECT_EQ(tokens[0].text, "add");
  EXPECT_EQ(tokens[2].kind, token_kind::comma);
  EXPECT_EQ(tokens[5].kind, token_kind::hash);
  EXPECT_EQ(tokens[6].kind, token_kind::integer);
  EXPECT_EQ(tokens[6].value, 7u);
  EXPECT_EQ(tokens.back().kind, token_kind::end);
}

TEST(Lexer, LowercasesIdentifiers) {
  const auto tokens = tokenize_line("ADD R1, R2, R3", 1);
  EXPECT_EQ(tokens[0].text, "add");
  EXPECT_EQ(tokens[1].text, "r1");
}

TEST(Lexer, NumberFormats) {
  EXPECT_EQ(tokenize_line("0x1F", 1)[0].value, 0x1fu);
  EXPECT_EQ(tokenize_line("0b1010", 1)[0].value, 10u);
  EXPECT_EQ(tokenize_line("4095", 1)[0].value, 4095u);
  EXPECT_EQ(tokenize_line("0xffffffff", 1)[0].value, 0xffffffffu);
}

TEST(Lexer, CommentsAreStripped) {
  EXPECT_EQ(tokenize_line("nop ; comment", 1).size(), 2u);
  EXPECT_EQ(tokenize_line("nop @ comment", 1).size(), 2u);
  EXPECT_EQ(tokenize_line("nop // comment", 1).size(), 2u);
  EXPECT_EQ(tokenize_line("; pure comment", 1).size(), 1u);
}

TEST(Lexer, BracketsAndLabels) {
  const auto tokens = tokenize_line("loop: ldr r1, [r2, #-4]", 1);
  EXPECT_EQ(tokens[0].text, "loop");
  EXPECT_EQ(tokens[1].kind, token_kind::colon);
  bool has_lbracket = false;
  bool has_minus = false;
  for (const auto& t : tokens) {
    has_lbracket |= t.kind == token_kind::lbracket;
    has_minus = has_minus || t.kind == token_kind::minus;
  }
  EXPECT_TRUE(has_lbracket);
  EXPECT_TRUE(has_minus);
}

TEST(Lexer, DirectiveIdentifiersKeepDot) {
  const auto tokens = tokenize_line(".word 1, 2", 1);
  EXPECT_EQ(tokens[0].text, ".word");
}

TEST(Lexer, RejectsOversizedLiteral) {
  EXPECT_THROW(tokenize_line("4294967296", 3), util::assembly_error);
}

// Literals long enough to wrap a 64-bit accumulator back to a small value
// must be refused too, in every base.
TEST(Lexer, RejectsLiteralsThatWrapSixtyFourBits) {
  EXPECT_EQ(tokenize_line("0b11111111111111111111111111111111", 1)[0].value,
            0xffffffffu);
  for (const char* text :
       {"18446744073709551617", "0x10000000000000001",
        "0b10000000000000000000000000000000000000000000000000000000000000001",
        "0b100000000000000000000000000000000", "00000000004294967296"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW(tokenize_line(text, 1), util::assembly_error);
  }
  EXPECT_EQ(tokenize_line("0x00000000ffffffff", 1)[0].value, 0xffffffffu);
}

TEST(Lexer, RejectsMalformedHex) {
  EXPECT_THROW(tokenize_line("0x", 1), util::assembly_error);
}

TEST(Lexer, RejectsStrayCharacter) {
  try {
    tokenize_line("add r1, r2, $3", 7);
    FAIL() << "expected assembly_error";
  } catch (const util::assembly_error& e) {
    EXPECT_EQ(e.line(), 7);
    EXPECT_GT(e.column(), 0);
  }
}

TEST(Lexer, ColumnsAreOneBased) {
  const auto tokens = tokenize_line("mov r1, r2", 1);
  EXPECT_EQ(tokens[0].column, 1);
  EXPECT_EQ(tokens[1].column, 5);
}

} // namespace
} // namespace usca::asmx
