#include "asmx/assembler.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "asmx/lexer.h"
#include "util/bitops.h"
#include "util/error.h"

namespace usca::asmx {

namespace {

using isa::condition;
using isa::instruction;
using isa::opcode;
using isa::operand2;
using isa::reg;
using isa::shift_kind;
using isa::shift_spec;
using util::assembly_error;

// ---------------------------------------------------------------------------
// Mnemonic tables
// ---------------------------------------------------------------------------

struct mnemonic_entry {
  std::string_view name;
  opcode op;
  bool allow_set_flags;
};

// Longest names first so prefix matching is unambiguous (movw before mov,
// ldrb before ldr, bl before b, ...).
constexpr std::array<mnemonic_entry, 30> mnemonic_table = {{
    {"movw", opcode::movw, false}, {"movt", opcode::movt, false},
    {"ldrb", opcode::ldrb, false}, {"ldrh", opcode::ldrh, false},
    {"strb", opcode::strb, false}, {"strh", opcode::strh, false},
    {"mark", opcode::mark, false}, {"halt", opcode::halt, false},
    {"mov", opcode::mov, true},    {"mvn", opcode::mvn, true},
    {"add", opcode::add, true},    {"adc", opcode::adc, true},
    {"sub", opcode::sub, true},    {"sbc", opcode::sbc, true},
    {"rsb", opcode::rsb, true},    {"and", opcode::and_, true},
    {"orr", opcode::orr, true},    {"eor", opcode::eor, true},
    {"bic", opcode::bic, true},    {"cmp", opcode::cmp, false},
    {"cmn", opcode::cmn, false},   {"tst", opcode::tst, false},
    {"teq", opcode::teq, false},   {"mul", opcode::mul, true},
    {"mla", opcode::mla, true},    {"ldr", opcode::ldr, false},
    {"str", opcode::str, false},   {"bx", opcode::bx, false},
    {"bl", opcode::bl, false},     {"b", opcode::b, false},
}};

struct shift_alias {
  std::string_view name;
  shift_kind kind;
};

constexpr std::array<shift_alias, 4> shift_aliases = {{
    {"lsl", shift_kind::lsl},
    {"lsr", shift_kind::lsr},
    {"asr", shift_kind::asr},
    {"ror", shift_kind::ror},
}};

struct decoded_mnemonic {
  enum class kind { op, shift, nop, ldi, lda } k = kind::op;
  opcode op = opcode::mov;
  shift_kind shift = shift_kind::lsl;
  condition cond = condition::al;
  bool set_flags = false;
};

std::optional<decoded_mnemonic> decode_suffix(std::string_view rest,
                                              bool allow_s) {
  decoded_mnemonic out;
  if (rest.empty()) {
    return out;
  }
  if (allow_s && rest == "s") {
    out.set_flags = true;
    return out;
  }
  if (const auto cond = isa::parse_condition(rest)) {
    out.cond = *cond;
    return out;
  }
  if (allow_s && rest.size() == 3 && rest.back() == 's') {
    if (const auto cond = isa::parse_condition(rest.substr(0, 2))) {
      out.cond = *cond;
      out.set_flags = true;
      return out;
    }
  }
  if (allow_s && rest.size() == 3 && rest.front() == 's') {
    if (const auto cond = isa::parse_condition(rest.substr(1))) {
      out.cond = *cond;
      out.set_flags = true;
      return out;
    }
  }
  return std::nullopt;
}

std::optional<decoded_mnemonic> decode_mnemonic(std::string_view ident) {
  if (ident == "nop") {
    decoded_mnemonic out;
    out.k = decoded_mnemonic::kind::nop;
    return out;
  }
  for (const auto& alias : shift_aliases) {
    if (ident.starts_with(alias.name)) {
      if (auto out = decode_suffix(ident.substr(alias.name.size()), true)) {
        out->k = decoded_mnemonic::kind::shift;
        out->shift = alias.kind;
        return out;
      }
    }
  }
  if (ident.starts_with("ldi")) {
    if (auto out = decode_suffix(ident.substr(3), false)) {
      out->k = decoded_mnemonic::kind::ldi;
      return out;
    }
  }
  if (ident.starts_with("lda")) {
    if (auto out = decode_suffix(ident.substr(3), false)) {
      out->k = decoded_mnemonic::kind::lda;
      return out;
    }
  }
  for (const auto& entry : mnemonic_table) {
    if (ident.starts_with(entry.name)) {
      if (auto out =
              decode_suffix(ident.substr(entry.name.size()), entry.allow_set_flags)) {
        out->op = entry.op;
        return out;
      }
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Statement model (shared by both passes)
// ---------------------------------------------------------------------------

struct statement {
  int line = 0;
  std::vector<std::string> labels;
  bool is_directive = false;
  std::string directive;         ///< without leading dot
  std::string mnemonic;          ///< raw instruction identifier
  std::vector<token> operands;   ///< tokens after mnemonic/directive
};

std::vector<statement> parse_statements(std::string_view source) {
  std::vector<statement> out;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    const std::size_t eol = source.find('\n', pos);
    const std::string_view line_text =
        source.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                         : eol - pos);
    pos = eol == std::string_view::npos ? source.size() + 1 : eol + 1;
    ++line_no;

    std::vector<token> tokens = tokenize_line(line_text, line_no);
    statement stmt;
    stmt.line = line_no;
    std::size_t idx = 0;
    while (tokens[idx].kind == token_kind::identifier &&
           tokens[idx + 1].kind == token_kind::colon) {
      stmt.labels.push_back(tokens[idx].text);
      idx += 2;
    }
    if (tokens[idx].kind == token_kind::identifier) {
      if (tokens[idx].text.front() == '.') {
        stmt.is_directive = true;
        stmt.directive = tokens[idx].text.substr(1);
      } else {
        stmt.mnemonic = tokens[idx].text;
      }
      ++idx;
    } else if (tokens[idx].kind != token_kind::end) {
      throw assembly_error("expected label, directive or mnemonic", line_no,
                           tokens[idx].column);
    }
    stmt.operands.assign(tokens.begin() + static_cast<std::ptrdiff_t>(idx),
                         tokens.end());
    if (!stmt.labels.empty() || stmt.is_directive || !stmt.mnemonic.empty()) {
      out.push_back(std::move(stmt));
    }
  }
  return out;
}

// Number of instruction words a statement expands to.
std::size_t instruction_count(const statement& stmt) {
  if (stmt.mnemonic.empty()) {
    return 0;
  }
  const auto decoded = decode_mnemonic(stmt.mnemonic);
  if (!decoded) {
    throw assembly_error("unknown mnemonic '" + stmt.mnemonic + "'", stmt.line,
                         1);
  }
  switch (decoded->k) {
  case decoded_mnemonic::kind::ldi:
  case decoded_mnemonic::kind::lda:
    return 2;
  default:
    return 1;
  }
}

// Counts data items in a comma-separated directive operand list.
std::size_t count_items(const statement& stmt) {
  std::size_t count = 0;
  bool in_item = false;
  for (const auto& tok : stmt.operands) {
    if (tok.kind == token_kind::end) {
      break;
    }
    if (tok.kind == token_kind::comma) {
      in_item = false;
    } else if (!in_item) {
      in_item = true;
      ++count;
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// Operand cursor (pass 2)
// ---------------------------------------------------------------------------

class cursor {
public:
  cursor(const statement& stmt, const std::map<std::string, std::uint32_t,
                                               std::less<>>& symbols)
      : stmt_(stmt), symbols_(symbols) {}

  const token& peek() const { return stmt_.operands[idx_]; }

  const token& next() { return stmt_.operands[idx_++]; }

  bool at_end() const { return peek().kind == token_kind::end; }

  [[noreturn]] void fail(const std::string& message) const {
    throw assembly_error(message, stmt_.line, peek().column);
  }

  void expect(token_kind kind, const char* what) {
    if (peek().kind != kind) {
      fail(std::string("expected ") + what);
    }
    ++idx_;
  }

  void expect_comma() { expect(token_kind::comma, "','"); }

  void expect_end() {
    if (!at_end()) {
      fail("trailing tokens after instruction");
    }
  }

  reg parse_reg() {
    if (peek().kind != token_kind::identifier) {
      fail("expected register");
    }
    const auto r = isa::parse_reg(peek().text);
    if (!r) {
      fail("invalid register '" + peek().text + "'");
    }
    ++idx_;
    return *r;
  }

  bool looks_like_reg() const {
    return peek().kind == token_kind::identifier &&
           isa::parse_reg(peek().text).has_value();
  }

  // expr := ['-'] (integer | ident | lo(ident) | hi(ident))
  std::uint32_t parse_expr() {
    bool negate = false;
    if (peek().kind == token_kind::minus) {
      negate = true;
      ++idx_;
    }
    std::uint32_t value = 0;
    if (peek().kind == token_kind::integer) {
      value = next().value;
    } else if (peek().kind == token_kind::identifier) {
      const std::string name = next().text;
      if ((name == "lo" || name == "hi") &&
          peek().kind == token_kind::lparen) {
        ++idx_;
        const std::uint32_t inner = parse_expr();
        expect(token_kind::rparen, "')'");
        value = name == "lo" ? (inner & 0xffffU) : (inner >> 16);
      } else {
        const auto it = symbols_.find(name);
        if (it == symbols_.end()) {
          throw assembly_error("undefined symbol '" + name + "'", stmt_.line,
                               1);
        }
        value = it->second;
      }
    } else {
      fail("expected expression");
    }
    return negate ? static_cast<std::uint32_t>(-static_cast<std::int64_t>(value))
                  : value;
  }

  std::uint32_t parse_immediate() {
    if (peek().kind == token_kind::hash) {
      ++idx_;
    }
    return parse_expr();
  }

  int line() const { return stmt_.line; }

private:
  const statement& stmt_;
  const std::map<std::string, std::uint32_t, std::less<>>& symbols_;
  std::size_t idx_ = 0;
};

shift_spec parse_shift(cursor& cur) {
  shift_spec spec;
  if (cur.peek().kind != token_kind::identifier) {
    cur.fail("expected shift kind (lsl/lsr/asr/ror)");
  }
  const std::string name = cur.next().text;
  const auto it =
      std::find_if(shift_aliases.begin(), shift_aliases.end(),
                   [&](const shift_alias& a) { return a.name == name; });
  if (it == shift_aliases.end()) {
    cur.fail("invalid shift kind '" + name + "'");
  }
  spec.kind = it->kind;
  if (cur.looks_like_reg()) {
    spec.by_register = true;
    spec.amount_reg = cur.parse_reg();
  } else {
    const std::uint32_t amount = cur.parse_immediate();
    if (amount > 31) {
      cur.fail("shift amount must be 0..31");
    }
    spec.amount = static_cast<std::uint8_t>(amount);
  }
  return spec;
}

operand2 parse_operand2(cursor& cur) {
  if (cur.looks_like_reg()) {
    const reg rm = cur.parse_reg();
    shift_spec spec;
    if (cur.peek().kind == token_kind::comma) {
      cur.expect_comma();
      spec = parse_shift(cur);
    }
    return operand2::make_reg(rm, spec);
  }
  return operand2::make_imm(cur.parse_immediate());
}

isa::mem_operand parse_mem(cursor& cur) {
  isa::mem_operand mem;
  cur.expect(token_kind::lbracket, "'['");
  mem.base = cur.parse_reg();
  if (cur.peek().kind == token_kind::comma) {
    cur.expect_comma();
    const bool negative_reg = cur.peek().kind == token_kind::minus;
    if (cur.peek().kind == token_kind::hash) {
      const std::uint32_t raw = cur.parse_immediate();
      const auto signed_value = static_cast<std::int32_t>(raw);
      if (signed_value < 0) {
        mem.subtract = true;
        mem.offset_imm = static_cast<std::uint32_t>(-signed_value);
      } else {
        mem.offset_imm = raw;
      }
      if (mem.offset_imm > 0xfffU) {
        cur.fail("memory offset must fit 12 bits");
      }
    } else {
      if (negative_reg) {
        cur.next(); // consume '-'
        mem.subtract = true;
      }
      mem.reg_offset = true;
      mem.offset_reg = cur.parse_reg();
      if (cur.peek().kind == token_kind::comma) {
        cur.expect_comma();
        const shift_spec spec = parse_shift(cur);
        if (spec.kind != shift_kind::lsl || spec.by_register) {
          cur.fail("memory offset shift must be 'lsl #imm'");
        }
        mem.offset_shift = spec.amount;
      }
    }
  }
  cur.expect(token_kind::rbracket, "']'");
  return mem;
}

void check_dp_immediate(const cursor& cur, const operand2& op2) {
  if (op2.k == operand2::kind::immediate &&
      !util::is_arm_immediate(op2.imm)) {
    throw assembly_error(
        "immediate 0x" + [&] {
          char buf[16];
          std::snprintf(buf, sizeof buf, "%x", op2.imm);
          return std::string(buf);
        }() + " is not encodable as rotated imm8; use 'ldi'",
        cur.line(), 1);
  }
}

// ---------------------------------------------------------------------------
// Assembler driver
// ---------------------------------------------------------------------------

class assembler {
public:
  explicit assembler(const assemble_options& opts) {
    prog_.code_base = opts.code_base;
    prog_.data_base = opts.data_base;
  }

  program run(std::string_view source) {
    const std::vector<statement> statements = parse_statements(source);
    layout_pass(statements);
    emit_pass(statements);
    return std::move(prog_);
  }

private:
  enum class section { text, data };

  void layout_pass(const std::vector<statement>& statements) {
    section sec = section::text;
    std::size_t text_index = 0;
    std::size_t data_offset = 0;
    for (const auto& stmt : statements) {
      for (const auto& label : stmt.labels) {
        const std::uint32_t address =
            sec == section::text
                ? prog_.code_base + static_cast<std::uint32_t>(text_index * 4)
                : prog_.data_base + static_cast<std::uint32_t>(data_offset);
        if (!prog_.symbols.emplace(label, address).second) {
          throw assembly_error("duplicate label '" + label + "'", stmt.line, 1);
        }
      }
      if (stmt.is_directive) {
        layout_directive(stmt, sec, data_offset);
        if (data_offset > max_data_bytes) {
          throw assembly_error("data section grows past " +
                                   std::to_string(max_data_bytes) + " bytes",
                               stmt.line, 1);
        }
      } else if (!stmt.mnemonic.empty()) {
        if (sec != section::text) {
          throw assembly_error("instruction in data section", stmt.line, 1);
        }
        text_index += instruction_count(stmt);
      }
    }
  }

  void layout_directive(const statement& stmt, section& sec,
                        std::size_t& data_offset) {
    const std::string& d = stmt.directive;
    if (d == "text") {
      sec = section::text;
    } else if (d == "data") {
      sec = section::data;
    } else if (d == "word") {
      data_offset = align_up(data_offset, 4) + 4 * count_items(stmt);
    } else if (d == "half") {
      data_offset = align_up(data_offset, 2) + 2 * count_items(stmt);
    } else if (d == "byte") {
      data_offset += count_items(stmt);
    } else if (d == "space") {
      cursor cur(stmt, prog_.symbols);
      data_offset += cur.parse_immediate();
    } else if (d == "align") {
      cursor cur(stmt, prog_.symbols);
      const std::uint32_t alignment = cur.parse_immediate();
      if (alignment == 0 || (alignment & (alignment - 1)) != 0) {
        throw assembly_error(".align requires a power of two", stmt.line, 1);
      }
      data_offset = align_up(data_offset, alignment);
    } else if (d == "equ") {
      // Value may reference earlier symbols only; evaluated in this pass so
      // instructions can use it regardless of ordering quirks.
      cursor cur(stmt, prog_.symbols);
      if (cur.peek().kind != token_kind::identifier) {
        cur.fail(".equ requires a name");
      }
      const std::string name = cur.next().text;
      cur.expect_comma();
      const std::uint32_t value = cur.parse_expr();
      if (!prog_.symbols.emplace(name, value).second) {
        throw assembly_error("duplicate symbol '" + name + "'", stmt.line, 1);
      }
    } else if (d == "global" || d == "globl") {
      // Accepted and ignored: single-image programs have no linkage.
    } else {
      throw assembly_error("unknown directive '." + d + "'", stmt.line, 1);
    }
  }

  void emit_pass(const std::vector<statement>& statements) {
    section sec = section::text;
    for (const auto& stmt : statements) {
      if (stmt.is_directive) {
        emit_directive(stmt, sec);
      } else if (!stmt.mnemonic.empty()) {
        emit_instruction(stmt);
      }
    }
  }

  void emit_directive(const statement& stmt, section& sec) {
    const std::string& d = stmt.directive;
    if (d == "text") {
      sec = section::text;
      return;
    }
    if (d == "data") {
      sec = section::data;
      return;
    }
    if (d == "equ" || d == "global" || d == "globl") {
      return; // handled in layout pass
    }
    cursor cur(stmt, prog_.symbols);
    if (d == "word" || d == "half" || d == "byte") {
      const std::size_t width = d == "word" ? 4 : d == "half" ? 2 : 1;
      pad_data_to(align_up(prog_.data.size(), width));
      bool first = true;
      while (!cur.at_end()) {
        if (!first) {
          cur.expect_comma();
        }
        first = false;
        const std::uint32_t value = cur.parse_expr();
        for (std::size_t i = 0; i < width; ++i) {
          prog_.data.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
        }
      }
      return;
    }
    if (d == "space") {
      const std::uint32_t size = cur.parse_immediate();
      pad_data_to(prog_.data.size() + size);
      return;
    }
    if (d == "align") {
      const std::uint32_t alignment = cur.parse_immediate();
      pad_data_to(align_up(prog_.data.size(), alignment));
      return;
    }
  }

  void emit_instruction(const statement& stmt) {
    const auto decoded = decode_mnemonic(stmt.mnemonic);
    cursor cur(stmt, prog_.symbols);
    switch (decoded->k) {
    case decoded_mnemonic::kind::nop:
      cur.expect_end();
      prog_.code.push_back(isa::ins::nop());
      return;
    case decoded_mnemonic::kind::shift: {
      const reg rd = cur.parse_reg();
      cur.expect_comma();
      const reg rm = cur.parse_reg();
      cur.expect_comma();
      instruction ins;
      ins.op = opcode::mov;
      ins.cond = decoded->cond;
      ins.set_flags = decoded->set_flags;
      ins.rd = rd;
      shift_spec spec;
      spec.kind = decoded->shift;
      if (cur.looks_like_reg()) {
        spec.by_register = true;
        spec.amount_reg = cur.parse_reg();
      } else {
        const std::uint32_t amount = cur.parse_immediate();
        if (amount > 31) {
          cur.fail("shift amount must be 0..31");
        }
        spec.amount = static_cast<std::uint8_t>(amount);
      }
      cur.expect_end();
      ins.op2 = operand2::make_reg(rm, spec);
      prog_.code.push_back(ins);
      return;
    }
    case decoded_mnemonic::kind::ldi:
    case decoded_mnemonic::kind::lda: {
      const reg rd = cur.parse_reg();
      cur.expect_comma();
      const std::uint32_t value = cur.parse_immediate();
      cur.expect_end();
      auto low = isa::ins::movw(rd, static_cast<std::uint16_t>(value & 0xffffU));
      auto high = isa::ins::movt(rd, static_cast<std::uint16_t>(value >> 16));
      low.cond = decoded->cond;
      high.cond = decoded->cond;
      prog_.code.push_back(low);
      prog_.code.push_back(high);
      return;
    }
    case decoded_mnemonic::kind::op:
      break;
    }

    instruction ins;
    ins.op = decoded->op;
    ins.cond = decoded->cond;
    ins.set_flags = decoded->set_flags;

    switch (decoded->op) {
    case opcode::mov:
    case opcode::mvn: {
      ins.rd = cur.parse_reg();
      cur.expect_comma();
      ins.op2 = parse_operand2(cur);
      check_dp_immediate(cur, ins.op2);
      break;
    }
    case opcode::cmp:
    case opcode::cmn:
    case opcode::tst:
    case opcode::teq: {
      ins.rn = cur.parse_reg();
      cur.expect_comma();
      ins.op2 = parse_operand2(cur);
      check_dp_immediate(cur, ins.op2);
      ins.set_flags = true;
      break;
    }
    case opcode::movw:
    case opcode::movt: {
      ins.rd = cur.parse_reg();
      cur.expect_comma();
      const std::uint32_t value = cur.parse_immediate();
      if (value > 0xffffU) {
        cur.fail("movw/movt immediate must fit 16 bits");
      }
      ins.imm16 = static_cast<std::uint16_t>(value);
      break;
    }
    case opcode::mul: {
      ins.rd = cur.parse_reg();
      cur.expect_comma();
      ins.rn = cur.parse_reg();
      cur.expect_comma();
      ins.op2 = operand2::make_reg(cur.parse_reg());
      break;
    }
    case opcode::mla: {
      ins.rd = cur.parse_reg();
      cur.expect_comma();
      ins.rn = cur.parse_reg();
      cur.expect_comma();
      ins.op2 = operand2::make_reg(cur.parse_reg());
      cur.expect_comma();
      ins.ra = cur.parse_reg();
      break;
    }
    case opcode::ldr:
    case opcode::ldrb:
    case opcode::ldrh:
    case opcode::str:
    case opcode::strb:
    case opcode::strh: {
      ins.rd = cur.parse_reg();
      cur.expect_comma();
      ins.mem = parse_mem(cur);
      break;
    }
    case opcode::b:
    case opcode::bl: {
      if (cur.peek().kind == token_kind::identifier) {
        const std::string name = cur.next().text;
        const auto target = prog_.symbols.find(name);
        if (target == prog_.symbols.end()) {
          throw assembly_error("undefined label '" + name + "'", stmt.line, 1);
        }
        if (target->second < prog_.code_base ||
            (target->second - prog_.code_base) % 4 != 0) {
          throw assembly_error("branch target '" + name +
                                   "' is not a text label",
                               stmt.line, 1);
        }
        const auto target_idx =
            static_cast<std::int64_t>((target->second - prog_.code_base) / 4);
        ins.branch_offset = static_cast<std::int32_t>(
            target_idx - (static_cast<std::int64_t>(prog_.code.size()) + 1));
      } else {
        ins.branch_offset = static_cast<std::int32_t>(cur.parse_immediate());
      }
      break;
    }
    case opcode::bx: {
      ins.op2 = operand2::make_reg(cur.parse_reg());
      break;
    }
    case opcode::mark: {
      const std::uint32_t id = cur.parse_immediate();
      if (id > 0xffffU) {
        cur.fail("mark id must fit 16 bits");
      }
      ins.imm16 = static_cast<std::uint16_t>(id);
      break;
    }
    case opcode::halt:
      break;
    default: { // three-operand data-processing
      ins.rd = cur.parse_reg();
      cur.expect_comma();
      ins.rn = cur.parse_reg();
      cur.expect_comma();
      ins.op2 = parse_operand2(cur);
      check_dp_immediate(cur, ins.op2);
      break;
    }
    }
    cur.expect_end();
    prog_.code.push_back(ins);
  }

  static std::size_t align_up(std::size_t value, std::size_t alignment) {
    return (value + alignment - 1) / alignment * alignment;
  }

  void pad_data_to(std::size_t size) {
    if (prog_.data.size() < size) {
      prog_.data.resize(size, 0);
    }
  }

  program prog_;
};

} // namespace

program assemble(std::string_view source, const assemble_options& opts) {
  assembler a(opts);
  return a.run(source);
}

} // namespace usca::asmx
