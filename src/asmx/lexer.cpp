#include "asmx/lexer.h"

#include <cctype>

#include "util/error.h"

namespace usca::asmx {

namespace {

bool is_ident_start(char ch) noexcept {
  return std::isalpha(static_cast<unsigned char>(ch)) || ch == '_' ||
         ch == '.';
}

bool is_ident_char(char ch) noexcept {
  return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
         ch == '.';
}

} // namespace

std::vector<token> tokenize_line(std::string_view text, int line) {
  std::vector<token> tokens;
  std::size_t pos = 0;
  const std::size_t len = text.size();

  const auto column = [&]() { return static_cast<int>(pos) + 1; };

  while (pos < len) {
    const char ch = text[pos];
    if (ch == ' ' || ch == '\t' || ch == '\r') {
      ++pos;
      continue;
    }
    if (ch == ';' || ch == '@' ||
        (ch == '/' && pos + 1 < len && text[pos + 1] == '/')) {
      break; // comment to end of line
    }
    token tok;
    tok.column = column();
    switch (ch) {
    case ',':
      tok.kind = token_kind::comma;
      ++pos;
      tokens.push_back(tok);
      continue;
    case ':':
      tok.kind = token_kind::colon;
      ++pos;
      tokens.push_back(tok);
      continue;
    case '#':
      tok.kind = token_kind::hash;
      ++pos;
      tokens.push_back(tok);
      continue;
    case '[':
      tok.kind = token_kind::lbracket;
      ++pos;
      tokens.push_back(tok);
      continue;
    case ']':
      tok.kind = token_kind::rbracket;
      ++pos;
      tokens.push_back(tok);
      continue;
    case '(':
      tok.kind = token_kind::lparen;
      ++pos;
      tokens.push_back(tok);
      continue;
    case ')':
      tok.kind = token_kind::rparen;
      ++pos;
      tokens.push_back(tok);
      continue;
    case '-':
      tok.kind = token_kind::minus;
      ++pos;
      tokens.push_back(tok);
      continue;
    case '+':
      tok.kind = token_kind::plus;
      ++pos;
      tokens.push_back(tok);
      continue;
    default:
      break;
    }

    if (std::isdigit(static_cast<unsigned char>(ch))) {
      // Refused as soon as the value passes 32 bits, so no digit string is
      // long enough to wrap the accumulator.
      std::uint64_t value = 0;
      const auto accumulate = [&](unsigned base, unsigned digit) {
        value = value * base + digit;
        if (value > 0xffffffffULL) {
          throw util::assembly_error("integer literal exceeds 32 bits", line,
                                     tok.column);
        }
      };
      if (ch == '0' && pos + 1 < len &&
          (text[pos + 1] == 'x' || text[pos + 1] == 'X')) {
        pos += 2;
        const std::size_t digits_start = pos;
        while (pos < len &&
               std::isxdigit(static_cast<unsigned char>(text[pos]))) {
          const char d = text[pos];
          const int nibble =
              std::isdigit(static_cast<unsigned char>(d))
                  ? d - '0'
                  : 10 + (std::tolower(static_cast<unsigned char>(d)) - 'a');
          accumulate(16, static_cast<unsigned>(nibble));
          ++pos;
        }
        if (pos == digits_start) {
          throw util::assembly_error("malformed hexadecimal literal", line,
                                     tok.column);
        }
      } else if (ch == '0' && pos + 1 < len &&
                 (text[pos + 1] == 'b' || text[pos + 1] == 'B')) {
        pos += 2;
        const std::size_t digits_start = pos;
        while (pos < len && (text[pos] == '0' || text[pos] == '1')) {
          accumulate(2, static_cast<unsigned>(text[pos] - '0'));
          ++pos;
        }
        if (pos == digits_start) {
          throw util::assembly_error("malformed binary literal", line,
                                     tok.column);
        }
      } else {
        while (pos < len && std::isdigit(static_cast<unsigned char>(text[pos]))) {
          accumulate(10, static_cast<unsigned>(text[pos] - '0'));
          ++pos;
        }
      }
      tok.kind = token_kind::integer;
      tok.value = static_cast<std::uint32_t>(value);
      tokens.push_back(tok);
      continue;
    }

    if (is_ident_start(ch)) {
      std::size_t start = pos;
      while (pos < len && is_ident_char(text[pos])) {
        ++pos;
      }
      tok.kind = token_kind::identifier;
      tok.text = std::string(text.substr(start, pos - start));
      for (char& c : tok.text) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      tokens.push_back(tok);
      continue;
    }

    throw util::assembly_error(std::string("unexpected character '") + ch +
                                   "'",
                               line, tok.column);
  }

  token eol;
  eol.kind = token_kind::end;
  eol.column = column();
  tokens.push_back(eol);
  return tokens;
}

} // namespace usca::asmx
