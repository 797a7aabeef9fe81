#ifndef APLUS_QUERY_LEXER_H_
#define APLUS_QUERY_LEXER_H_

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

#include "storage/value.h"
#include "util/ascii.h"
#include "view/predicate.h"

namespace aplus {
namespace lex {

// The lexical layer shared by the Cypher parser and the index DDL parser
// (query/ddl_parser.h); query/cypher_parser.h documents the rules.

// Overflow-safe literal conversions: user text is untrusted, so an
// over-long number must surface as a parse error, never as a thrown
// std::out_of_range. Each requires the whole token to convert.
template <typename T>
bool ParseNumberLiteral(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// A token's text is a view into the parsed text. kOp tokens also carry
// their operator code (OpCode), so a grammar matches operators with one
// integer compare.
struct Token {
  enum class Kind { kIdent, kNumber, kString, kParam, kOp, kEnd };
  Kind kind = Kind::kEnd;
  uint16_t op = 0;
  std::string_view text;
};

// The code of a one- or two-character operator: the first byte, plus the
// second shifted up a byte.
constexpr uint16_t OpCode(char first, char second = '\0') {
  return static_cast<uint16_t>(static_cast<uint8_t>(first) |
                               (static_cast<uint8_t>(second) << 8));
}

// Byte classes of the lexer, one table load per byte. The classes match
// util/ascii.h: whitespace is the "C" locale's space class, and bytes >=
// 0x80 belong to none.
enum : uint8_t { kSpace = 1, kDigit = 2, kIdentStart = 4, kIdentChar = 8 };
struct CharClasses {
  uint8_t of[256] = {};
  constexpr CharClasses() {
    for (int c = 0; c < 256; ++c) {
      const char ch = static_cast<char>(c);
      if (IsAsciiSpace(ch)) of[c] |= kSpace;
      if (IsAsciiDigit(ch)) of[c] |= kDigit | kIdentChar;
      if (IsAsciiAlpha(ch) || ch == '_') of[c] |= kIdentStart | kIdentChar;
    }
  }
};
inline constexpr CharClasses kCharClasses;

// Lexes on demand, one token per call, straight off the text: nothing is
// buffered, so no storage outlives the parse. A string literal runs to
// the next quote (there are no escapes); parsers reject a text with an
// unterminated one (HasUnterminatedString) before lexing it.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token Next() {
    const char* const end = text_.data() + text_.size();
    const char* p = text_.data() + pos_;
    while (p < end && Is(*p, kSpace)) ++p;
    if (p >= end) {
      pos_ = text_.size();
      return Token{};
    }
    const char* const start = p;
    const char c = *p++;
    Token token;
    if (c == '\'') {
      // Single-quoted string literal, no escapes.
      while (p < end && *p != '\'') ++p;
      token.kind = Token::Kind::kString;
      token.text = std::string_view(start + 1, static_cast<size_t>(p - start - 1));
      if (p < end) ++p;
    } else if (Is(c, kDigit)) {
      while (p < end && (Is(*p, kDigit) || *p == '.')) ++p;
      token.kind = Token::Kind::kNumber;
    } else if (Is(c, kIdentStart)) {
      while (p < end && Is(*p, kIdentChar)) ++p;
      token.kind = Token::Kind::kIdent;
    } else if (c == '$' && p < end && Is(*p, kIdentChar)) {
      // $name parameter placeholder. A bare '$' falls through as an
      // operator token and errors downstream.
      while (p < end && Is(*p, kIdentChar)) ++p;
      token.kind = Token::Kind::kParam;
      token.text = std::string_view(start + 1, static_cast<size_t>(p - start - 1));
    } else {
      // Two-character operators: <= >= <> <- ->.
      const char next = p < end ? *p : '\0';
      const bool two = (c == '<' && (next == '=' || next == '>' || next == '-')) ||
                       (c == '>' && next == '=') || (c == '-' && next == '>');
      if (two) ++p;
      token.kind = Token::Kind::kOp;
      token.op = OpCode(c, two ? next : '\0');
    }
    if (token.kind != Token::Kind::kString && token.kind != Token::Kind::kParam) {
      token.text = std::string_view(start, static_cast<size_t>(p - start));
    }
    pos_ = static_cast<size_t>(p - text_.data());
    return token;
  }

 private:
  static bool Is(char c, uint8_t cls) {
    return (kCharClasses.of[static_cast<uint8_t>(c)] & cls) != 0;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// Quotes pair up from the left (no other token holds one), so an odd
// count means the last string literal never closes. Parsers report that
// as "unterminated string literal" before any other error, wherever the
// literal sits.
inline bool HasUnterminatedString(std::string_view text) {
  return text.find('\'') != std::string_view::npos &&
         std::count(text.begin(), text.end(), '\'') % 2 != 0;
}

// Case-insensitive match of an identifier against an upper-case keyword.
inline bool IsKeyword(std::string_view ident, std::string_view keyword) {
  if (ident.size() != keyword.size()) return false;
  for (size_t i = 0; i < ident.size(); ++i) {
    if (AsciiToUpper(ident[i]) != keyword[i]) return false;
  }
  return true;
}

// A grammar's view of the token stream: the current token, one token of
// lookahead, and the steps both grammars share. A failed step writes its
// message to the parser's error string and returns false.
class Cursor {
 public:
  Cursor(std::string_view text, std::string* error)
      : lexer_(text), cur_(lexer_.Next()), error_(error) {}

  const Token& Peek() const { return cur_; }

  // The token after Peek(), lexed on first use.
  const Token& PeekNext() {
    if (!has_next_) {
      next_ = lexer_.Next();
      has_next_ = true;
    }
    return next_;
  }

  void Advance() {
    if (has_next_) {
      cur_ = next_;
      has_next_ = false;
    } else {
      cur_ = lexer_.Next();
    }
  }

  static bool IsOp(const Token& token, std::string_view op) {
    return token.kind == Token::Kind::kOp &&
           token.op == OpCode(op[0], op.size() > 1 ? op[1] : '\0');
  }

  bool Accept(std::string_view op) {
    if (IsOp(Peek(), op)) {
      Advance();
      return true;
    }
    return false;
  }

  bool AcceptKeyword(std::string_view kw) {
    if (Peek().kind == Token::Kind::kIdent && IsKeyword(Peek().text, kw)) {
      Advance();
      return true;
    }
    return false;
  }

  // Consumes `word`: a keyword when it starts with a letter, else an
  // operator.
  bool Expect(std::string_view word) {
    if (IsAsciiAlpha(word[0]) ? AcceptKeyword(word) : Accept(word)) return true;
    *error_ = "expected '" + std::string(word) + "', got '" + std::string(Peek().text) + "'";
    return false;
  }

  // = <> <= >= < >
  bool ExpectCmpOp(CmpOp* op) {
    if (Accept("=")) {
      *op = CmpOp::kEq;
    } else if (Accept("<>")) {
      *op = CmpOp::kNe;
    } else if (Accept("<=")) {
      *op = CmpOp::kLe;
    } else if (Accept(">=")) {
      *op = CmpOp::kGe;
    } else if (Accept("<")) {
      *op = CmpOp::kLt;
    } else if (Accept(">")) {
      *op = CmpOp::kGt;
    } else {
      *error_ = "expected comparison operator, got '" + std::string(Peek().text) + "'";
      return false;
    }
    return true;
  }

  // Consumes the kNumber token Peek() as an int64 literal, or as a double
  // when it holds a '.'.
  bool ParseNumber(Value* out) {
    const std::string_view text = Peek().text;
    Advance();
    if (text.find('.') != std::string_view::npos) {
      double d = 0.0;
      if (!ParseNumberLiteral(text, &d)) {
        *error_ = "malformed numeric literal '" + std::string(text) + "'";
        return false;
      }
      *out = Value::Double(d);
    } else {
      int64_t v = 0;
      if (!ParseNumberLiteral(text, &v)) {
        *error_ = "integer literal out of range '" + std::string(text) + "'";
        return false;
      }
      *out = Value::Int64(v);
    }
    return true;
  }

  // [+ <int>] after a property reference on a comparison's right-hand
  // side (the paper's money-flow predicates); *addend is untouched when
  // there is no '+'.
  bool AcceptAddend(int64_t* addend) {
    if (!Accept("+")) return true;
    if (Peek().kind != Token::Kind::kNumber || !ParseNumberLiteral(Peek().text, addend)) {
      *error_ = "expected integer addend";
      return false;
    }
    Advance();
    return true;
  }

 private:
  Lexer lexer_;
  Token cur_;   // Peek()
  Token next_;  // PeekNext(), when has_next_
  bool has_next_ = false;
  std::string* error_;
};

}  // namespace lex
}  // namespace aplus

#endif  // APLUS_QUERY_LEXER_H_
