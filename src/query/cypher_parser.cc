#include "query/cypher_parser.h"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <vector>

#include "util/ascii.h"

namespace aplus {

namespace {

// Overflow-safe literal conversions: serving text is untrusted, so an
// over-long number must surface as a parse error, never as a thrown
// std::out_of_range. Each requires the whole token to convert.
template <typename T>
bool ParseNumberLiteral(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// A token's text is a view into the query text. kOp tokens also carry
// their operator code (OpCode), so the grammar matches operators with one
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
constexpr CharClasses kCharClasses;

// Lexes on demand, one token per call, straight off the text: nothing is
// buffered, so no storage outlives the parse. A string literal runs to
// the next quote (there are no escapes); the Parser rejects a text with an
// unterminated one before lexing it.
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

// Case-insensitive match of an identifier against an upper-case keyword.
bool IsKeyword(std::string_view ident, std::string_view keyword) {
  if (ident.size() != keyword.size()) return false;
  for (size_t i = 0; i < ident.size(); ++i) {
    if (AsciiToUpper(ident[i]) != keyword[i]) return false;
  }
  return true;
}

class Parser {
 public:
  Parser(std::string_view text, const Catalog& catalog)
      : catalog_(catalog), text_(text), lexer_(text), cur_(lexer_.Next()) {}

  ParsedCypher Parse() {
    ParseQuery();
    return std::move(result_);
  }

 private:
  // Fills result_; on failure result_.error says why.
  void ParseQuery() {
    // Quotes pair up from the left (no other token holds one), so an odd
    // count means the last string literal never closes. That error wins
    // over any other, wherever the literal sits.
    if (text_.find('\'') != std::string_view::npos &&
        std::count(text_.begin(), text_.end(), '\'') % 2 != 0) {
      result_.error = "unterminated string literal";
      return;
    }
    if (!AcceptKeyword("MATCH")) {
      result_.error = "query must start with MATCH";
      return;
    }
    // Every query vertex opens a '(', every edge a '[', and conjuncts are
    // mostly comma-separated: those counts bound the pattern and the WHERE
    // clause, so their vectors are allocated once. One branch-free pass
    // (it vectorizes) counts all three.
    size_t parens = 0;
    size_t brackets = 0;
    size_t commas = 0;
    for (char c : text_) {
      parens += c == '(';
      brackets += c == '[';
      commas += c == ',';
    }
    result_.query.Reserve(parens, brackets, commas + 1);
    do {
      if (!ParsePattern()) return;
    } while (Accept(","));
    if (AcceptKeyword("WHERE")) {
      do {
        if (!ParseCondition()) return;
      } while (Accept(",") || AcceptKeyword("AND"));
    }
    if (AcceptKeyword("RETURN")) {
      if (!ParseReturn()) return;
    }
    if (AcceptKeyword("ORDER")) {
      if (!ParseOrderBy()) return;
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().kind != Token::Kind::kNumber ||
          Peek().text.find('.') != std::string_view::npos ||
          !ParseNumberLiteral(Peek().text, &result_.limit)) {
        result_.error = "expected non-negative integer after LIMIT";
        return;
      }
      result_.has_limit = true;
      Advance();
    }
    if (Peek().kind != Token::Kind::kEnd) {
      result_.error = "unexpected trailing token '" + std::string(Peek().text) + "'";
    }
  }

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

  bool Expect(std::string_view op) {
    if (Accept(op)) return true;
    result_.error = "expected '" + std::string(op) + "', got '" + std::string(Peek().text) + "'";
    return false;
  }

  // (name[:Label])
  int ParseNode() {
    if (!Expect("(")) return -1;
    if (Peek().kind != Token::Kind::kIdent) {
      result_.error = "expected node variable";
      return -1;
    }
    std::string_view name = Peek().text;
    Advance();
    label_t label = kInvalidLabel;
    if (Accept(":")) {
      if (Peek().kind != Token::Kind::kIdent) {
        result_.error = "expected node label";
        return -1;
      }
      label = catalog_.FindVertexLabel(Peek().text);
      if (label == kInvalidLabel) {
        result_.error = "unknown vertex label " + std::string(Peek().text);
        return -1;
      }
      Advance();
    }
    if (!Expect(")")) return -1;
    int var = result_.query.FindVertex(name);
    if (var < 0) {
      var = result_.query.AddVertex(name, label);
    } else if (label != kInvalidLabel) {
      result_.query.mutable_vertex(var).label = label;
    }
    return var;
  }

  // node (edge node)*
  bool ParsePattern() {
    int prev = ParseNode();
    if (prev < 0) return false;
    while (true) {
      bool backward = false;
      if (Accept("-")) {
        backward = false;
      } else if (Accept("<-")) {
        backward = true;
      } else {
        return true;  // pattern ends at a node
      }
      // [name][:Label] inside brackets (both optional).
      std::string_view edge_name;
      label_t edge_label = kInvalidLabel;
      if (!Expect("[")) return false;
      if (Peek().kind == Token::Kind::kIdent) {
        edge_name = Peek().text;
        if (result_.query.FindEdge(edge_name) >= 0) {
          result_.error = "duplicate edge variable " + std::string(edge_name);
          return false;
        }
        Advance();
      }
      if (Accept(":")) {
        if (Peek().kind != Token::Kind::kIdent) {
          result_.error = "expected edge label";
          return false;
        }
        edge_label = catalog_.FindEdgeLabel(Peek().text);
        if (edge_label == kInvalidLabel) {
          result_.error = "unknown edge label " + std::string(Peek().text);
          return false;
        }
        Advance();
      }
      if (!Expect("]")) return false;
      if (backward) {
        if (!Expect("-")) return false;
      } else {
        if (!Expect("->")) return false;
      }
      int next = ParseNode();
      if (next < 0) return false;
      if (backward) {
        result_.query.AddEdge(next, prev, edge_label, edge_name);
      } else {
        result_.query.AddEdge(prev, next, edge_label, edge_name);
      }
      prev = next;
    }
  }

  // Resolves a variable name into ref->var / ref->is_edge: a query
  // vertex, else the query edge the text gives that name. False, with
  // `ref` untouched, when neither exists.
  bool ResolveVar(std::string_view name, QueryPropRef* ref) const {
    int var = result_.query.FindVertex(name);
    const bool is_edge = var < 0;
    if (is_edge) var = result_.query.FindEdge(name);
    if (var < 0) return false;
    ref->var = var;
    ref->is_edge = is_edge;
    return true;
  }

  // <var>.<prop> | <var>.ID. `resolved`: the caller already resolved
  // <var> into ref->var / ref->is_edge.
  bool ParseRef(QueryPropRef* ref, bool resolved = false) {
    if (Peek().kind != Token::Kind::kIdent) {
      result_.error = "expected variable reference";
      return false;
    }
    std::string_view var_name = Peek().text;
    Advance();
    if (!Expect(".")) return false;
    if (Peek().kind != Token::Kind::kIdent) {
      result_.error = "expected property name after '.'";
      return false;
    }
    std::string_view prop = Peek().text;
    Advance();
    if (!resolved && !ResolveVar(var_name, ref)) {
      result_.error = "unknown variable " + std::string(var_name);
      return false;
    }
    if (IsKeyword(prop, "ID")) {
      ref->is_id = true;
      return true;
    }
    ref->key = catalog_.FindProperty(
        prop, ref->is_edge ? PropTargetKind::kEdge : PropTargetKind::kVertex);
    if (ref->key == kInvalidPropKey) {
      result_.error = "unknown property " + std::string(prop);
      return false;
    }
    return true;
  }

  // AggFn of an identifier token, kNone when it is not an aggregate name.
  static AggFn AggFnOf(std::string_view ident) {
    if (IsKeyword(ident, "COUNT")) return AggFn::kCount;
    if (IsKeyword(ident, "SUM")) return AggFn::kSum;
    if (IsKeyword(ident, "MIN")) return AggFn::kMin;
    if (IsKeyword(ident, "MAX")) return AggFn::kMax;
    if (IsKeyword(ident, "AVG")) return AggFn::kAvg;
    return AggFn::kNone;
  }

  // <var> | <var>.<prop> | <var>.ID, shared by RETURN items, aggregate
  // arguments, and ORDER BY keys. Bare variables project the bound id.
  bool ParseProjectionRef(ReturnItem* item, const char* clause) {
    if (Peek().kind != Token::Kind::kIdent) {
      result_.error = std::string("expected variable reference in ") + clause;
      return false;
    }
    std::string_view var_name = Peek().text;
    if (IsOp(PeekNext(), ".")) {
      if (!ParseRef(&item->ref)) {
        // ParseRef reports unknown variables/properties; sharpen the
        // clause context for the common failure mode.
        result_.error += std::string(" (in ") + clause + ")";
        return false;
      }
      item->name = std::string(var_name) + "." + (item->ref.is_id ? "ID" : PropName(item->ref.key));
      return true;
    }
    Advance();
    if (!ResolveVar(var_name, &item->ref)) {
      result_.error = "unknown variable " + std::string(var_name) + " in " + clause;
      return false;
    }
    item->ref.is_id = true;
    item->name = std::string(var_name);
    return true;
  }

  // item := AGG '(' '*' | ref ')' | ref, where AGG is COUNT / SUM / MIN
  // / MAX / AVG and ref := <var> | <var>.<prop> | <var>.ID.
  bool ParseReturnItem(ReturnItem* item, const char* clause) {
    AggFn fn = Peek().kind == Token::Kind::kIdent ? AggFnOf(Peek().text) : AggFn::kNone;
    bool is_call = fn != AggFn::kNone && IsOp(PeekNext(), "(");
    if (!is_call) return ParseProjectionRef(item, clause);
    Advance();
    if (!Expect("(")) return false;
    item->agg = fn;
    if (Accept("*")) {
      if (fn != AggFn::kCount) {
        result_.error = std::string(ToString(fn)) + "(*) is not supported; COUNT(*) only";
        return false;
      }
      item->star = true;
      item->name = "COUNT(*)";
      return Expect(")");
    }
    if (!ParseProjectionRef(item, clause)) return false;
    if (!Expect(")")) return false;
    if (fn != AggFn::kCount) {
      // SUM/MIN/MAX/AVG need a numeric argument; ids count as int64.
      ValueType type = item->ref.is_id ? ValueType::kInt64 : catalog_.property(item->ref.key).type;
      if (type != ValueType::kInt64 && type != ValueType::kDouble) {
        result_.error = std::string(ToString(fn)) + "(" + item->name +
                        ") requires an int64 or double argument";
        return false;
      }
    }
    item->name = std::string(ToString(fn)) + "(" + item->name + ")";
    return true;
  }

  // item (, item)*; bare items double as group keys when aggregates are
  // present (implicit GROUP BY).
  bool ParseReturn() {
    // RETURN DISTINCT <items>: dedup of the projected rows. Aggregates
    // already emit one row per group, so combining the two is redundant
    // at best and ambiguous at worst (DISTINCT inside vs over the
    // aggregation) — rejected rather than silently picking one.
    if (AcceptKeyword("DISTINCT")) result_.distinct = true;
    do {
      ReturnItem item;
      if (!ParseReturnItem(&item, "RETURN")) return false;
      if (item.agg != AggFn::kNone) result_.has_aggregate = true;
      result_.returns.push_back(std::move(item));
    } while (Accept(","));
    if (result_.distinct && result_.has_aggregate) {
      result_.error = "RETURN DISTINCT cannot be combined with aggregates";
      return false;
    }
    return true;
  }

  // ORDER BY key [ASC|DESC] (, key [ASC|DESC])*. Keys are matched
  // against the RETURN items by rendered name (aggregation makes any
  // other target ill-defined).
  bool ParseOrderBy() {
    if (!AcceptKeyword("BY")) {
      result_.error = "expected BY after ORDER";
      return false;
    }
    if (result_.returns.empty()) {
      result_.error = "ORDER BY requires a RETURN projection";
      return false;
    }
    do {
      ReturnItem key;
      if (!ParseReturnItem(&key, "ORDER BY")) return false;
      OrderByItem order;
      for (size_t i = 0; i < result_.returns.size(); ++i) {
        if (result_.returns[i].name == key.name) {
          order.item = static_cast<int>(i);
          break;
        }
      }
      if (order.item < 0) {
        result_.error = "ORDER BY key " + key.name + " is not a RETURN item";
        return false;
      }
      if (AcceptKeyword("DESC")) {
        order.desc = true;
      } else {
        AcceptKeyword("ASC");
      }
      result_.order_by.push_back(order);
    } while (Accept(","));
    return true;
  }

  const std::string& PropName(prop_key_t key) const { return catalog_.property(key).name; }

  // Registers (or re-finds) parameter $name with the given expected
  // type; -1 and a parse error when the name is reused with a
  // conflicting expectation.
  int RegisterParam(std::string_view name, ValueType expected, prop_key_t key) {
    for (size_t i = 0; i < result_.params.size(); ++i) {
      CypherParam& p = result_.params[i];
      if (p.name != name) continue;
      if (p.expected != expected || p.key != key) {
        result_.error = "parameter $" + std::string(name) + " used with conflicting types";
        return -1;
      }
      return static_cast<int>(i);
    }
    CypherParam p;
    p.name = std::string(name);
    p.expected = expected;
    p.key = key;
    result_.params.push_back(std::move(p));
    return static_cast<int>(result_.params.size() - 1);
  }

  bool ParseCondition() {
    QueryComparison cmp;
    if (!ParseRef(&cmp.lhs)) return false;
    if (Accept("=")) {
      cmp.op = CmpOp::kEq;
    } else if (Accept("<>")) {
      cmp.op = CmpOp::kNe;
    } else if (Accept("<=")) {
      cmp.op = CmpOp::kLe;
    } else if (Accept(">=")) {
      cmp.op = CmpOp::kGe;
    } else if (Accept("<")) {
      cmp.op = CmpOp::kLt;
    } else if (Accept(">")) {
      cmp.op = CmpOp::kGt;
    } else {
      result_.error = "expected comparison operator, got '" + std::string(Peek().text) + "'";
      return false;
    }
    // Right-hand side: literal, <var>.<prop> [+ int], or identifier
    // (category value name of the lhs property).
    const Token rhs = Peek();
    if (rhs.kind == Token::Kind::kNumber) {
      Advance();
      if (rhs.text.find('.') != std::string_view::npos) {
        double d = 0.0;
        if (!ParseNumberLiteral(rhs.text, &d)) {
          result_.error = "malformed numeric literal '" + std::string(rhs.text) + "'";
          return false;
        }
        cmp.rhs_const = Value::Double(d);
      } else {
        int64_t v = 0;
        if (!ParseNumberLiteral(rhs.text, &v)) {
          result_.error = "integer literal out of range '" + std::string(rhs.text) + "'";
          return false;
        }
        cmp.rhs_const = Value::Int64(v);
      }
    } else if (rhs.kind == Token::Kind::kString) {
      Advance();
      cmp.rhs_const = Value::String(std::string(rhs.text));
    } else if (rhs.kind == Token::Kind::kParam) {
      Advance();
      // `<vertex>.ID = $p` is a parameter pin: the plan is optimized
      // around a pinned vertex whose id is patched at bind time. A
      // vertex can carry only one pin — further ID equalities become
      // ordinary predicates so conjunctions keep intersection semantics
      // instead of the later pin overwriting the earlier one.
      if (!cmp.lhs.is_edge && cmp.lhs.is_id && cmp.op == CmpOp::kEq &&
          !VertexIsPinned(cmp.lhs.var)) {
        int idx = RegisterParam(rhs.text, ValueType::kInt64, kInvalidPropKey);
        if (idx < 0) return false;
        CypherParam& param = result_.params[idx];
        if (param.pin_var >= 0 && param.pin_var != cmp.lhs.var) {
          result_.error = "parameter $" + std::string(rhs.text) + " pins multiple variables";
          return false;
        }
        param.pin_var = cmp.lhs.var;
        result_.query.mutable_vertex(cmp.lhs.var).bound_param = idx;
        return true;
      }
      ValueType expected =
          cmp.lhs.is_id ? ValueType::kInt64 : catalog_.property(cmp.lhs.key).type;
      int idx = RegisterParam(rhs.text, expected,
                              cmp.lhs.is_id ? kInvalidPropKey : cmp.lhs.key);
      if (idx < 0) return false;
      cmp.rhs_param = idx;  // rhs_const stays null until bound
    } else if (rhs.kind == Token::Kind::kIdent) {
      // <var>.<prop> reference, or a bare category-value identifier.
      if (IsOp(PeekNext(), ".") && ResolveVar(rhs.text, &cmp.rhs_ref)) {
        cmp.rhs_is_const = false;
        if (!ParseRef(&cmp.rhs_ref, /*resolved=*/true)) return false;
        if (Accept("+")) {
          if (Peek().kind != Token::Kind::kNumber ||
              !ParseNumberLiteral(Peek().text, &cmp.rhs_addend)) {
            result_.error = "expected integer addend";
            return false;
          }
          Advance();
        }
      } else {
        Advance();
        if (cmp.lhs.key == kInvalidPropKey ||
            catalog_.property(cmp.lhs.key).type != ValueType::kCategory) {
          result_.error = "identifier constant '" + std::string(rhs.text) +
                          "' requires a categorical left-hand property";
          return false;
        }
        category_t cat = catalog_.FindCategoryValue(cmp.lhs.key, rhs.text);
        if (cat == kInvalidCategory) {
          result_.error = "unknown category value " + std::string(rhs.text);
          return false;
        }
        cmp.rhs_const = Value::Category(cat);
      }
    } else {
      result_.error = "expected right-hand side";
      return false;
    }
    // `<vertex>.ID = <int>` pins the vertex — at most once; a second ID
    // equality stays a predicate (see the $param pin note above).
    if (!cmp.lhs.is_edge && cmp.lhs.is_id && cmp.op == CmpOp::kEq && cmp.rhs_is_const &&
        cmp.rhs_param < 0 && cmp.rhs_const.type() == ValueType::kInt64 &&
        !VertexIsPinned(cmp.lhs.var)) {
      result_.query.mutable_vertex(cmp.lhs.var).bound =
          static_cast<vertex_id_t>(cmp.rhs_const.AsInt64());
      return true;
    }
    result_.query.AddPredicate(std::move(cmp));
    return true;
  }

  // True when the vertex already carries a literal or $param ID pin.
  bool VertexIsPinned(int var) const {
    const QueryVertex& qv = result_.query.vertex(var);
    return qv.bound != kInvalidVertex || qv.bound_param >= 0;
  }

  const Catalog& catalog_;
  const std::string_view text_;
  Lexer lexer_;
  Token cur_;   // Peek()
  Token next_;  // PeekNext(), when has_next_
  bool has_next_ = false;
  ParsedCypher result_;
};

}  // namespace

ParsedCypher ParseCypher(const std::string& text, const Catalog& catalog) {
  Parser parser(text, catalog);
  return parser.Parse();
}

}  // namespace aplus
