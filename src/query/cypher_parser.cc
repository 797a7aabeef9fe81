#include "query/cypher_parser.h"

#include <cctype>
#include <charconv>
#include <string_view>
#include <vector>

namespace aplus {

namespace {

// Overflow-safe literal conversions: serving text is untrusted, so an
// over-long number must surface as a parse error, never as a thrown
// std::out_of_range. Each requires the whole token to convert.
template <typename T>
bool ParseNumberLiteral(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

struct Token {
  enum class Kind { kIdent, kNumber, kString, kParam, kOp, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Token Next() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ >= text_.size()) return Token{Token::Kind::kEnd, ""};
    char c = text_[pos_];
    if (c == '\'') {
      // Single-quoted string literal.
      size_t end = text_.find('\'', pos_ + 1);
      if (end == std::string::npos) {
        pos_ = text_.size();
        return Token{Token::Kind::kString, ""};
      }
      Token token{Token::Kind::kString, text_.substr(pos_ + 1, end - pos_ - 1)};
      pos_ = end + 1;
      return token;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      while (pos_ < text_.size() && (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                                     text_[pos_] == '.')) {
        ++pos_;
      }
      return Token{Token::Kind::kNumber, text_.substr(start, pos_ - start)};
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < text_.size() && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                                     text_[pos_] == '_')) {
        ++pos_;
      }
      return Token{Token::Kind::kIdent, text_.substr(start, pos_ - start)};
    }
    if (c == '$') {
      // $name parameter placeholder. A bare '$' falls through as an
      // operator token and errors downstream.
      size_t start = pos_ + 1;
      size_t end = start;
      while (end < text_.size() && (std::isalnum(static_cast<unsigned char>(text_[end])) ||
                                    text_[end] == '_')) {
        ++end;
      }
      if (end > start) {
        pos_ = end;
        return Token{Token::Kind::kParam, text_.substr(start, end - start)};
      }
    }
    // Multi-character operators.
    static const char* kMulti[] = {"<=", ">=", "<>", "->", "<-"};
    for (const char* op : kMulti) {
      if (text_.compare(pos_, 2, op) == 0) {
        pos_ += 2;
        return Token{Token::Kind::kOp, op};
      }
    }
    ++pos_;
    return Token{Token::Kind::kOp, std::string(1, c)};
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

// Case-insensitive match of an identifier against an upper-case keyword.
bool IsKeyword(std::string_view ident, std::string_view keyword) {
  if (ident.size() != keyword.size()) return false;
  for (size_t i = 0; i < ident.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(ident[i])) != keyword[i]) return false;
  }
  return true;
}

class Parser {
 public:
  Parser(const std::string& text, const Catalog& catalog) : catalog_(catalog) {
    Lexer lexer(text);
    for (Token token = lexer.Next();; token = lexer.Next()) {
      const bool end = token.kind == Token::Kind::kEnd;
      tokens_.push_back(std::move(token));
      if (end) break;
    }
  }

  ParsedCypher Parse() {
    if (!AcceptKeyword("MATCH")) {
      result_.error = "query must start with MATCH";
      return result_;
    }
    do {
      if (!ParsePattern()) return result_;
    } while (Accept(","));
    if (AcceptKeyword("WHERE")) {
      do {
        if (!ParseCondition()) return result_;
      } while (Accept(",") || AcceptKeyword("AND"));
    }
    if (AcceptKeyword("RETURN")) {
      if (!ParseReturn()) return result_;
    }
    if (AcceptKeyword("ORDER")) {
      if (!ParseOrderBy()) return result_;
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().kind != Token::Kind::kNumber ||
          Peek().text.find('.') != std::string::npos ||
          !ParseNumberLiteral(Peek().text, &result_.limit)) {
        result_.error = "expected non-negative integer after LIMIT";
        return result_;
      }
      result_.has_limit = true;
      ++pos_;
    }
    if (Peek().kind != Token::Kind::kEnd) {
      result_.error = "unexpected trailing token '" + Peek().text + "'";
    }
    return result_;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  bool Accept(std::string_view op) {
    if (Peek().kind == Token::Kind::kOp && Peek().text == op) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AcceptKeyword(std::string_view kw) {
    if (Peek().kind == Token::Kind::kIdent && IsKeyword(Peek().text, kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Expect(std::string_view op) {
    if (Accept(op)) return true;
    result_.error = "expected '" + std::string(op) + "', got '" + Peek().text + "'";
    return false;
  }

  // (name[:Label])
  int ParseNode() {
    if (!Expect("(")) return -1;
    if (Peek().kind != Token::Kind::kIdent) {
      result_.error = "expected node variable";
      return -1;
    }
    std::string name = Peek().text;
    ++pos_;
    label_t label = kInvalidLabel;
    if (Accept(":")) {
      if (Peek().kind != Token::Kind::kIdent) {
        result_.error = "expected node label";
        return -1;
      }
      label = catalog_.FindVertexLabel(Peek().text);
      if (label == kInvalidLabel) {
        result_.error = "unknown vertex label " + Peek().text;
        return -1;
      }
      ++pos_;
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
      std::string edge_name;
      label_t edge_label = kInvalidLabel;
      if (!Expect("[")) return false;
      if (Peek().kind == Token::Kind::kIdent) {
        edge_name = Peek().text;
        ++pos_;
      }
      if (Accept(":")) {
        if (Peek().kind != Token::Kind::kIdent) {
          result_.error = "expected edge label";
          return false;
        }
        edge_label = catalog_.FindEdgeLabel(Peek().text);
        if (edge_label == kInvalidLabel) {
          result_.error = "unknown edge label " + Peek().text;
          return false;
        }
        ++pos_;
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

  // <var>.<prop> | <var>.ID
  bool ParseRef(QueryPropRef* ref) {
    if (Peek().kind != Token::Kind::kIdent) {
      result_.error = "expected variable reference";
      return false;
    }
    std::string var_name = Peek().text;
    ++pos_;
    if (!Expect(".")) return false;
    if (Peek().kind != Token::Kind::kIdent) {
      result_.error = "expected property name after '.'";
      return false;
    }
    std::string prop = Peek().text;
    ++pos_;
    int vertex_var = result_.query.FindVertex(var_name);
    int edge_var = result_.query.FindEdge(var_name);
    if (vertex_var < 0 && edge_var < 0) {
      result_.error = "unknown variable " + var_name;
      return false;
    }
    ref->is_edge = vertex_var < 0;
    ref->var = ref->is_edge ? edge_var : vertex_var;
    if (IsKeyword(prop, "ID")) {
      ref->is_id = true;
      return true;
    }
    ref->key = catalog_.FindProperty(
        prop, ref->is_edge ? PropTargetKind::kEdge : PropTargetKind::kVertex);
    if (ref->key == kInvalidPropKey) {
      result_.error = "unknown property " + prop;
      return false;
    }
    return true;
  }

  // AggFn of an identifier token, kNone when it is not an aggregate name.
  static AggFn AggFnOf(const std::string& ident) {
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
    std::string var_name = Peek().text;
    if (Peek(1).kind == Token::Kind::kOp && Peek(1).text == ".") {
      if (!ParseRef(&item->ref)) {
        // ParseRef reports unknown variables/properties; sharpen the
        // clause context for the common failure mode.
        result_.error += std::string(" (in ") + clause + ")";
        return false;
      }
      item->name = var_name + "." + (item->ref.is_id ? "ID" : PropName(item->ref.key));
      return true;
    }
    ++pos_;
    int vertex_var = result_.query.FindVertex(var_name);
    int edge_var = result_.query.FindEdge(var_name);
    if (vertex_var < 0 && edge_var < 0) {
      result_.error = "unknown variable " + var_name + " in " + clause;
      return false;
    }
    item->ref.is_edge = vertex_var < 0;
    item->ref.var = item->ref.is_edge ? edge_var : vertex_var;
    item->ref.is_id = true;
    item->name = var_name;
    return true;
  }

  // item := AGG '(' '*' | ref ')' | ref, where AGG is COUNT / SUM / MIN
  // / MAX / AVG and ref := <var> | <var>.<prop> | <var>.ID.
  bool ParseReturnItem(ReturnItem* item, const char* clause) {
    AggFn fn = Peek().kind == Token::Kind::kIdent ? AggFnOf(Peek().text) : AggFn::kNone;
    bool is_call = fn != AggFn::kNone && Peek(1).kind == Token::Kind::kOp &&
                   Peek(1).text == "(";
    if (!is_call) return ParseProjectionRef(item, clause);
    ++pos_;
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
  int RegisterParam(const std::string& name, ValueType expected, prop_key_t key) {
    for (size_t i = 0; i < result_.params.size(); ++i) {
      CypherParam& p = result_.params[i];
      if (p.name != name) continue;
      if (p.expected != expected || p.key != key) {
        result_.error = "parameter $" + name + " used with conflicting types";
        return -1;
      }
      return static_cast<int>(i);
    }
    CypherParam p;
    p.name = name;
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
      result_.error = "expected comparison operator, got '" + Peek().text + "'";
      return false;
    }
    // Right-hand side: literal, <var>.<prop> [+ int], or identifier
    // (category value name of the lhs property).
    const Token& rhs = Peek();
    if (rhs.kind == Token::Kind::kNumber) {
      ++pos_;
      if (rhs.text.find('.') != std::string::npos) {
        double d = 0.0;
        if (!ParseNumberLiteral(rhs.text, &d)) {
          result_.error = "malformed numeric literal '" + rhs.text + "'";
          return false;
        }
        cmp.rhs_const = Value::Double(d);
      } else {
        int64_t v = 0;
        if (!ParseNumberLiteral(rhs.text, &v)) {
          result_.error = "integer literal out of range '" + rhs.text + "'";
          return false;
        }
        cmp.rhs_const = Value::Int64(v);
      }
    } else if (rhs.kind == Token::Kind::kString) {
      ++pos_;
      cmp.rhs_const = Value::String(rhs.text);
    } else if (rhs.kind == Token::Kind::kParam) {
      ++pos_;
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
          result_.error = "parameter $" + rhs.text + " pins multiple variables";
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
      bool is_ref = Peek(1).kind == Token::Kind::kOp && Peek(1).text == "." &&
                    (result_.query.FindVertex(rhs.text) >= 0 ||
                     result_.query.FindEdge(rhs.text) >= 0);
      if (is_ref) {
        cmp.rhs_is_const = false;
        if (!ParseRef(&cmp.rhs_ref)) return false;
        if (Accept("+")) {
          if (Peek().kind != Token::Kind::kNumber ||
              !ParseNumberLiteral(Peek().text, &cmp.rhs_addend)) {
            result_.error = "expected integer addend";
            return false;
          }
          ++pos_;
        }
      } else {
        ++pos_;
        if (cmp.lhs.key == kInvalidPropKey ||
            catalog_.property(cmp.lhs.key).type != ValueType::kCategory) {
          result_.error = "identifier constant '" + rhs.text +
                          "' requires a categorical left-hand property";
          return false;
        }
        category_t cat = catalog_.FindCategoryValue(cmp.lhs.key, rhs.text);
        if (cat == kInvalidCategory) {
          result_.error = "unknown category value " + rhs.text;
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
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  ParsedCypher result_;
};

}  // namespace

ParsedCypher ParseCypher(const std::string& text, const Catalog& catalog) {
  Parser parser(text, catalog);
  return parser.Parse();
}

}  // namespace aplus
