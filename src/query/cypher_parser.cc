#include "query/cypher_parser.h"

#include <string_view>
#include <vector>

#include "query/lexer.h"

namespace aplus {

namespace {

using lex::Token;

class Parser : lex::Cursor {
 public:
  Parser(std::string_view text, const Catalog& catalog)
      : lex::Cursor(text, &result_.error), catalog_(catalog), text_(text) {}

  ParsedCypher Parse() {
    ParseQuery();
    return std::move(result_);
  }

 private:
  // Fills result_; on failure result_.error says why.
  void ParseQuery() {
    if (lex::HasUnterminatedString(text_)) {
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
          !lex::ParseNumberLiteral(Peek().text, &result_.limit)) {
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

  // (name[:Label])
  int ParseNode() {
    if (!Expect("(")) return -1;
    if (Peek().kind != Token::Kind::kIdent) {
      result_.error = "expected node variable";
      return -1;
    }
    std::string_view name = Peek().text;
    if (result_.query.FindEdge(name) >= 0) {
      NameClash(name);
      return -1;
    }
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

  // A vertex and an edge never share a name.
  void NameClash(std::string_view name) {
    result_.error = "variable " + std::string(name) + " names both a vertex and an edge";
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
      if (!edge_name.empty() && result_.query.FindVertex(edge_name) >= 0) {
        NameClash(edge_name);
        return false;
      }
      if (backward) {
        result_.query.AddEdge(next, prev, edge_label, edge_name);
      } else {
        result_.query.AddEdge(prev, next, edge_label, edge_name);
      }
      prev = next;
    }
  }

  // Resolves a variable name into ref->var / ref->is_edge: the query
  // vertex or the query edge the text gives that name (no name is both).
  // False, with `ref` untouched, when neither exists.
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
    if (lex::IsKeyword(prop, "ID")) {
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
    if (lex::IsKeyword(ident, "COUNT")) return AggFn::kCount;
    if (lex::IsKeyword(ident, "SUM")) return AggFn::kSum;
    if (lex::IsKeyword(ident, "MIN")) return AggFn::kMin;
    if (lex::IsKeyword(ident, "MAX")) return AggFn::kMax;
    if (lex::IsKeyword(ident, "AVG")) return AggFn::kAvg;
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
    if (!ExpectCmpOp(&cmp.op)) return false;
    // Right-hand side: literal, <var>.<prop> [+ int], or identifier
    // (category value name of the lhs property).
    const Token rhs = Peek();
    if (rhs.kind == Token::Kind::kNumber) {
      if (!ParseNumber(&cmp.rhs_const)) return false;
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
        if (!AcceptAddend(&cmp.rhs_addend)) return false;
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
  ParsedCypher result_;
};

}  // namespace

ParsedCypher ParseCypher(const std::string& text, const Catalog& catalog) {
  Parser parser(text, catalog);
  return parser.Parse();
}

}  // namespace aplus
