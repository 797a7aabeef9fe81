#ifndef APLUS_QUERY_CYPHER_PARSER_H_
#define APLUS_QUERY_CYPHER_PARSER_H_

#include <string>
#include <vector>

#include "query/query_graph.h"

namespace aplus {

// Parses the openCypher subset the paper's examples are written in
// (Sections I-III), extended with the serving-layer surface: $param
// placeholders, a projection list with aggregates, ORDER BY, and LIMIT.
//
//   MATCH (c1:Customer)-[r1:O]->(a1:Account)-[r2:W]->(a2)
//   WHERE c1.name = 'Alice', r2.currency = USD, r2.amount > $min
//   RETURN a1, COUNT(*), SUM(r2.amount) ORDER BY SUM(r2.amount) DESC LIMIT 100
//
// Supported WHERE terms: <var>.<property>, <var>.ID, integer / float /
// 'string' literals, $name parameters, bare identifiers (resolved as
// category-value names of the property on the other side), and
// <var>.<prop> + <int> addends on the right-hand side (the paper's
// money-flow predicates). Comma and AND both separate conjuncts.
// `<var>.ID = <int>` on a vertex pins the variable to that vertex id
// (the paper's a1.ID = v5 bindings); `<var>.ID = $p` records a
// parameter pin patched at bind time (core/session.h).
//
// An edge variable names one edge: repeating it in the pattern is a
// parse error. An edge the text leaves unnamed cannot be referenced,
// although its plan text shows it as e<position> (e1, e2, ...).
//
// RETURN takes a comma-separated list of items: bare variables
// (projected as vertex/edge ids), <var>.<property> reads, and aggregate
// calls COUNT(*) / COUNT(<item>) / SUM / MIN / MAX / AVG(<item>).
// Mixing bare items and aggregates groups by the bare items (SQL-style
// implicit GROUP BY); SUM/MIN/MAX/AVG require an int64 or double
// argument and skip null cells, COUNT(<item>) counts non-null cells.
//
// ORDER BY takes return items (matched against the RETURN list by their
// rendered name, e.g. `ORDER BY COUNT(*) DESC, a1`), each with an
// optional ASC (default) or DESC. Nulls order last under ASC; ties on
// the sort keys break by the remaining output columns, so result order
// is deterministic up to fully identical rows.
//
// LIMIT caps the emitted rows (LIMIT 0 is valid and yields no rows); it
// applies to the final output, i.e. after aggregation and ordering.
//
// Lexing is ASCII: identifiers are letters, digits and '_' not starting
// with a digit, a $name parameter is '$' and one or more of those
// characters, numbers are digits and '.', and whitespace is the "C"
// locale's space class. A string literal is '...' with no escape
// sequences; one with no closing quote is the parse error "unterminated
// string literal", whatever else is wrong with the text. Any other byte,
// including bytes >= 0x80, is a one-character operator token that the
// grammar rejects.
//
// Ownership: the text is lexed in one pass, a token at a time as the
// grammar asks for it (with one token of lookahead). A token is a view
// into `text`, and only the parse itself holds one: no token or other
// parse state outlives the call, and nothing is kept between calls, so
// concurrent calls share no storage and take no lock. Everything the
// result holds (names, literals, parameter names, the error) is an owned
// copy, never a view into `text`; `text` may go away as soon as the call
// returns.

// One $name placeholder. The expected type is derived from the
// comparison the parameter appears in (kInt64 for .ID comparisons, the
// catalog type of the left-hand property otherwise); using one name
// with conflicting expectations is a parse error.
struct CypherParam {
  std::string name;
  ValueType expected = ValueType::kNull;
  prop_key_t key = kInvalidPropKey;  // lhs property (category-name resolution at bind)
  int pin_var = -1;  // query vertex pinned by `<var>.ID = $name`, -1 when none
};

// One projection item of the RETURN clause: a plain reference (group
// key when aggregates are present) or an aggregate call.
struct ReturnItem {
  QueryPropRef ref;  // ref.is_id for bare variables (project the id)
  std::string name;  // display name, e.g. "a2", "r2.amount", "SUM(r2.amount)"
  AggFn agg = AggFn::kNone;
  bool star = false;  // COUNT(*): no argument reference
};

// One ORDER BY key: an index into `returns` plus the direction.
struct OrderByItem {
  int item = -1;
  bool desc = false;
};

struct ParsedCypher {
  QueryGraph query;
  std::vector<ReturnItem> returns;  // empty = bare MATCH (pure counting)
  std::vector<OrderByItem> order_by;
  bool has_aggregate = false;  // any returns[i].agg != kNone
  bool distinct = false;       // RETURN DISTINCT (rejected with aggregates)
  bool has_limit = false;
  uint64_t limit = 0;
  std::vector<CypherParam> params;
  std::string error;  // empty on success
  bool ok() const { return error.empty(); }
};

ParsedCypher ParseCypher(const std::string& text, const Catalog& catalog);

}  // namespace aplus

#endif  // APLUS_QUERY_CYPHER_PARSER_H_
