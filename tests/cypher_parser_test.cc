// Parses the openCypher queries that appear verbatim in the paper's
// Examples 1-7 and verifies both the parsed structure and, through the
// Database facade, the counted results on the Figure 1 graph.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "datagen/example_graph.h"
#include "datagen/financial_props.h"
#include "datagen/label_assigner.h"
#include "datagen/power_law_generator.h"
#include "query/cypher_parser.h"
#include "query_corpus.h"
#include "util/rng.h"

namespace aplus {
namespace {

// One text per message the parser emits, with the exact wording and the
// offending token it quotes, over the Figure 1 catalog.
constexpr std::pair<const char*, const char*> kErrorCases[] = {
    {"SELECT * FROM t", "query must start with MATCH"},
    {"MATCH (a)-[r]->(b) LIMIT x", "expected non-negative integer after LIMIT"},
    {"MATCH (a)-[r]->(b) LIMIT 1.5", "expected non-negative integer after LIMIT"},
    {"MATCH (a)-[r]->(b) foo", "unexpected trailing token 'foo'"},
    {"MATCH a", "expected '(', got 'a'"},
    {"MATCH (a", "expected ')', got ''"},
    {"MATCH (a)-[r]-(b)", "expected '->', got '-'"},
    {"MATCH (a)<-[r]->(b)", "expected '-', got '->'"},
    {"MATCH (5)", "expected node variable"},
    {"MATCH (a:)", "expected node label"},
    {"MATCH (a:Nonexistent)", "unknown vertex label Nonexistent"},
    {"MATCH (a)-[:]->(b)", "expected edge label"},
    {"MATCH (a)-[:NoSuchLabel]->(b)", "unknown edge label NoSuchLabel"},
    {"MATCH (a)-[r]->(b) WHERE 5 = a.ID", "expected variable reference"},
    {"MATCH (a)-[r]->(b) WHERE a.5 = 1", "expected property name after '.'"},
    {"MATCH (a)-[r]->(b) WHERE a ID = 1", "expected '.', got 'ID'"},
    {"MATCH (a)-[r]->(b) WHERE z.ID = 1", "unknown variable z"},
    {"MATCH (a)-[r]->(b) WHERE a.nonexistent > 5", "unknown property nonexistent"},
    {"MATCH (a)-[r]->(b) RETURN 5", "expected variable reference in RETURN"},
    {"MATCH (a)-[r]->(b) RETURN", "expected variable reference in RETURN"},
    {"MATCH (a)-[r]->(b) RETURN a ORDER BY 5", "expected variable reference in ORDER BY"},
    {"MATCH (a)-[r]->(b) RETURN c.city", "unknown variable c (in RETURN)"},
    {"MATCH (a)-[r]->(b) RETURN a ORDER BY b.nope", "unknown property nope (in ORDER BY)"},
    {"MATCH (a)-[r]->(b) RETURN c", "unknown variable c in RETURN"},
    {"MATCH (a)-[r]->(b) RETURN SUM(*)", "SUM(*) is not supported; COUNT(*) only"},
    {"MATCH (a)-[r]->(b) RETURN SUM(b.city)",
     "SUM(b.city) requires an int64 or double argument"},
    {"MATCH (a)-[r]->(b) RETURN DISTINCT COUNT(*)",
     "RETURN DISTINCT cannot be combined with aggregates"},
    {"MATCH (a)-[r]->(b) RETURN a ORDER a", "expected BY after ORDER"},
    {"MATCH (a)-[r]->(b) ORDER BY a", "ORDER BY requires a RETURN projection"},
    {"MATCH (a)-[r]->(b) RETURN a ORDER BY r.amount",
     "ORDER BY key r.amount is not a RETURN item"},
    {"MATCH (a)-[r]->(b) WHERE a.name = $x AND r.amount > $x",
     "parameter $x used with conflicting types"},
    {"MATCH (a)-[r]->(b) WHERE a.ID ! 5", "expected comparison operator, got '!'"},
    {"MATCH (a)-[r]->(b) WHERE r.amount > 1.2.3", "malformed numeric literal '1.2.3'"},
    {"MATCH (a)-[r]->(b) WHERE r.amount > 99999999999999999999999",
     "integer literal out of range '99999999999999999999999'"},
    {"MATCH (a)-[r]->(b) WHERE a.ID = $p, b.ID = $p", "parameter $p pins multiple variables"},
    {"MATCH (a)-[r]->(b)-[s]->(c) WHERE r.amount > s.amount + x", "expected integer addend"},
    {"MATCH (a)-[r]->(b) WHERE a.name = Bob",
     "identifier constant 'Bob' requires a categorical left-hand property"},
    {"MATCH (a)-[r]->(b) WHERE r.currency = JPY", "unknown category value JPY"},
    {"MATCH (a)-[r]->(b) WHERE a.ID = (", "expected right-hand side"},
    {"MATCH (a)-[]->(b) WHERE e1.amount > 5", "unknown variable e1"},
    {"MATCH (a)-[r]->(b)-[r]->(c)", "duplicate edge variable r"},
    {"MATCH (a)-[a]->(b) WHERE a.ID = 3", "variable a names both a vertex and an edge"},
    {"MATCH (a)-[b]->(b)", "variable b names both a vertex and an edge"},
    {"MATCH (a)-[r]->(b), (r)-[s]->(b)", "variable r names both a vertex and an edge"},
};

// parse_golden.txt was recorded with this many kErrorCases rows. It holds
// the later rows as a set of their own, after every other set, so no
// earlier block moves.
constexpr size_t kRecordedErrorCases = 41;

// An unnamed edge before an edge the text names e1 (the first edge's
// generated name).
constexpr const char* kUnnamedThenE1Text = "MATCH (a)-[]->(b)-[e1]->(c) WHERE e1.amount > 5";

class CypherParserTest : public ::testing::Test {
 protected:
  CypherParserTest() : ex_(BuildExampleGraph()) {
    Catalog& catalog = ex_.graph.catalog();
    catalog.RegisterCategoryValue(ex_.currency_key, "USD");
    catalog.RegisterCategoryValue(ex_.currency_key, "EUR");
    catalog.RegisterCategoryValue(ex_.currency_key, "GBP");
  }
  ExampleGraph ex_;
};

TEST_F(CypherParserTest, Example1TwoHop) {
  ParsedCypher parsed = ParseCypher(
      "MATCH (c1:Customer)-[r1]->(a1:Account)-[r2]->(a2:Account) "
      "WHERE c1.name = 'Alice'",
      ex_.graph.catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.query.num_vertices(), 3);
  EXPECT_EQ(parsed.query.num_edges(), 2);
  EXPECT_EQ(parsed.query.vertex(0).label, ex_.customer_label);
  EXPECT_EQ(parsed.query.edge(0).from, 0);
  EXPECT_EQ(parsed.query.edge(0).to, 1);
  ASSERT_EQ(parsed.query.predicates().size(), 1u);
  EXPECT_EQ(parsed.query.predicates()[0].rhs_const.AsString(), "Alice");
}

TEST_F(CypherParserTest, Example2EdgeLabels) {
  ParsedCypher parsed = ParseCypher(
      "MATCH (c1:Customer)-[r1:O]->(a1)-[r2:W]->(a2) WHERE c1.name = 'Alice' "
      "RETURN COUNT(*)",
      ex_.graph.catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.query.edge(0).label, ex_.owns_label);
  EXPECT_EQ(parsed.query.edge(1).label, ex_.wire_label);
}

TEST_F(CypherParserTest, Example4CurrencyCategory) {
  ParsedCypher parsed = ParseCypher(
      "MATCH (c1:Customer)-[r1:O]->(a1)-[r2:W]->(a2) "
      "WHERE c1.name = 'Alice', r2.currency = USD",
      ex_.graph.catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.query.predicates().size(), 2u);
  const QueryComparison& currency = parsed.query.predicates()[1];
  EXPECT_TRUE(currency.lhs.is_edge);
  EXPECT_EQ(currency.rhs_const.AsInt64(), 0);  // USD
}

TEST_F(CypherParserTest, IdEqualityBindsVertex) {
  // Example 3: WHERE a1.ID = v1 (numeric ids here).
  ParsedCypher parsed = ParseCypher(
      "MATCH (a1:Account)-[r1:W]->(a2:Account) WHERE a1.ID = 0",
      ex_.graph.catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.query.vertex(0).bound, 0u);
  EXPECT_TRUE(parsed.query.predicates().empty());
}

TEST_F(CypherParserTest, BackwardEdges) {
  ParsedCypher parsed = ParseCypher(
      "MATCH (a1:Account)<-[r1:W]-(a2:Account)", ex_.graph.catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  // a2 -> a1 after normalization.
  EXPECT_EQ(parsed.query.edge(0).from, parsed.query.FindVertex("a2"));
  EXPECT_EQ(parsed.query.edge(0).to, parsed.query.FindVertex("a1"));
}

TEST_F(CypherParserTest, SharedVariablesAcrossPatterns) {
  // Example 3's cyclic query: a1-[:W]->a2-[:W]->a3, a3-[:W]->a1.
  ParsedCypher parsed = ParseCypher(
      "MATCH (a1)-[r1:W]->(a2)-[r2:W]->(a3), (a3)-[r3:W]->(a1)",
      ex_.graph.catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.query.num_vertices(), 3);
  EXPECT_EQ(parsed.query.num_edges(), 3);
  EXPECT_EQ(parsed.query.edge(2).from, parsed.query.FindVertex("a3"));
  EXPECT_EQ(parsed.query.edge(2).to, parsed.query.FindVertex("a1"));
}

TEST_F(CypherParserTest, CrossEdgePredicateWithAddend) {
  // Example 7's money-flow conditions.
  ParsedCypher parsed = ParseCypher(
      "MATCH (a1)-[r1]->(a2)-[r2]->(a3) "
      "WHERE r1.date < r2.date AND r2.amount < r1.amount + 50",
      ex_.graph.catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.query.predicates().size(), 2u);
  const QueryComparison& cut = parsed.query.predicates()[1];
  EXPECT_FALSE(cut.rhs_is_const);
  EXPECT_EQ(cut.rhs_addend, 50);
}

TEST_F(CypherParserTest, ReferencesResolveOnlyToNamedEdges) {
  ParsedCypher parsed = ParseCypher(kUnnamedThenE1Text, ex_.graph.catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.query.num_edges(), 2);
  // The generated name still renders; it does not capture the reference.
  EXPECT_EQ(parsed.query.edge(0).name, "e1");
  EXPECT_EQ(parsed.query.FindEdge("e1"), 1);
  ASSERT_EQ(parsed.query.predicates().size(), 1u);
  const QueryPropRef& lhs = parsed.query.predicates()[0].lhs;
  EXPECT_TRUE(lhs.is_edge);
  EXPECT_EQ(lhs.var, 1);
}

TEST_F(CypherParserTest, Errors) {
  EXPECT_FALSE(ParseCypher("SELECT * FROM t", ex_.graph.catalog()).ok());
  EXPECT_FALSE(ParseCypher("MATCH (a:Nonexistent)", ex_.graph.catalog()).ok());
  EXPECT_FALSE(ParseCypher("MATCH (a)-[:NoSuchLabel]->(b)", ex_.graph.catalog()).ok());
  EXPECT_FALSE(
      ParseCypher("MATCH (a)-[r]->(b) WHERE a.nonexistent > 5", ex_.graph.catalog()).ok());
  EXPECT_FALSE(
      ParseCypher("MATCH (a)-[r]->(b) WHERE r.currency = JPY", ex_.graph.catalog()).ok());
}

TEST_F(CypherParserTest, ProjectionList) {
  ParsedCypher parsed = ParseCypher(
      "MATCH (a1:Account)-[r1:W]->(a2:Account) RETURN a1, a2.city, r1.amount, r1.ID",
      ex_.graph.catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.returns.size(), 4u);
  EXPECT_EQ(parsed.returns[0].name, "a1");
  EXPECT_TRUE(parsed.returns[0].ref.is_id);
  EXPECT_FALSE(parsed.returns[0].ref.is_edge);
  EXPECT_EQ(parsed.returns[1].name, "a2.city");
  EXPECT_EQ(parsed.returns[1].ref.key, ex_.city_key);
  EXPECT_EQ(parsed.returns[2].name, "r1.amount");
  EXPECT_TRUE(parsed.returns[2].ref.is_edge);
  EXPECT_EQ(parsed.returns[3].name, "r1.ID");
  EXPECT_TRUE(parsed.returns[3].ref.is_edge);
  EXPECT_TRUE(parsed.returns[3].ref.is_id);
  EXPECT_FALSE(parsed.has_limit);
}

TEST_F(CypherParserTest, LimitClause) {
  ParsedCypher with_return = ParseCypher(
      "MATCH (a1)-[r1:W]->(a2) RETURN a1, a2 LIMIT 25", ex_.graph.catalog());
  ASSERT_TRUE(with_return.ok()) << with_return.error;
  EXPECT_TRUE(with_return.has_limit);
  EXPECT_EQ(with_return.limit, 25u);
  // LIMIT 0 is valid (zero rows); COUNT(*) is an ordinary return item.
  ParsedCypher zero =
      ParseCypher("MATCH (a1)-[r1:W]->(a2) RETURN COUNT(*) LIMIT 0", ex_.graph.catalog());
  ASSERT_TRUE(zero.ok()) << zero.error;
  EXPECT_TRUE(zero.has_limit);
  EXPECT_EQ(zero.limit, 0u);
  ASSERT_EQ(zero.returns.size(), 1u);
  EXPECT_EQ(zero.returns[0].agg, AggFn::kCount);
  EXPECT_TRUE(zero.returns[0].star);
  EXPECT_TRUE(zero.has_aggregate);
  // Malformed limits.
  EXPECT_FALSE(ParseCypher("MATCH (a1)-[r1:W]->(a2) LIMIT x", ex_.graph.catalog()).ok());
  EXPECT_FALSE(ParseCypher("MATCH (a1)-[r1:W]->(a2) LIMIT 1.5", ex_.graph.catalog()).ok());
}

TEST_F(CypherParserTest, OverlongNumericLiteralsAreParseErrorsNotCrashes) {
  // Serving text is untrusted: literals past the integer/double range
  // must produce parse errors, never a thrown std::out_of_range.
  EXPECT_FALSE(ParseCypher("MATCH (a1)-[r1:W]->(a2) LIMIT 99999999999999999999999",
                           ex_.graph.catalog()).ok());
  EXPECT_FALSE(ParseCypher(
      "MATCH (a1)-[r1:W]->(a2) WHERE r1.amount > 99999999999999999999999",
      ex_.graph.catalog()).ok());
  EXPECT_FALSE(ParseCypher(
      "MATCH (a1)-[r1:W]->(a2) WHERE r1.amount > 1.2.3", ex_.graph.catalog()).ok());
  EXPECT_FALSE(ParseCypher(
      "MATCH (a1)-[r1:W]->(a2)-[r2:W]->(a3) "
      "WHERE r1.amount > r2.amount + 99999999999999999999999",
      ex_.graph.catalog()).ok());
  ParsedCypher ok = ParseCypher("MATCH (a1)-[r1:W]->(a2) WHERE r1.amount > 1.5 LIMIT 3",
                                ex_.graph.catalog());
  EXPECT_TRUE(ok.ok()) << ok.error;
}

TEST_F(CypherParserTest, ReturnErrors) {
  // Unknown variable in RETURN (bare and dotted), unknown property.
  ParsedCypher unknown_var =
      ParseCypher("MATCH (a)-[r]->(b) RETURN c", ex_.graph.catalog());
  EXPECT_FALSE(unknown_var.ok());
  EXPECT_NE(unknown_var.error.find("unknown variable c"), std::string::npos)
      << unknown_var.error;
  EXPECT_FALSE(ParseCypher("MATCH (a)-[r]->(b) RETURN c.city", ex_.graph.catalog()).ok());
  EXPECT_FALSE(ParseCypher("MATCH (a)-[r]->(b) RETURN b.nonexistent",
                           ex_.graph.catalog()).ok());
  EXPECT_FALSE(ParseCypher("MATCH (a)-[r]->(b) RETURN", ex_.graph.catalog()).ok());
}

TEST_F(CypherParserTest, ReturnDistinct) {
  ParsedCypher parsed =
      ParseCypher("MATCH (a)-[r]->(b) RETURN DISTINCT b", ex_.graph.catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_TRUE(parsed.distinct);
  ASSERT_EQ(parsed.returns.size(), 1u);

  // DISTINCT is an optional prefix, not a reserved projection name:
  // without it the flag stays clear.
  ParsedCypher plain = ParseCypher("MATCH (a)-[r]->(b) RETURN b", ex_.graph.catalog());
  ASSERT_TRUE(plain.ok()) << plain.error;
  EXPECT_FALSE(plain.distinct);

  // DISTINCT composes with ORDER BY and LIMIT.
  ParsedCypher ordered = ParseCypher(
      "MATCH (a)-[r]->(b) RETURN DISTINCT b ORDER BY b LIMIT 5", ex_.graph.catalog());
  ASSERT_TRUE(ordered.ok()) << ordered.error;
  EXPECT_TRUE(ordered.distinct);
  EXPECT_TRUE(ordered.has_limit);
  EXPECT_EQ(ordered.limit, 5u);

  // DISTINCT + aggregates is rejected with a typed parse error, for
  // COUNT(*) and for value aggregates alike.
  ParsedCypher agg = ParseCypher("MATCH (a)-[r]->(b) RETURN DISTINCT COUNT(*)",
                                 ex_.graph.catalog());
  EXPECT_FALSE(agg.ok());
  EXPECT_NE(agg.error.find("DISTINCT"), std::string::npos) << agg.error;
  ParsedCypher mixed = ParseCypher(
      "MATCH (a)-[r]->(b) RETURN DISTINCT b, SUM(r.amount)", ex_.graph.catalog());
  EXPECT_FALSE(mixed.ok());
  EXPECT_NE(mixed.error.find("DISTINCT"), std::string::npos) << mixed.error;
}

TEST_F(CypherParserTest, Parameters) {
  ParsedCypher parsed = ParseCypher(
      "MATCH (a1:Account)-[r1:W]->(a2:Account) "
      "WHERE a1.ID = $src AND r1.amount > $min RETURN a2 LIMIT 10",
      ex_.graph.catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.params.size(), 2u);
  // $src is an ID pin: no predicate, bound_param marks the vertex.
  EXPECT_EQ(parsed.params[0].name, "src");
  EXPECT_EQ(parsed.params[0].pin_var, 0);
  EXPECT_EQ(parsed.params[0].expected, ValueType::kInt64);
  EXPECT_EQ(parsed.query.vertex(0).bound_param, 0);
  EXPECT_EQ(parsed.query.vertex(0).bound, kInvalidVertex);  // placeholder comes at Prepare
  // $min is a plain predicate parameter with a null constant.
  EXPECT_EQ(parsed.params[1].name, "min");
  EXPECT_EQ(parsed.params[1].pin_var, -1);
  EXPECT_EQ(parsed.params[1].key, ex_.amount_key);
  ASSERT_EQ(parsed.query.predicates().size(), 1u);
  EXPECT_EQ(parsed.query.predicates()[0].rhs_param, 1);
  EXPECT_TRUE(parsed.query.predicates()[0].rhs_const.is_null());
  // Reusing one name with conflicting expected types is a parse error.
  ParsedCypher conflict = ParseCypher(
      "MATCH (c1:Customer)-[r1:W]->(a2) WHERE c1.name = $x AND r1.amount > $x",
      ex_.graph.catalog());
  EXPECT_FALSE(conflict.ok());
  EXPECT_NE(conflict.error.find("conflicting"), std::string::npos) << conflict.error;
  // A bare '$' is not a parameter.
  EXPECT_FALSE(ParseCypher("MATCH (a)-[r]->(b) WHERE a.ID = $", ex_.graph.catalog()).ok());
}

TEST_F(CypherParserTest, AggregatesAndGroupBy) {
  ParsedCypher parsed = ParseCypher(
      "MATCH (a1:Account)-[r1:W]->(a2:Account) "
      "RETURN a2.city, COUNT(*), SUM(r1.amount), AVG(r1.amount), MIN(a1.ID), MAX(r1.amount)",
      ex_.graph.catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.returns.size(), 6u);
  EXPECT_TRUE(parsed.has_aggregate);
  EXPECT_EQ(parsed.returns[0].agg, AggFn::kNone);  // bare item = group key
  EXPECT_EQ(parsed.returns[0].name, "a2.city");
  EXPECT_EQ(parsed.returns[1].agg, AggFn::kCount);
  EXPECT_TRUE(parsed.returns[1].star);
  EXPECT_EQ(parsed.returns[1].name, "COUNT(*)");
  EXPECT_EQ(parsed.returns[2].agg, AggFn::kSum);
  EXPECT_EQ(parsed.returns[2].name, "SUM(r1.amount)");
  EXPECT_TRUE(parsed.returns[2].ref.is_edge);
  EXPECT_EQ(parsed.returns[3].agg, AggFn::kAvg);
  EXPECT_EQ(parsed.returns[4].agg, AggFn::kMin);
  EXPECT_TRUE(parsed.returns[4].ref.is_id);
  EXPECT_EQ(parsed.returns[5].agg, AggFn::kMax);
  // COUNT over a non-numeric argument is fine; SUM is not.
  EXPECT_TRUE(ParseCypher("MATCH (a1:Account)-[r1:W]->(a2) RETURN COUNT(a2.city)",
                          ex_.graph.catalog())
                  .ok());
  ParsedCypher bad_sum = ParseCypher(
      "MATCH (a1:Account)-[r1:W]->(a2) RETURN SUM(a2.city)", ex_.graph.catalog());
  EXPECT_FALSE(bad_sum.ok());
  EXPECT_NE(bad_sum.error.find("int64 or double"), std::string::npos) << bad_sum.error;
  // Only COUNT takes '*'.
  EXPECT_FALSE(
      ParseCypher("MATCH (a1)-[r1:W]->(a2) RETURN SUM(*)", ex_.graph.catalog()).ok());
}

TEST_F(CypherParserTest, OrderByClause) {
  ParsedCypher parsed = ParseCypher(
      "MATCH (a1:Account)-[r1:W]->(a2) "
      "RETURN a2, COUNT(*) ORDER BY COUNT(*) DESC, a2 LIMIT 5",
      ex_.graph.catalog());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.order_by.size(), 2u);
  EXPECT_EQ(parsed.order_by[0].item, 1);
  EXPECT_TRUE(parsed.order_by[0].desc);
  EXPECT_EQ(parsed.order_by[1].item, 0);
  EXPECT_FALSE(parsed.order_by[1].desc);
  EXPECT_TRUE(parsed.has_limit);
  EXPECT_EQ(parsed.limit, 5u);
  // Explicit ASC parses too.
  ParsedCypher asc = ParseCypher(
      "MATCH (a1)-[r1:W]->(a2) RETURN a1, r1.amount ORDER BY r1.amount ASC",
      ex_.graph.catalog());
  ASSERT_TRUE(asc.ok()) << asc.error;
  EXPECT_FALSE(asc.order_by[0].desc);
  EXPECT_EQ(asc.order_by[0].item, 1);
  // ORDER BY keys must be RETURN items.
  ParsedCypher not_returned = ParseCypher(
      "MATCH (a1)-[r1:W]->(a2) RETURN a1 ORDER BY r1.amount", ex_.graph.catalog());
  EXPECT_FALSE(not_returned.ok());
  EXPECT_NE(not_returned.error.find("not a RETURN item"), std::string::npos)
      << not_returned.error;
  // ORDER BY without a projection is meaningless.
  EXPECT_FALSE(
      ParseCypher("MATCH (a1)-[r1:W]->(a2) ORDER BY a1", ex_.graph.catalog()).ok());
  // ORDER without BY.
  EXPECT_FALSE(
      ParseCypher("MATCH (a1)-[r1:W]->(a2) RETURN a1 ORDER a1", ex_.graph.catalog()).ok());
}

TEST_F(CypherParserTest, EndToEndThroughDatabase) {
  label_t wire = ex_.wire_label;
  (void)wire;
  Database db(std::move(ex_.graph));
  db.BuildPrimaryIndexes();
  // All Wire transfers between accounts: 9.
  QueryOutcome wires = db.ExecuteCypher("MATCH (a:Account)-[r:W]->(b:Account) RETURN COUNT(*)");
  ASSERT_TRUE(wires.ok()) << wires.error;
  EXPECT_EQ(wires.count, 9u);
  // Alice's wire destinations via her accounts (Example 2): v1 and v4
  // are Alice's; their Wire out-edges: t4, t17, t20 (v1) and t5, t9,
  // t11 (v4) = 6.
  QueryOutcome alice = db.ExecuteCypher(
      "MATCH (c1:Customer)-[r1:O]->(a1)-[r2:W]->(a2) WHERE c1.name = 'Alice' "
      "RETURN COUNT(*)");
  ASSERT_TRUE(alice.ok()) << alice.error;
  EXPECT_EQ(alice.count, 6u);
  // Parse errors surface cleanly.
  EXPECT_FALSE(db.ExecuteCypher("MATCH garbage").ok());
}

TEST_F(CypherParserTest, UnterminatedStringLiteralIsAParseError) {
  // The literal must not swallow the rest of the query into an empty
  // constant.
  const std::string text =
      "MATCH (c1:Customer)-[r1]->(a1) WHERE c1.name = 'Alice RETURN COUNT(*)";
  ParsedCypher parsed = ParseCypher(text, ex_.graph.catalog());
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error, "unterminated string literal");
  Database db(std::move(ex_.graph));
  db.BuildPrimaryIndexes();
  std::unique_ptr<PreparedQuery> prepared = db.Prepare(text);
  EXPECT_EQ(prepared->status(), QueryOutcome::Status::kParseError);
  EXPECT_EQ(prepared->error(), "unterminated string literal");
}

TEST_F(CypherParserTest, EveryErrorMessage) {
  // One text per message the parser emits, with the exact wording and
  // the offending token it quotes (kErrorCases).
  for (const auto& [text, message] : kErrorCases) {
    ParsedCypher parsed = ParseCypher(text, ex_.graph.catalog());
    EXPECT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.error, message) << text;
  }
}

// The catalog and the seed texts of the byte-level mutants: MF1-MF5 and
// MR1-MR3 with parameters, grouping, ordering and DISTINCT.
Catalog MutationCatalog() {
  Catalog catalog;
  catalog.AddEdgeLabel("E");
  prop_key_t acc = catalog.AddProperty("acc", PropTargetKind::kVertex, ValueType::kCategory, 2);
  catalog.RegisterCategoryValue(acc, "CQ");
  catalog.RegisterCategoryValue(acc, "SV");
  catalog.AddProperty("city", PropTargetKind::kVertex, ValueType::kCategory, 4417);
  catalog.AddProperty("amount", PropTargetKind::kEdge, ValueType::kInt64);
  catalog.AddProperty("date", PropTargetKind::kEdge, ValueType::kInt64);
  catalog.AddProperty("time", PropTargetKind::kEdge, ValueType::kInt64);
  return catalog;
}

std::vector<std::string> MutationSeeds() {
  std::vector<std::string> seeds;
  for (const NamedText& mf : MfTexts("", PinnedAnchor)) seeds.push_back(mf.second);
  for (const char* mr : {
           "MATCH (a1)-[e1:E]->(a2), (a3)-[f1:E]->(a2) WHERE a1.ID = $src, e1.time < $alpha "
           "RETURN a3, COUNT(*) ORDER BY COUNT(*) DESC LIMIT 10",
           "MATCH (a1)-[e1:E]->(a2), (a4)-[f1:E]->(a2), (a1)-[e2:E]->(a3), (a4)-[f2:E]->(a3) "
           "WHERE a1.ID = 3, e1.time < 50000, e2.time < 50000 RETURN COUNT(*)",
           "MATCH (a1)-[e1:E]->(a2), (a5)-[f1:E]->(a2), (a1)-[e2:E]->(a3), (a5)-[f2:E]->(a3), "
           "(a1)-[e3:E]->(a4), (a5)-[f3:E]->(a4) WHERE a1.ID = 3, e1.time < 50000, "
           "e2.time < 50000, e3.time < 50000 RETURN DISTINCT a5 LIMIT 5",
       }) {
    seeds.push_back(mr);
  }
  return seeds;
}

// Byte-level mutants of the MF1-MF5 and MR1-MR3 texts must parse or
// fail with a message, never crash. Each mutant lives in its own heap
// buffer that is freed before the result is read, so a parse result
// that kept a view into the text shows up under AddressSanitizer.
TEST(CypherParserMutationTest, MutantsParseOrFailCleanly) {
  const Catalog catalog = MutationCatalog();
  const std::vector<std::string> seeds = MutationSeeds();
  for (const std::string& seed : seeds) {
    ParsedCypher parsed = ParseCypher(seed, catalog);
    ASSERT_TRUE(parsed.ok()) << parsed.error << ": " << seed;
  }
  const std::string alphabet =
      "aAcCdDeEhHMRTWY_ ()[]-<>:.,=+*!'$0123456789\t\n\x80\xc3\xa9\xff";
  Rng rng(0x5eed);
  constexpr int kMutants = 2000;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    ParsedCypher parsed;
    {
      std::string mutant = seeds[i % std::size(seeds)];
      for (int edits = 1 + static_cast<int>(rng.NextBounded(3)); edits > 0; --edits) {
        const size_t pos = rng.NextBounded(mutant.size() + 1);
        const char byte = alphabet[rng.NextBounded(alphabet.size())];
        switch (rng.NextBounded(3)) {
          case 0:
            mutant.insert(mutant.begin() + pos, byte);
            break;
          case 1:
            if (pos < mutant.size()) mutant.erase(pos, 1);
            break;
          default:
            if (pos < mutant.size()) mutant[pos] = byte;
            break;
        }
      }
      parsed = ParseCypher(mutant, catalog);
    }
    // Read every string the result owns after the text is gone.
    size_t bytes = parsed.error.size();
    for (int v = 0; v < parsed.query.num_vertices(); ++v) {
      bytes += parsed.query.vertex(v).name.size();
    }
    for (int e = 0; e < parsed.query.num_edges(); ++e) bytes += parsed.query.edge(e).name.size();
    for (const CypherParam& param : parsed.params) bytes += param.name.size();
    for (const ReturnItem& item : parsed.returns) bytes += item.name.size();
    for (const QueryComparison& cmp : parsed.query.predicates()) {
      if (cmp.rhs_const.type() == ValueType::kString) bytes += cmp.rhs_const.AsString().size();
    }
    EXPECT_GT(bytes, 0u);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.error.empty()) << "mutant " << i;
      ++rejected;
    }
  }
  // Both outcomes occur, so the mutants reach past the first token.
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, kMutants);
}


// Every other text the tests above parse over the Figure 1 catalog.
constexpr const char* kExampleTexts[] = {
    "MATCH (c1:Customer)-[r1]->(a1:Account)-[r2]->(a2:Account) WHERE c1.name = 'Alice'",
    "MATCH (c1:Customer)-[r1:O]->(a1)-[r2:W]->(a2) WHERE c1.name = 'Alice' RETURN COUNT(*)",
    "MATCH (c1:Customer)-[r1:O]->(a1)-[r2:W]->(a2) WHERE c1.name = 'Alice', r2.currency = USD",
    "MATCH (a1:Account)-[r1:W]->(a2:Account) WHERE a1.ID = 0",
    "MATCH (a1:Account)<-[r1:W]-(a2:Account)",
    "MATCH (a1)-[r1:W]->(a2)-[r2:W]->(a3), (a3)-[r3:W]->(a1)",
    "MATCH (a1)-[r1]->(a2)-[r2]->(a3) WHERE r1.date < r2.date AND r2.amount < r1.amount + 50",
    "MATCH (a:Nonexistent)",
    "MATCH (a)-[:NoSuchLabel]->(b)",
    "MATCH (a1:Account)-[r1:W]->(a2:Account) RETURN a1, a2.city, r1.amount, r1.ID",
    "MATCH (a1)-[r1:W]->(a2) RETURN a1, a2 LIMIT 25",
    "MATCH (a1)-[r1:W]->(a2) RETURN COUNT(*) LIMIT 0",
    "MATCH (a1)-[r1:W]->(a2) LIMIT x",
    "MATCH (a1)-[r1:W]->(a2) LIMIT 1.5",
    "MATCH (a1)-[r1:W]->(a2) LIMIT 99999999999999999999999",
    "MATCH (a1)-[r1:W]->(a2) WHERE r1.amount > 99999999999999999999999",
    "MATCH (a1)-[r1:W]->(a2) WHERE r1.amount > 1.2.3",
    "MATCH (a1)-[r1:W]->(a2)-[r2:W]->(a3) WHERE r1.amount > r2.amount + 99999999999999999999999",
    "MATCH (a1)-[r1:W]->(a2) WHERE r1.amount > 1.5 LIMIT 3",
    "MATCH (a)-[r]->(b) RETURN b.nonexistent",
    "MATCH (a)-[r]->(b) RETURN DISTINCT b",
    "MATCH (a)-[r]->(b) RETURN b",
    "MATCH (a)-[r]->(b) RETURN DISTINCT b ORDER BY b LIMIT 5",
    "MATCH (a)-[r]->(b) RETURN DISTINCT b, SUM(r.amount)",
    "MATCH (a1:Account)-[r1:W]->(a2:Account) WHERE a1.ID = $src AND r1.amount > $min RETURN a2 "
    "LIMIT 10",
    "MATCH (c1:Customer)-[r1:W]->(a2) WHERE c1.name = $x AND r1.amount > $x",
    "MATCH (a)-[r]->(b) WHERE a.ID = $",
    "MATCH (a1:Account)-[r1:W]->(a2:Account) RETURN a2.city, COUNT(*), SUM(r1.amount), "
    "AVG(r1.amount), MIN(a1.ID), MAX(r1.amount)",
    "MATCH (a1:Account)-[r1:W]->(a2) RETURN COUNT(a2.city)",
    "MATCH (a1:Account)-[r1:W]->(a2) RETURN SUM(a2.city)",
    "MATCH (a1)-[r1:W]->(a2) RETURN SUM(*)",
    "MATCH (a1:Account)-[r1:W]->(a2) RETURN a2, COUNT(*) ORDER BY COUNT(*) DESC, a2 LIMIT 5",
    "MATCH (a1)-[r1:W]->(a2) RETURN a1, r1.amount ORDER BY r1.amount ASC",
    "MATCH (a1)-[r1:W]->(a2) RETURN a1 ORDER BY r1.amount",
    "MATCH (a1)-[r1:W]->(a2) ORDER BY a1",
    "MATCH (a1)-[r1:W]->(a2) RETURN a1 ORDER a1",
    "MATCH (a:Account)-[r:W]->(b:Account) RETURN COUNT(*)",
    "MATCH garbage",
    "MATCH (c1:Customer)-[r1]->(a1) WHERE c1.name = 'Alice RETURN COUNT(*)",
};

// One catalog and the texts parsed over it.
struct CorpusSet {
  std::string name;
  Catalog catalog;
  std::vector<std::string> texts;
};

// The catalog of a small power-law graph after `decorate`.
template <typename Decorate>
Catalog GeneratedCatalog(Decorate decorate) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 64;
  params.avg_degree = 2.0;
  GeneratePowerLawGraph(params, &graph);
  decorate(&graph);
  return graph.catalog();
}

// The parser golden's corpus: every text of this file (error cases
// included) over the Figure 1 catalog, and every text of the plan
// golden (MF1-MF5 pinned and windowed, MR1-MR3 with literal and $param
// windows, triangles and a diamond) over the catalog it is planned on,
// then the error cases added after the recording (kRecordedErrorCases).
std::vector<CorpusSet> GoldenCorpus() {
  std::vector<CorpusSet> sets;
  CorpusSet late_errors;
  auto add = [&sets](const std::string& name, Catalog catalog,
                     const std::vector<NamedText>& texts) {
    CorpusSet set{name, std::move(catalog), {}};
    for (const NamedText& text : texts) set.texts.push_back(text.second);
    sets.push_back(std::move(set));
  };
  {
    ExampleGraph ex = BuildExampleGraph();
    Catalog& catalog = ex.graph.catalog();
    for (const char* currency : {"USD", "EUR", "GBP"}) {
      catalog.RegisterCategoryValue(ex.currency_key, currency);
    }
    CorpusSet set{"example", catalog, {}};
    for (const char* text : kExampleTexts) set.texts.push_back(text);
    for (size_t i = 0; i < kRecordedErrorCases; ++i) set.texts.push_back(kErrorCases[i].first);
    set.texts.push_back(kUnnamedThenE1Text);
    sets.push_back(std::move(set));
    late_errors.name = "late-errors";
    late_errors.catalog = catalog;
    for (size_t i = kRecordedErrorCases; i < std::size(kErrorCases); ++i) {
      late_errors.texts.push_back(kErrorCases[i].first);
    }
  }
  std::vector<NamedText> mf = MfTexts("", PinnedAnchor);
  for (const NamedText& text : MfTexts("w", WindowAnchor)) mf.push_back(text);
  add("fraud", GeneratedCatalog([](Graph* graph) {
        FinancialPropKeys keys = AddFinancialProperties(42, graph, kNumCities);
        graph->catalog().RegisterCategoryValue(keys.acc, "CQ");
        graph->catalog().RegisterCategoryValue(keys.acc, "SV");
      }),
      mf);
  std::vector<NamedText> mr = MrTexts("", "50000");
  for (const NamedText& text : MrTexts("p", "$alpha")) mr.push_back(text);
  add("recs", GeneratedCatalog([](Graph* graph) { AddTimeProperty(52, 1000000, graph); }), mr);
  add("shapes", GeneratedCatalog([](Graph* graph) { AssignRandomLabels(3, 2, 32, graph); }),
      ShapeTexts());
  sets.push_back(CorpusSet{"mutation", MutationCatalog(), MutationSeeds()});
  sets.push_back(std::move(late_errors));
  return sets;
}

std::string RefDump(const QueryPropRef& ref) {
  std::string out = (ref.is_edge ? "e" : "v") + std::to_string(ref.var) + ".";
  return out + (ref.is_id ? std::string("ID") : "k" + std::to_string(ref.key));
}

std::string ValueDump(const Value& value) {
  return std::string(ToString(value.type())) + ":" + value.ToString();
}

// A canonical dump of everything a successful parse holds; a failed one
// is its error text alone.
std::string ParseDump(const std::string& text, const Catalog& catalog) {
  const ParsedCypher parsed = ParseCypher(text, catalog);
  std::ostringstream out;
  out << "text " << text << "\n";
  if (!parsed.ok()) {
    out << "error " << parsed.error << "\n";
    return out.str();
  }
  const QueryGraph& query = parsed.query;
  for (int v = 0; v < query.num_vertices(); ++v) {
    const QueryVertex& qv = query.vertex(v);
    out << "vertex " << v << " " << qv.name << " label=" << qv.label << " bound=" << qv.bound
        << " param=" << qv.bound_param << "\n";
  }
  for (int e = 0; e < query.num_edges(); ++e) {
    const QueryEdge& qe = query.edge(e);
    out << "edge " << e << " " << qe.name << " " << qe.from << "->" << qe.to
        << " label=" << qe.label << "\n";
  }
  for (const QueryComparison& cmp : query.predicates()) {
    out << "pred " << RefDump(cmp.lhs) << " op" << static_cast<int>(cmp.op) << " ";
    if (cmp.rhs_is_const) {
      out << ValueDump(cmp.rhs_const) << " param=" << cmp.rhs_param;
    } else {
      out << RefDump(cmp.rhs_ref) << " +" << cmp.rhs_addend;
    }
    out << "\n";
  }
  for (const CypherParam& param : parsed.params) {
    out << "param $" << param.name << " " << ToString(param.expected) << " key=" << param.key
        << " pin=" << param.pin_var << "\n";
  }
  for (const ReturnItem& item : parsed.returns) {
    out << "return " << item.name << " " << RefDump(item.ref) << " agg=" << ToString(item.agg)
        << " star=" << item.star << "\n";
  }
  for (const OrderByItem& order : parsed.order_by) {
    out << "order " << order.item << (order.desc ? " desc" : " asc") << "\n";
  }
  out << "aggregate=" << parsed.has_aggregate << " distinct=" << parsed.distinct
      << " limit=" << (parsed.has_limit ? std::to_string(parsed.limit) : "none") << "\n";
  return out.str();
}

// The parse of every corpus text must match tests/data/parse_golden.txt,
// which was recorded once, before the single-pass lexer, and is never
// re-recorded: a parser change that moves any field fails here.
TEST(CypherParserGoldenTest, ParsesMatchRecording) {
  std::string dump;
  for (const CorpusSet& set : GoldenCorpus()) {
    for (size_t i = 0; i < set.texts.size(); ++i) {
      dump += "== " + set.name + " " + std::to_string(i) + "\n" +
              ParseDump(set.texts[i], set.catalog);
    }
  }
  const char* const path = APLUS_TEST_DATA_DIR "/parse_golden.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream expected;
  expected << in.rdbuf();
  // Compare block by block so a failure names the text.
  auto blocks = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("== ", 0) == 0 || out.empty()) out.emplace_back();
      out.back() += line + "\n";
    }
    return out;
  };
  const std::vector<std::string> want = blocks(expected.str());
  const std::vector<std::string> got = blocks(dump);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(want[i], got[i]);
}

// Every prefix and every single-byte substitution of every golden corpus
// text, over the catalog it belongs to, must parse or fail with a
// message, never crash. Each mutant is a heap copy freed before the
// result is read, so a result (or reused parse storage) that kept a view
// into the text shows up under AddressSanitizer.
TEST(CypherParserMutationTest, EveryPrefixAndSubstitutionParsesOrFails) {
  const char kBytes[] = {'\'', '$', '.', '\x80', '(', '-', ',', '9', ' '};
  size_t parsed_ok = 0;
  size_t rejected = 0;
  auto check = [&](const Catalog& catalog, std::string mutant) {
    mutant.reserve(32);  // a heap buffer even for short prefixes
    ParsedCypher parsed = ParseCypher(mutant, catalog);
    mutant.clear();
    mutant.shrink_to_fit();
    size_t bytes = parsed.error.size();
    for (int v = 0; v < parsed.query.num_vertices(); ++v) {
      bytes += parsed.query.vertex(v).name.size();
    }
    for (int e = 0; e < parsed.query.num_edges(); ++e) bytes += parsed.query.edge(e).name.size();
    for (const CypherParam& param : parsed.params) bytes += param.name.size();
    for (const ReturnItem& item : parsed.returns) bytes += item.name.size();
    for (const QueryComparison& cmp : parsed.query.predicates()) {
      if (cmp.rhs_const.type() == ValueType::kString) bytes += cmp.rhs_const.AsString().size();
    }
    if (parsed.ok()) {
      ++parsed_ok;
    } else {
      EXPECT_GT(bytes, 0u);
      ++rejected;
    }
  };
  for (const CorpusSet& set : GoldenCorpus()) {
    for (const std::string& text : set.texts) {
      for (size_t len = 0; len <= text.size(); ++len) check(set.catalog, text.substr(0, len));
      for (size_t pos = 0; pos < text.size(); ++pos) {
        for (char byte : kBytes) {
          if (text[pos] == byte) continue;
          std::string mutant = text;
          mutant[pos] = byte;
          check(set.catalog, std::move(mutant));
        }
      }
    }
  }
  std::printf("%zu mutants parsed, %zu rejected\n", parsed_ok, rejected);
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace aplus
