// Parses the openCypher queries that appear verbatim in the paper's
// Examples 1-7 and verifies both the parsed structure and, through the
// Database facade, the counted results on the Figure 1 graph.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "core/database.h"
#include "datagen/example_graph.h"
#include "query/cypher_parser.h"
#include "util/rng.h"

namespace aplus {
namespace {

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
  // the offending token it quotes.
  const std::pair<const char*, const char*> cases[] = {
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
  };
  for (const auto& [text, message] : cases) {
    ParsedCypher parsed = ParseCypher(text, ex_.graph.catalog());
    EXPECT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.error, message) << text;
  }
}

// Byte-level mutants of the MF1-MF5 and MR1-MR3 texts must parse or
// fail with a message, never crash. Each mutant lives in its own heap
// buffer that is freed before the result is read, so a parse result
// that kept a view into the text shows up under AddressSanitizer.
TEST(CypherParserMutationTest, MutantsParseOrFailCleanly) {
  Catalog catalog;
  catalog.AddEdgeLabel("E");
  prop_key_t acc = catalog.AddProperty("acc", PropTargetKind::kVertex, ValueType::kCategory, 2);
  catalog.RegisterCategoryValue(acc, "CQ");
  catalog.RegisterCategoryValue(acc, "SV");
  catalog.AddProperty("city", PropTargetKind::kVertex, ValueType::kCategory, 4417);
  catalog.AddProperty("amount", PropTargetKind::kEdge, ValueType::kInt64);
  catalog.AddProperty("date", PropTargetKind::kEdge, ValueType::kInt64);
  catalog.AddProperty("time", PropTargetKind::kEdge, ValueType::kInt64);
  // Pf(ei, ej) of Section V-D with alpha = 50.
  auto flow = [](const std::string& ei, const std::string& ej) {
    return ei + ".date < " + ej + ".date, " + ei + ".amount > " + ej + ".amount, " + ei +
           ".amount < " + ej + ".amount + 50";
  };
  const std::string flow12 = flow("e1", "e2");
  const std::string flow23 = flow("e2", "e3");
  const std::string flow34 = flow("e3", "e4");
  const std::string seeds[] = {
      "MATCH (a1)-[e1:E]->(a2)-[e2:E]->(a3)-[e3:E]->(a4)-[e4:E]->(a1) WHERE a1.ID = 17, "
      "a1.acc = CQ, a2.acc = CQ, a3.acc = CQ, a4.acc = CQ, a2.city = a4.city RETURN COUNT(*)",
      "MATCH (a1)-[e1:E]->(a2)-[e2:E]->(a3)-[e3:E]->(a4) WHERE a1.ID = 17, "
      "a1.city = a2.city, a2.city = a3.city, a3.city = a4.city RETURN COUNT(*)",
      "MATCH (a1)-[e1:E]->(a2), (a1)-[e2:E]->(a3)-[e3:E]->(a5), (a1)-[e4:E]->(a4) "
      "WHERE a3.ID = 17, a2.city = a4.city, a4.city = a5.city, a1.acc = CQ, a2.acc = CQ, "
      "a3.acc = CQ, a4.acc = CQ, a5.acc = SV, " + flow23 + " RETURN COUNT(*)",
      "MATCH (a1)-[e1:E]->(a2)-[e2:E]->(a3), (a1)-[e3:E]->(a4)-[e4:E]->(a5) "
      "WHERE a1.ID = 17, a1.city = 5, a2.city = a4.city, a2.acc = CQ, a3.acc = CQ, "
      "a4.acc = SV, a5.acc = SV, " + flow12 + ", " + flow34 + " RETURN COUNT(*)",
      "MATCH (a1)-[e1:E]->(a2)-[e2:E]->(a3)-[e3:E]->(a4)-[e4:E]->(a5) WHERE a1.ID = 17, "
      "a1.acc = CQ, a2.acc = CQ, a3.acc = CQ, a4.acc = CQ, a5.acc = CQ, " + flow12 + ", " +
          flow23 + ", " + flow34 + " RETURN COUNT(*)",
      "MATCH (a1)-[e1:E]->(a2), (a3)-[f1:E]->(a2) WHERE a1.ID = $src, e1.time < $alpha "
      "RETURN a3, COUNT(*) ORDER BY COUNT(*) DESC LIMIT 10",
      "MATCH (a1)-[e1:E]->(a2), (a4)-[f1:E]->(a2), (a1)-[e2:E]->(a3), (a4)-[f2:E]->(a3) "
      "WHERE a1.ID = 3, e1.time < 50000, e2.time < 50000 RETURN COUNT(*)",
      "MATCH (a1)-[e1:E]->(a2), (a5)-[f1:E]->(a2), (a1)-[e2:E]->(a3), (a5)-[f2:E]->(a3), "
      "(a1)-[e3:E]->(a4), (a5)-[f3:E]->(a4) WHERE a1.ID = 3, e1.time < 50000, "
      "e2.time < 50000, e3.time < 50000 RETURN DISTINCT a5 LIMIT 5",
  };
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

}  // namespace
}  // namespace aplus
