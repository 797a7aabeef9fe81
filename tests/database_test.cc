#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/database.h"
#include "datagen/example_graph.h"
#include "datagen/financial_props.h"
#include "datagen/power_law_generator.h"
#include "test_threads.h"

namespace aplus {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() {
    ExampleGraph ex = BuildExampleGraph();
    account_label_ = ex.account_label;
    customer_label_ = ex.customer_label;
    wire_label_ = ex.wire_label;
    dd_label_ = ex.dd_label;
    owns_label_ = ex.owns_label;
    amount_key_ = ex.amount_key;
    currency_key_ = ex.currency_key;
    date_key_ = ex.date_key;
    city_key_ = ex.city_key;
    accounts_ = ex.accounts;
    db_ = std::make_unique<Database>(std::move(ex.graph));
    db_->graph().catalog().RegisterCategoryValue(currency_key_, "USD");
    db_->graph().catalog().RegisterCategoryValue(currency_key_, "EUR");
    db_->graph().catalog().RegisterCategoryValue(currency_key_, "GBP");
    db_->BuildPrimaryIndexes();
  }

  label_t account_label_, customer_label_, wire_label_, dd_label_, owns_label_;
  prop_key_t amount_key_, currency_key_, date_key_, city_key_;
  std::array<vertex_id_t, 5> accounts_;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, RunSimpleQuery) {
  QueryGraph query;
  int a = query.AddVertex("a", account_label_);
  int b = query.AddVertex("b", account_label_);
  query.AddEdge(a, b, wire_label_);
  QueryOutcome result = db_->Execute(query, TestThreads());
  EXPECT_EQ(result.count, 9u);
  EXPECT_FALSE(db_->Explain(query).empty());
}

TEST_F(DatabaseTest, ReconfigureViaDdl) {
  DdlResult result = db_->ExecuteDdl(
      "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency SORT BY vnbr.city");
  ASSERT_TRUE(result.ok) << result.message;
  EXPECT_GE(result.seconds, 0.0);
  EXPECT_EQ(db_->index_store().primary(Direction::kFwd)->config().partitions.size(), 2u);
  // Queries still run correctly after reconfiguration.
  QueryGraph query;
  int a = query.AddVertex("a", account_label_);
  int b = query.AddVertex("b", account_label_);
  query.AddEdge(a, b, wire_label_);
  EXPECT_EQ(db_->Execute(query, TestThreads()).count, 9u);
}

TEST_F(DatabaseTest, CreateOneHopViewViaDdl) {
  DdlResult result = db_->ExecuteDdl(
      "CREATE 1-HOP VIEW LargeTrnx "
      "MATCH vs-[eadj]->vd WHERE eadj.amount>50 "
      "INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.ID");
  ASSERT_TRUE(result.ok) << result.message;
  EXPECT_NE(db_->index_store().FindVpIndex("LargeTrnx", Direction::kFwd), nullptr);
  EXPECT_NE(db_->index_store().FindVpIndex("LargeTrnx", Direction::kBwd), nullptr);
}

TEST_F(DatabaseTest, CreateTwoHopViewViaDdl) {
  DdlResult result = db_->ExecuteDdl(
      "CREATE 2-HOP VIEW MoneyFlow "
      "MATCH vs-[eb]->vd-[eadj]->vnbr "
      "WHERE eb.date<eadj.date, eadj.amount<eb.amount "
      "INDEX AS PARTITION BY eadj.label SORT BY vnbr.city");
  ASSERT_TRUE(result.ok) << result.message;
  EpIndex* ep = db_->index_store().FindEpIndex("MoneyFlow");
  ASSERT_NE(ep, nullptr);
  EXPECT_EQ(ep->kind(), EpKind::kDstFwd);
}

TEST_F(DatabaseTest, DdlErrorsSurfaceCleanly) {
  DdlResult bad = db_->ExecuteDdl("CREATE 3-HOP VIEW Nope");
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.message.empty());
}

TEST_F(DatabaseTest, ExplainShowsPlan) {
  QueryGraph query;
  int a = query.AddVertex("a", account_label_);
  int b = query.AddVertex("b", account_label_);
  query.AddEdge(a, b, wire_label_);
  std::string plan = db_->Explain(query);
  EXPECT_NE(plan.find("SCAN"), std::string::npos);
}

TEST_F(DatabaseTest, InsertThroughMaintainerThenQuery) {
  QueryGraph query;
  int a = query.AddVertex("a", account_label_);
  int b = query.AddVertex("b", account_label_);
  query.AddEdge(a, b, wire_label_);
  uint64_t before = db_->Execute(query, TestThreads()).count;

  Graph& g = db_->graph();
  edge_id_t e = g.AddEdge(accounts_[0], accounts_[1], wire_label_);
  g.edge_props().mutable_column(amount_key_)->SetInt64(e, 77);
  g.edge_props().mutable_column(date_key_)->SetInt64(e, 99);
  db_->maintainer().OnEdgeInserted(e);
  // Run() flushes pending updates automatically.
  EXPECT_EQ(db_->Execute(query, TestThreads()).count, before + 1);
}

// During concurrent ingest the maintainer updates only the primaries, so
// a view accepted then would miss the edges the phase inserts: the count
// below would read 4 through the view where the graph holds 5 W edges of
// amount > 50.
TEST_F(DatabaseTest, ViewDdlDuringConcurrentIngestIsRejected) {
  ConcurrentIngestOptions options;
  options.max_vertices = db_->graph().num_vertices();
  options.max_edges = db_->graph().num_edges() + 1;
  options.background_merge = false;
  db_->BeginConcurrentIngest(options);
  DdlResult view = db_->ExecuteDdl(
      "CREATE 1-HOP VIEW Big MATCH vs-[eadj]->vd WHERE eadj.amount>50 "
      "INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.ID");
  EXPECT_FALSE(view.ok);
  EXPECT_EQ(view.message, "concurrent ingest is active: DDL rejected");
  EXPECT_EQ(db_->index_store().FindVpIndex("Big", Direction::kFwd), nullptr);

  Graph& g = db_->graph();
  edge_id_t e = g.AddEdge(accounts_[0], accounts_[1], wire_label_);
  ASSERT_NE(e, kInvalidEdge);
  g.edge_props().mutable_column(amount_key_)->SetInt64(e, 1000);
  g.edge_props().mutable_column(date_key_)->SetInt64(e, 99);
  db_->maintainer().OnEdgeInserted(e);
  db_->EndConcurrentIngest();
  EXPECT_EQ(db_->ExecuteCypher("MATCH (a)-[e:W]->(b) WHERE e.amount > 50 RETURN COUNT(*)").count,
            5u);
}

// The rest of the DDL / secondary-index surface during ingest: RECONFIGURE
// is a typed error, and programmatic index creation returns null.
TEST_F(DatabaseTest, IndexChangesDuringConcurrentIngestAreRejected) {
  ConcurrentIngestOptions options;
  options.max_vertices = db_->graph().num_vertices();
  options.max_edges = db_->graph().num_edges();
  db_->BeginConcurrentIngest(options);
  DdlResult reconfigure =
      db_->ExecuteDdl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.city");
  EXPECT_FALSE(reconfigure.ok);
  EXPECT_EQ(reconfigure.message, "concurrent ingest is active: DDL rejected");
  EXPECT_EQ(db_->CreateVpIndex("Vp", Predicate::True(), IndexConfig::Default(), Direction::kFwd),
            nullptr);
  Predicate flow;  // eb.date < eadj.date: a valid 2-hop view predicate
  flow.AddRef({PropSite::kBoundEdge, date_key_}, CmpOp::kLt, {PropSite::kAdjEdge, date_key_});
  EXPECT_EQ(db_->CreateEpIndex("Ep", EpKind::kDstFwd, flow, IndexConfig::Default()), nullptr);
  db_->EndConcurrentIngest();
  EXPECT_TRUE(db_->index_store().primary(Direction::kFwd)->config().SamePartitioning(
      IndexConfig::Default()));
  EXPECT_EQ(db_->index_store().FindEpIndex("Ep"), nullptr);
  // Both succeed once the phase is over.
  EXPECT_NE(db_->CreateEpIndex("Ep", EpKind::kDstFwd, flow, IndexConfig::Default()), nullptr);
  EXPECT_TRUE(db_->ExecuteDdl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label").ok);
}

TEST_F(DatabaseTest, MemoryReporting) {
  size_t primary_only = db_->IndexMemoryBytes();
  db_->ExecuteDdl(
      "CREATE 1-HOP VIEW V1 MATCH vs-[eadj]->vd WHERE eadj.amount>50 "
      "INDEX AS FW PARTITION BY eadj.label SORT BY vnbr.ID");
  EXPECT_GT(db_->IndexMemoryBytes(), primary_only);
}

TEST_F(DatabaseTest, ExampleFourCurrencyQuery) {
  // Example 4: Wire transfers in USD out of Alice's accounts, after the
  // Section III reconfiguration the slice is read without predicates.
  db_->ExecuteDdl(
      "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency SORT BY vnbr.ID");
  QueryGraph query;
  int c1 = query.AddVertex("c1", customer_label_);
  int a1 = query.AddVertex("a1", account_label_);
  int a2 = query.AddVertex("a2", account_label_);
  query.AddEdge(c1, a1, owns_label_, "r1");
  query.AddEdge(a1, a2, wire_label_, "r2");
  QueryComparison usd;
  usd.lhs = QueryPropRef{1, true, currency_key_, false};
  usd.op = CmpOp::kEq;
  usd.rhs_const = Value::Category(0);  // USD
  query.AddPredicate(usd);
  QueryOutcome result = db_->Execute(query, TestThreads());
  // USD wires: t5 (v4->v2), t8 (v2->v4), t9 (v4->v5), t14 (v3->v4),
  // t20 (v1->v4). Owned sources: v1..v5 all owned; all 5 qualify.
  EXPECT_EQ(result.count, 5u);
}

// The QueryGraph one-shots prepare a pattern exactly like the bare-MATCH
// Cypher text of it, so both render the same plan and count the same
// matches, under D and under D+VPc (city-sorted offset lists).
class OneShotPathTest : public ::testing::Test {
 protected:
  OneShotPathTest() { Build(EngineConfig::FromEnv()); }

  void Build(const EngineConfig& config) {
    Graph graph;
    PowerLawParams params;
    params.num_vertices = 1000;
    params.avg_degree = 6.0;
    params.seed = 41;
    GeneratePowerLawGraph(params, &graph);
    keys_ = AddFinancialProperties(42, &graph, /*num_cities=*/8);
    graph.catalog().RegisterCategoryValue(keys_.acc, "CQ");
    graph.catalog().RegisterCategoryValue(keys_.acc, "SV");
    elabel_ = graph.catalog().FindEdgeLabel("E");
    db_ = std::make_unique<Database>(std::move(graph), config);
    db_->BuildPrimaryIndexes();
  }

  // D+VPc: city-sorted secondary VP indexes in both directions.
  bool CreateVpc() {
    return db_->ExecuteDdl("CREATE 1-HOP VIEW VPc MATCH vs-[eadj]->vd INDEX AS FW-BW "
                           "PARTITION BY eadj.label SORT BY vnbr.city")
        .ok;
  }

  // One pattern in both spellings.
  struct Case {
    std::string name;
    QueryGraph graph;
    std::string text;
  };

  std::vector<Case> Cases() const {
    std::vector<Case> cases;
    {
      Case two_hop{"2-hop", {}, "MATCH (a)-[r1:E]->(b)-[r2:E]->(c)"};
      int a = two_hop.graph.AddVertex("a");
      int b = two_hop.graph.AddVertex("b");
      int c = two_hop.graph.AddVertex("c");
      two_hop.graph.AddEdge(a, b, elabel_, "r1");
      two_hop.graph.AddEdge(b, c, elabel_, "r2");
      cases.push_back(std::move(two_hop));
    }
    {
      Case triangle{"triangle", {}, "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c)"};
      int a = triangle.graph.AddVertex("a");
      int b = triangle.graph.AddVertex("b");
      int c = triangle.graph.AddVertex("c");
      triangle.graph.AddEdge(a, b, elabel_, "r1");
      triangle.graph.AddEdge(b, c, elabel_, "r2");
      triangle.graph.AddEdge(a, c, elabel_, "r3");
      cases.push_back(std::move(triangle));
    }
    {
      // MF1 (Figure 5a): a directed 4-cycle of CQ accounts with
      // a2.city = a4.city.
      Case mf1{"MF1", {},
               "MATCH (a1)-[e1:E]->(a2)-[e2:E]->(a3)-[e3:E]->(a4)-[e4:E]->(a1) WHERE "
               "a1.acc = CQ, a2.acc = CQ, a3.acc = CQ, a4.acc = CQ, a2.city = a4.city"};
      QueryGraph& q = mf1.graph;
      for (int i = 1; i <= 4; ++i) q.AddVertex("a" + std::to_string(i));
      for (int i = 1; i <= 4; ++i) q.AddEdge(i - 1, i % 4, elabel_, "e" + std::to_string(i));
      const category_t cq = db_->graph().catalog().FindCategoryValue(keys_.acc, "CQ");
      for (int v = 0; v < 4; ++v) {
        QueryComparison acc;
        acc.lhs = QueryPropRef{v, false, keys_.acc, false};
        acc.rhs_const = Value::Category(cq);
        q.AddPredicate(acc);
      }
      QueryComparison city;
      city.lhs = QueryPropRef{1, false, keys_.city, false};
      city.rhs_is_const = false;
      city.rhs_ref = QueryPropRef{3, false, keys_.city, false};
      q.AddPredicate(city);
      cases.push_back(std::move(mf1));
    }
    return cases;
  }

  void ExpectSameAsCypher() {
    for (const Case& c : Cases()) {
      SCOPED_TRACE(c.name);
      const std::string plan = db_->Explain(c.graph);
      EXPECT_EQ(plan, db_->Explain(c.text));
      EXPECT_NE(plan.find("ProjectSink (count)"), std::string::npos) << plan;
      QueryOutcome cypher = db_->ExecuteCypher(c.text);
      ASSERT_TRUE(cypher.ok()) << cypher.error;
      for (int threads : {1, 4}) {
        QueryOutcome out = db_->Execute(c.graph, threads);
        ASSERT_TRUE(out.ok()) << out.error;
        EXPECT_EQ(out.count, cypher.count) << "threads=" << threads;
      }
    }
  }

  FinancialPropKeys keys_;
  label_t elabel_ = kInvalidLabel;
  std::unique_ptr<Database> db_;
};

TEST_F(OneShotPathTest, QueryGraphMatchesCypherUnderD) { ExpectSameAsCypher(); }

TEST_F(OneShotPathTest, QueryGraphMatchesCypherUnderVpc) {
  ASSERT_TRUE(CreateVpc());
  ExpectSameAsCypher();
}

// The config's mem_cap_bytes reaches the QueryGraph one-shot with the
// prepared path's typed status and error text: MF1's MULTI-EXTEND over
// city-sorted VPc offset lists grows run-decode scratch, which charges
// the budget.
TEST_F(OneShotPathTest, QueryGraphHonorsConfigMemCap) {
  EngineConfig config;
  config.mem_cap_bytes = 1;
  Build(config);
  ASSERT_TRUE(CreateVpc());
  const QueryGraph mf1 = Cases().back().graph;
  ASSERT_NE(db_->Explain(mf1).find("MULTI-EXTEND"), std::string::npos) << db_->Explain(mf1);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    QueryOutcome capped = db_->Execute(mf1, threads);
    EXPECT_EQ(capped.status, QueryOutcome::Status::kResourceExhausted);
    EXPECT_NE(capped.error.find("memory budget exceeded (APLUS_MEM_CAP=1 bytes)"),
              std::string::npos)
        << capped.error;
  }
}

// A partition-category literal outside the property's domain names no
// partition: `acc = 2` (the null slot's index), `acc = 3` and
// `acc = 100000` (past the fanout) and a negative literal stay residual
// filters and count exactly what a primary-only (D) database counts,
// through VP, EP and primary lists partitioned on vnbr.acc.
class CategoryLiteralTest : public ::testing::Test {
 protected:
  static std::unique_ptr<Database> Open(const std::string& ddl) {
    Graph graph;
    PowerLawParams params;
    params.num_vertices = 400;
    params.avg_degree = 6.0;
    params.seed = 7;
    GeneratePowerLawGraph(params, &graph);
    FinancialPropKeys keys = AddFinancialProperties(8, &graph, /*num_cities=*/5);
    PropertyColumn* acc = graph.vertex_props().mutable_column(keys.acc);
    for (vertex_id_t v = 0; v < graph.num_vertices(); v += 4) acc->SetNull(v);
    auto db = std::make_unique<Database>(std::move(graph));
    db->BuildPrimaryIndexes();
    if (!ddl.empty()) {
      DdlResult r = db->ExecuteDdl(ddl);
      EXPECT_TRUE(r.ok) << r.message;
    }
    return db;
  }

  static std::vector<std::string> Texts(vertex_id_t anchor, int64_t literal) {
    std::string pin = "a.ID = " + std::to_string(anchor);
    std::string acc = std::to_string(literal);
    return {"MATCH (a)-[e1:E]->(b) WHERE " + pin + ", b.acc = " + acc,
            "MATCH (b)-[e1:E]->(a) WHERE " + pin + ", b.acc = " + acc,
            "MATCH (a)-[e1:E]->(b)-[e2:E]->(c) WHERE " + pin + ", e1.date < e2.date, c.acc = " +
                acc};
  }
};

TEST_F(CategoryLiteralTest, OutOfDomainLiteralsCountLikePrimaryOnly) {
  std::unique_ptr<Database> reference = Open("");
  const std::vector<std::string> ddls = {
      "CREATE 1-HOP VIEW VPa MATCH vs-[eadj]->vd INDEX AS FW-BW "
      "PARTITION BY eadj.label, vnbr.acc",
      "CREATE 2-HOP VIEW EPa MATCH vs-[eb]->vd-[eadj]->vnbr WHERE eb.date<eadj.date "
      "INDEX AS PARTITION BY eadj.label, vnbr.acc",
      "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, vnbr.acc"};
  const uint32_t domain = kNumAccountTypes;
  for (const std::string& ddl : ddls) {
    SCOPED_TRACE(ddl);
    std::unique_ptr<Database> tuned = Open(ddl);
    uint64_t in_domain_matches = 0;
    for (vertex_id_t anchor : {0u, 1u, 2u, 3u, 6u, 17u}) {
      for (int64_t literal : {int64_t{0}, int64_t{1}, int64_t{domain}, int64_t{domain} + 1,
                              int64_t{100000}}) {
        for (const std::string& text : Texts(anchor, literal)) {
          SCOPED_TRACE(text);
          QueryOutcome expected = reference->ExecuteCypher(text);
          QueryOutcome got = tuned->ExecuteCypher(text);
          ASSERT_TRUE(expected.ok()) << expected.error;
          ASSERT_TRUE(got.ok()) << got.error;
          EXPECT_EQ(got.count, expected.count);
          if (literal < domain) {
            in_domain_matches += got.count;
          } else {
            EXPECT_EQ(got.count, 0u);
          }
        }
      }
    }
    EXPECT_GT(in_domain_matches, 0u);

    // A negative literal, which Cypher cannot spell.
    const prop_key_t acc = tuned->graph().catalog().FindProperty("acc", PropTargetKind::kVertex);
    QueryGraph query;
    int a = query.AddVertex("a");
    int b = query.AddVertex("b");
    query.AddEdge(a, b, tuned->graph().catalog().FindEdgeLabel("E"), "e1");
    QueryComparison pin;
    pin.lhs = QueryPropRef{a, false, kInvalidPropKey, true};
    pin.rhs_const = Value::Int64(0);
    query.AddPredicate(pin);
    QueryComparison negative;
    negative.lhs = QueryPropRef{b, false, acc, false};
    negative.rhs_const = Value::Int64(-1);
    query.AddPredicate(negative);
    QueryOutcome got = tuned->Execute(query, TestThreads());
    ASSERT_TRUE(got.ok()) << got.error;
    EXPECT_EQ(got.count, reference->Execute(query, TestThreads()).count);
    EXPECT_EQ(got.count, 0u);
  }
}

// A residual addend past INT64_MAX compares against the exact sum.
TEST(AddendOverflowTest, CypherResidualComparesAgainstTheExactSum) {
  Graph graph;
  label_t v = graph.catalog().AddVertexLabel("V");
  label_t e = graph.catalog().AddEdgeLabel("E");
  prop_key_t w = graph.AddEdgeProperty("w", ValueType::kInt64);
  for (int i = 0; i < 4; ++i) graph.AddVertex(v);
  edge_id_t e01 = graph.AddEdge(0, 1, e);
  edge_id_t e12 = graph.AddEdge(1, 2, e);
  edge_id_t e13 = graph.AddEdge(1, 3, e);
  graph.edge_props().mutable_column(w)->SetInt64(e01, 5);
  graph.edge_props().mutable_column(w)->SetInt64(e12, 3);
  graph.edge_props().mutable_column(w)->SetInt64(e13, 4);
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  // 5 < 3 + INT64_MAX and 5 < 4 + INT64_MAX both hold.
  QueryOutcome out = db.ExecuteCypher(
      "MATCH (a)-[e1:E]->(b)-[e2:E]->(c) WHERE e1.w < e2.w + 9223372036854775807");
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_EQ(out.count, 2u);
  out = db.ExecuteCypher(
      "MATCH (a)-[e1:E]->(b)-[e2:E]->(c) WHERE e1.w > e2.w + 9223372036854775807");
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_EQ(out.count, 0u);
}

// Two categorical properties of domain 5000 fan a list out into
// 5001 * 5001 = 25,010,001 sublists, past the 2^24 bound on a page's
// partition product: the DDL must fail with a typed error before any
// index is touched, and the database keeps serving its old config.
TEST(FanoutBoundTest, OversizedPartitionFanoutIsATypedDdlError) {
  Graph graph;
  label_t v = graph.catalog().AddVertexLabel("V");
  label_t e = graph.catalog().AddEdgeLabel("E");
  graph.AddEdgeProperty("a", ValueType::kCategory, 5000);
  graph.AddVertexProperty("b", ValueType::kCategory, 5000);
  for (int i = 0; i < 4; ++i) graph.AddVertex(v);
  graph.AddEdge(0, 1, e);
  graph.AddEdge(1, 2, e);
  graph.AddEdge(1, 3, e);
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  const char* query = "MATCH (a)-[e1:E]->(b)-[e2:E]->(c) RETURN COUNT(*)";
  ASSERT_EQ(db.ExecuteCypher(query).count, 2u);

  DdlResult reconfigure =
      db.ExecuteDdl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.a, vnbr.b");
  EXPECT_FALSE(reconfigure.ok);
  EXPECT_NE(reconfigure.message.find("fan-out"), std::string::npos) << reconfigure.message;
  for (Direction dir : {Direction::kFwd, Direction::kBwd}) {
    EXPECT_TRUE(db.index_store().primary(dir)->config().SamePartitioning(IndexConfig::Default()));
  }
  EXPECT_EQ(db.ExecuteCypher(query).count, 2u);

  DdlResult view = db.ExecuteDdl(
      "CREATE 1-HOP VIEW Wide MATCH vs-[eadj]->vd INDEX AS FW-BW PARTITION BY eadj.a, vnbr.b");
  EXPECT_FALSE(view.ok);
  EXPECT_NE(view.message.find("fan-out"), std::string::npos) << view.message;
  EXPECT_EQ(db.index_store().FindVpIndex("Wide", Direction::kFwd), nullptr);
  EXPECT_EQ(db.index_store().FindVpIndex("Wide", Direction::kBwd), nullptr);
  EXPECT_EQ(db.ExecuteCypher(query).count, 2u);
}

// Two vertices joined by `edges` parallel E edges: a large but
// well-formed pattern (20,000 edges is a 409 KB text, well inside the
// server's 16 MiB frame limit).
std::string ParallelEdgesText(int edges) {
  std::string text = "MATCH ";
  for (int i = 0; i < edges; ++i) {
    if (i > 0) text += ", ";
    text += "(a)-[e" + std::to_string(i) + ":E]->(b)";
  }
  return text + " RETURN COUNT(*)";
}

TEST(PatternEdgeLimitTest, OversizedEdgeCountIsATypedPlanError) {
  Graph graph;
  label_t v = graph.catalog().AddVertexLabel("V");
  label_t e = graph.catalog().AddEdgeLabel("E");
  for (int i = 0; i < 2; ++i) graph.AddVertex(v);
  graph.AddEdge(0, 1, e);
  graph.AddEdge(0, 1, e);
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  // The optimizer's memo index grows with the square of the edge count:
  // past kMaxQueryEdges the prepare is refused, not attempted.
  std::unique_ptr<PreparedQuery> huge = db.Prepare(ParallelEdgesText(20000));
  EXPECT_EQ(huge->status(), QueryOutcome::Status::kPlanError);
  EXPECT_NE(huge->error().find("20000 query edges"), std::string::npos) << huge->error();
  EXPECT_NE(huge->error().find("at most " + std::to_string(DpOptimizer::kMaxQueryEdges)),
            std::string::npos)
      << huge->error();
  EXPECT_TRUE(huge->plan_text().empty());
  EXPECT_EQ(huge->Execute().status, QueryOutcome::Status::kPlanError);

  // Exactly at the limit the pattern plans; one more edge is refused.
  std::unique_ptr<PreparedQuery> fits = db.Prepare(ParallelEdgesText(DpOptimizer::kMaxQueryEdges));
  ASSERT_TRUE(fits->ok()) << fits->error();
  EXPECT_EQ(fits->Execute().count, 0u);  // 128 distinct edges between a and b: only 2 exist
  EXPECT_EQ(db.Prepare(ParallelEdgesText(DpOptimizer::kMaxQueryEdges + 1))->status(),
            QueryOutcome::Status::kPlanError);
  EXPECT_EQ(db.ExecuteCypher(ParallelEdgesText(2)).count, 2u);
}

}  // namespace
}  // namespace aplus
