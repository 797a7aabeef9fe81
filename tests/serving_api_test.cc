// Serving-layer API tests: prepared queries with $param binding,
// projected row streaming through RowBatch consumers, LIMIT semantics
// under serial and morsel-parallel execution, plan-cache behaviour, and
// the QueryOutcome error contract. Row-level correctness is checked
// against the oracle (tests/oracle.h).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/power_law_generator.h"
#include "oracle.h"
#include "test_threads.h"
#include "util/rng.h"

namespace aplus {
namespace {

class ServingApiTest : public ::testing::Test {
 protected:
  ServingApiTest() { Build(EngineConfig::FromEnv()); }

  void Build(const EngineConfig& config) {
    Graph graph;
    PowerLawParams params;
    params.num_vertices = 600;
    params.avg_degree = 5.0;
    params.seed = 17;
    GeneratePowerLawGraph(params, &graph);
    amt_key_ = graph.AddEdgeProperty("amt", ValueType::kInt64);
    cur_key_ = graph.AddEdgeProperty("cur", ValueType::kCategory, /*domain_size=*/3);
    graph.catalog().RegisterCategoryValue(cur_key_, "USD");
    graph.catalog().RegisterCategoryValue(cur_key_, "EUR");
    graph.catalog().RegisterCategoryValue(cur_key_, "GBP");
    tag_key_ = graph.AddVertexProperty("tag", ValueType::kString);
    PropertyColumn* amt = graph.edge_props().mutable_column(amt_key_);
    PropertyColumn* cur = graph.edge_props().mutable_column(cur_key_);
    Rng rng(23);
    for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
      amt->SetInt64(e, static_cast<int64_t>(rng.NextBounded(1000)));
      cur->SetCategory(e, static_cast<category_t>(rng.NextBounded(3)));
    }
    PropertyColumn* tag = graph.vertex_props().mutable_column(tag_key_);
    for (vertex_id_t v = 0; v < graph.num_vertices(); ++v) {
      tag->SetString(v, "tag_" + std::to_string(v % 7));
    }
    db_ = std::make_unique<Database>(std::move(graph), config);
    db_->BuildPrimaryIndexes();
  }

  // The oracle's single COUNT(*) cell for `text`, checked at 1 and 4
  // threads through `prepared` (a fresh prepare when null).
  int64_t CheckedCount(const std::string& text, const OracleParams& params = {},
                       PreparedQuery* prepared = nullptr) {
    const std::vector<Row> rows = ExpectMatchesOracle(db_.get(), text, params, prepared);
    EXPECT_EQ(rows.size(), 1u) << text;
    return rows.size() == 1 ? rows[0][0].AsInt64() : -1;
  }

  prop_key_t amt_key_ = kInvalidPropKey;
  prop_key_t cur_key_ = kInvalidPropKey;
  prop_key_t tag_key_ = kInvalidPropKey;
  std::unique_ptr<Database> db_;
};

constexpr const char* kTwoHopText =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = $src RETURN b, c, r2.amt";

TEST_F(ServingApiTest, PreparedTwoHopParamBindMatchesOracle) {
  Session session(db_.get());
  PreparedQuery* prepared = session.Prepare(kTwoHopText);
  ASSERT_TRUE(prepared->ok()) << prepared->error();
  EXPECT_EQ(prepared->num_params(), 1u);
  ASSERT_EQ(prepared->columns().size(), 3u);
  EXPECT_EQ(prepared->columns()[0].name, "b");
  EXPECT_EQ(prepared->columns()[2].name, "r2.amt");

  uint64_t nonzero = 0;
  for (vertex_id_t src : {0u, 1u, 7u, 42u, 131u, 599u}) {
    if (!ExpectMatchesOracle(db_.get(), kTwoHopText, {{"src", Value::Int64(src)}}, prepared)
             .empty()) {
      ++nonzero;
    }
  }
  EXPECT_GT(nonzero, 0u) << "degenerate workload: every tested source had zero 2-hops";

  // Same normalized text → cache hit, same PreparedQuery, no re-plan.
  PreparedQuery* again = session.Prepare(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c)\n  WHERE a.ID = $src\n  RETURN b, c, r2.amt");
  EXPECT_EQ(again, prepared);
  EXPECT_EQ(session.cache_hits(), 1u);
  EXPECT_EQ(session.cache_misses(), 1u);
}

TEST_F(ServingApiTest, RebindAfterParallelExecuteSeesNewValue) {
  // Replicas created by a parallel Execute must be patched by later
  // Binds (the slot set is re-collected when the pipeline count grows):
  // each bind after the first follows a 4-thread execute.
  Session session(db_.get());
  PreparedQuery* prepared = session.Prepare(kTwoHopText);
  ASSERT_TRUE(prepared->ok()) << prepared->error();
  for (vertex_id_t src : {3u, 99u, 250u}) {
    ExpectMatchesOracle(db_.get(), kTwoHopText, {{"src", Value::Int64(src)}}, prepared);
  }
}

TEST_F(ServingApiTest, LimitStopsEarlySerialAndParallel) {
  // One-hop enumeration: total matches = number of E edges, and a LIMIT
  // returns any min(limit, total) of them.
  const uint64_t total = db_->graph().num_edges();
  for (uint64_t limit : std::vector<uint64_t>{0, 1, 100, total - 1, total, total + 500}) {
    ExpectMatchesOracle(db_.get(),
                        "MATCH (a)-[r:E]->(b) RETURN a, b LIMIT " + std::to_string(limit));
  }
}

// A bare MATCH with a LIMIT below the match count counts exactly LIMIT
// matches: each one claims a row of the sink's budget, so the last
// EXTEND must enumerate them rather than count its whole list at once.
TEST_F(ServingApiTest, BareMatchLimitCountsExactlyTheLimit) {
  const std::string base = "MATCH (a)-[r1:E]->(b)-[r2:E]->(c)";
  const std::vector<Row> hub =
      OracleRows(db_->graph(), base + " RETURN a, COUNT(*) ORDER BY COUNT(*) DESC LIMIT 1");
  ASSERT_EQ(hub.size(), 1u);
  const uint64_t hub_matches = static_cast<uint64_t>(hub[0][1].AsInt64());
  ASSERT_GT(hub_matches, 5u);
  const uint64_t total = static_cast<uint64_t>(CheckedCount(base + " RETURN COUNT(*)"));
  for (bool pinned : {false, true}) {
    const uint64_t matches = pinned ? hub_matches : total;
    const std::string text = base + (pinned ? " WHERE a.ID = $src" : "");
    const OracleParams params = pinned ? OracleParams{{"src", hub[0][0]}} : OracleParams{};
    // Every match without a LIMIT, exactly LIMIT matches and no rows with one.
    ExpectMatchesOracle(db_.get(), text, params);
    for (uint64_t limit : std::vector<uint64_t>{1, 5, matches - 1}) {
      ExpectMatchesOracle(db_.get(), text + " LIMIT " + std::to_string(limit), params);
    }
  }
}

TEST_F(ServingApiTest, CountStarIsTheDegenerateAggregate) {
  // A bare RETURN COUNT(*) (no grouping, no ordering) is pushed down
  // onto the counting sink: the plan materializes no rows at all
  // ("ProjectSink (count)", not a GROUP AGGREGATE stage) and Execute
  // synthesizes the single output row from the match count. A bare
  // MATCH (no RETURN) stays the same counting projection with rows == 0.
  Session session(db_.get());
  RowCollector rc;
  QueryOutcome out =
      session.Execute("MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN COUNT(*)", &rc);
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_EQ(out.rows, 1u);
  ASSERT_EQ(rc.rows.size(), 1u);
  EXPECT_EQ(static_cast<uint64_t>(rc.rows[0][0].AsInt64()), out.count);
  PreparedQuery* prepared =
      session.Prepare("MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN COUNT(*)");
  ASSERT_TRUE(prepared->ok()) << prepared->error();
  const std::string& plan = prepared->plan_text();
  EXPECT_NE(plan.find("ProjectSink (count)"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("GROUP AGGREGATE"), std::string::npos) << plan;
  EXPECT_TRUE(prepared->count_star_only());
  EXPECT_FALSE(prepared->has_stages());
  ASSERT_EQ(prepared->columns().size(), 1u);
  EXPECT_EQ(prepared->columns()[0].type, ValueType::kInt64);
  const QueryGraph q = OracleParse(db_->graph(), "MATCH (a)-[r1:E]->(b)-[r2:E]->(c)").query;
  QueryOutcome programmatic = db_->Execute(q, TestThreads());
  ASSERT_TRUE(programmatic.ok()) << programmatic.error;
  EXPECT_EQ(out.count, programmatic.count);
  QueryOutcome bare = session.Execute("MATCH (a)-[r1:E]->(b)-[r2:E]->(c)");
  ASSERT_TRUE(bare.ok()) << bare.error;
  EXPECT_EQ(bare.rows, 0u);
  EXPECT_EQ(bare.count, programmatic.count);
  // LIMIT under aggregation caps the output rows (here: the single
  // aggregate row), not the match enumeration.
  QueryOutcome capped = session.Execute("MATCH (a)-[r:E]->(b) RETURN COUNT(*) LIMIT 10");
  ASSERT_TRUE(capped.ok()) << capped.error;
  EXPECT_EQ(capped.count, db_->graph().num_edges());
  EXPECT_EQ(capped.rows, 1u);
  QueryOutcome zero = session.Execute("MATCH (a)-[r:E]->(b) RETURN COUNT(*) LIMIT 0");
  ASSERT_TRUE(zero.ok()) << zero.error;
  EXPECT_EQ(zero.rows, 0u);
}

TEST_F(ServingApiTest, GroupByMemoryCapReturnsResourceExhausted) {
  // The config's mem_cap_bytes (APLUS_MEM_CAP) bounds the grouped-
  // aggregate arena: crossing it aborts the execution cleanly with
  // kResourceExhausted — no rows delivered, no crash.
  const std::string text = "MATCH (a)-[r:E]->(b) RETURN a, COUNT(*)";
  EngineConfig config;
  config.mem_cap_bytes = 256;
  Build(config);
  RowCollector rc;
  QueryOutcome out = Session(db_.get()).Execute(text, &rc);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status, QueryOutcome::Status::kResourceExhausted);
  EXPECT_STREQ(ToString(out.status), "RESOURCE_EXHAUSTED");
  EXPECT_NE(out.error.find("APLUS_MEM_CAP"), std::string::npos) << out.error;
  EXPECT_EQ(out.rows, 0u);
  EXPECT_TRUE(rc.rows.empty());
  // Uncapped, the same text runs to completion.
  Build(EngineConfig());
  RowCollector rc2;
  QueryOutcome ok = Session(db_.get()).Execute(text, &rc2);
  ASSERT_TRUE(ok.ok()) << ok.error;
  EXPECT_GT(ok.rows, 0u);
  EXPECT_EQ(ok.rows, rc2.rows.size());
  // A generous cap never triggers, serial or parallel.
  config.mem_cap_bytes = 104857600;
  Build(config);
  Session generous(db_.get());
  for (int threads : {1, 4}) {
    RowCollector rc3;
    PreparedQuery* prepared = generous.Prepare(text);
    ASSERT_TRUE(prepared->ok()) << prepared->error();
    QueryOutcome big = prepared->Execute(&rc3, threads);
    ASSERT_TRUE(big.ok()) << big.error;
    EXPECT_EQ(rc3.rows.size(), rc2.rows.size()) << "threads=" << threads;
  }
}

// A charge refused while the Finish cascade sorts the groups is a typed
// error too, never an ok outcome with rows missing: at every cap of a
// sweep the query fails or delivers every row, and some caps fail there.
TEST_F(ServingApiTest, MemoryCapDuringEmissionIsAnError) {
  Session session(db_.get());
  PreparedQuery* q = session.Prepare("MATCH (a)-[r:E]->(b) RETURN a, COUNT(*) ORDER BY COUNT(*)");
  ASSERT_TRUE(q->ok()) << q->error();
  for (int threads : {1, 4}) {
    q->set_mem_cap_bytes(0);
    RowCollector full;
    ASSERT_TRUE(q->Execute(&full, threads).ok());
    bool refused_emitting = false;
    for (int64_t cap = 256; cap < (int64_t{1} << 22); cap += cap / 20 + 1) {
      q->set_mem_cap_bytes(cap);
      RowCollector rc;
      QueryOutcome out = q->Execute(&rc, threads);
      if (out.ok()) {
        EXPECT_EQ(rc.rows.size(), full.rows.size()) << "cap=" << cap;
      } else {
        EXPECT_EQ(out.status, QueryOutcome::Status::kResourceExhausted) << out.error;
      }
      refused_emitting |= out.error.find("during result emission") != std::string::npos;
    }
    EXPECT_TRUE(refused_emitting) << "threads=" << threads;
  }
}

TEST_F(ServingApiTest, GroupedAggregateOrderByLimitEndToEnd) {
  // Per-source rollup with a deterministic top-k: group by a, order by
  // COUNT(*) DESC (ties break on the remaining column, a, ascending).
  const char* text =
      "MATCH (a)-[r:E]->(b) RETURN a, COUNT(*), SUM(r.amt) ORDER BY COUNT(*) DESC, a LIMIT 10";
  EXPECT_EQ(ExpectMatchesOracle(db_.get(), text).size(), 10u);
  // The plan text explains the whole sink chain.
  const std::string plan = db_->Explain(text);
  EXPECT_NE(plan.find("GROUP AGGREGATE"), std::string::npos) << plan;
  EXPECT_NE(plan.find("ORDER BY"), std::string::npos) << plan;
  EXPECT_NE(plan.find("LIMIT 10"), std::string::npos) << plan;
}

TEST_F(ServingApiTest, ParamRangeBoundFoldsIntoSortedIndex) {
  // The MagicRecs pattern: a VP index sorted on the range property lets
  // a $param window fold into the descriptor's BoundedRange at Bind time
  // (sorted-prefix binary search) instead of staying a residual filter.
  // Some amt cells are nulled to pin down the null-tail semantics: null
  // sort keys order last, and a range predicate must reject them in
  // BOTH directions — a lower-bound-only fold (`amt > $min`) must stop
  // before the null tail, exactly like the residual filter it replaces.
  {
    PropertyColumn* amt = db_->graph().edge_props().mutable_column(amt_key_);
    for (edge_id_t e = 0; e < db_->graph().num_edges(); e += 4) amt->SetNull(e);
  }
  IndexConfig amt_sorted = IndexConfig::Default();
  amt_sorted.sorts.clear();
  amt_sorted.sorts.push_back({SortSource::kEdgeProp, amt_key_});
  Predicate all;
  db_->CreateVpIndex("AmtSorted", all, amt_sorted, Direction::kFwd);
  Session session(db_.get());
  for (const char* text :
       {"MATCH (a)-[r:E]->(b) WHERE a.ID = $src AND r.amt < $x RETURN COUNT(*)",
        "MATCH (a)-[r:E]->(b) WHERE a.ID = $src AND r.amt > $x RETURN COUNT(*)"}) {
    PreparedQuery* prepared = session.Prepare(text);
    ASSERT_TRUE(prepared->ok()) << prepared->error();
    // Folded: the window is a descriptor bound, not a residual filter.
    EXPECT_EQ(prepared->plan_text().find("FILTER"), std::string::npos)
        << prepared->plan_text();
    for (vertex_id_t src : {0u, 5u, 42u, 300u}) {
      for (int64_t x : {0, 50, 500, 2000}) {
        CheckedCount(text, {{"src", Value::Int64(src)}, {"x", Value::Int64(x)}}, prepared);
      }
    }
  }
}

TEST_F(ServingApiTest, ProjectedPropertyTypesRoundTrip) {
  // String + category + id projections against direct property reads.
  Session session(db_.get());
  PreparedQuery* prepared = session.Prepare(
      "MATCH (a)-[r:E]->(b) WHERE a.ID = $src RETURN a.ID, b.tag, r.cur, r.amt");
  ASSERT_TRUE(prepared->ok()) << prepared->error();
  ASSERT_TRUE(prepared->Bind("src", Value::Int64(5)));
  RowCollector rc;
  QueryOutcome out = prepared->Execute(&rc);
  ASSERT_TRUE(out.ok()) << out.error;
  ASSERT_GT(rc.rows.size(), 0u);
  for (const auto& row : rc.rows) {
    EXPECT_EQ(row[0].AsInt64(), 5);
    // b.tag is some vertex's tag string; every tag has the tag_ prefix.
    EXPECT_EQ(row[1].AsString().substr(0, 4), "tag_");
    EXPECT_GE(row[2].AsInt64(), 0);
    EXPECT_LT(row[2].AsInt64(), 3);
  }
}

TEST_F(ServingApiTest, CategoryParamBindsByNameAndCode) {
  const std::string text = "MATCH (a)-[r:E]->(b) WHERE r.cur = $c RETURN COUNT(*)";
  Session session(db_.get());
  PreparedQuery* prepared = session.Prepare(text);
  ASSERT_TRUE(prepared->ok()) << prepared->error();
  const int64_t by_name = CheckedCount(text, {{"c", Value::String("EUR")}}, prepared);
  const int64_t by_code = CheckedCount(text, {{"c", Value::Int64(1)}}, prepared);  // EUR's code
  EXPECT_EQ(by_name, by_code);
  EXPECT_GT(by_name, 0);
  // Unknown category names and out-of-domain codes are bind errors.
  EXPECT_FALSE(prepared->Bind("c", Value::String("JPY")));
  EXPECT_FALSE(prepared->Bind("c", Value::Int64(99)));
}

TEST_F(ServingApiTest, BindAndExecuteErrorPaths) {
  Session session(db_.get());
  PreparedQuery* prepared = session.Prepare(kTwoHopText);
  ASSERT_TRUE(prepared->ok()) << prepared->error();
  // Unbound parameter at execute time.
  QueryOutcome unbound = prepared->Execute();
  EXPECT_EQ(unbound.status, QueryOutcome::Status::kBindError);
  EXPECT_NE(unbound.error.find("$src"), std::string::npos) << unbound.error;
  EXPECT_EQ(unbound.count, 0u);
  // Type-mismatched bind: $src compares against .ID (int64).
  EXPECT_FALSE(prepared->Bind("src", Value::String("zero")));
  EXPECT_NE(prepared->bind_error().find("type mismatch"), std::string::npos)
      << prepared->bind_error();
  // Unknown parameter name.
  EXPECT_FALSE(prepared->Bind("nope", Value::Int64(1)));
  // A failed bind leaves the query unexecutable until a good bind lands.
  EXPECT_EQ(prepared->Execute().status, QueryOutcome::Status::kBindError);
  ASSERT_TRUE(prepared->Bind("src", Value::Int64(3)));
  EXPECT_TRUE(prepared->Execute().ok());
  // Parse errors report kParseError through the one-shot path, with the
  // message in `error` — never smuggled into the plan text.
  QueryOutcome bad = session.Execute("MATCH garbage");
  EXPECT_EQ(bad.status, QueryOutcome::Status::kParseError);
  EXPECT_FALSE(bad.error.empty());
  EXPECT_TRUE(session.Prepare("MATCH garbage")->plan_text().empty());
}

// (v0)-[:E]->(v1)-[:E]-> ... ->(v<n-1>) with v0 pinned to vertex 3.
std::string AnchoredPathText(int vertices) {
  std::string text = "MATCH (v0)";
  for (int i = 1; i < vertices; ++i) text += "-[:E]->(v" + std::to_string(i) + ")";
  return text + " WHERE v0.ID = 3 RETURN COUNT(*)";
}

TEST_F(ServingApiTest, OversizedPatternIsATypedPlanError) {
  // 21 query vertices exceed the subset DP's limit of 20: every planning
  // entry point reports kPlanError naming the limit instead of aborting.
  const std::string text = AnchoredPathText(21);
  std::unique_ptr<PreparedQuery> prepared = db_->Prepare(text);
  EXPECT_EQ(prepared->status(), QueryOutcome::Status::kPlanError);
  EXPECT_NE(prepared->error().find("21 query vertices"), std::string::npos) << prepared->error();
  EXPECT_NE(prepared->error().find("1 to 20"), std::string::npos) << prepared->error();
  EXPECT_EQ(prepared->Execute().status, QueryOutcome::Status::kPlanError);
  Session session(db_.get());
  EXPECT_EQ(session.Execute(text).status, QueryOutcome::Status::kPlanError);
  EXPECT_NE(db_->Explain(text).find("1 to 20"), std::string::npos) << db_->Explain(text);

  const QueryGraph path = OracleParse(db_->graph(), text).query;
  QueryOutcome out = db_->Execute(path, TestThreads());
  EXPECT_EQ(out.status, QueryOutcome::Status::kPlanError);
  EXPECT_NE(out.error.find("1 to 20"), std::string::npos) << out.error;
  EXPECT_EQ(db_->Explain(path).rfind("(error: ", 0), 0u) << db_->Explain(path);

  // 20 vertices fit: the anchored path plans (one scan, 19 extends).
  std::unique_ptr<PreparedQuery> fits = db_->Prepare(AnchoredPathText(20));
  ASSERT_TRUE(fits->ok()) << fits->error();
  EXPECT_NE(fits->plan_text().find("SCAN v0 (ID=3)"), std::string::npos) << fits->plan_text();
}

TEST_F(ServingApiTest, DdlInvalidatesPreparedQueriesAndCacheReprepares) {
  Session session(db_.get());
  PreparedQuery* prepared = session.Prepare(kTwoHopText);
  ASSERT_TRUE(prepared->ok()) << prepared->error();
  ASSERT_TRUE(prepared->Bind("src", Value::Int64(7)));
  uint64_t before = prepared->Execute().count;
  // A RECONFIGURE-equivalent rebuild bumps the store version: the held
  // pointer goes stale instead of reading freed index memory.
  db_->BuildPrimaryIndexes();
  EXPECT_FALSE(prepared->current());
  QueryOutcome stale = prepared->Execute();
  EXPECT_EQ(stale.status, QueryOutcome::Status::kInvalidated);
  // The session cache re-prepares transparently on the next Prepare
  // (the allocator may reuse the stale object's address, so assert on
  // behaviour and the miss counter, not pointer identity).
  PreparedQuery* fresh = session.Prepare(kTwoHopText);
  ASSERT_TRUE(fresh->ok()) << fresh->error();
  EXPECT_TRUE(fresh->current());
  ASSERT_TRUE(fresh->Bind("src", Value::Int64(7)));
  EXPECT_EQ(fresh->Execute().count, before);
  EXPECT_EQ(session.cache_misses(), 2u);
}

TEST_F(ServingApiTest, PreparedReexecutionSkipsPlanning) {
  // The acceptance bar "re-binding without re-planning" — structurally:
  // the session serves the same PreparedQuery object across requests and
  // only ever misses once for the text.
  Session session(db_.get());
  PreparedQuery* prepared = session.Prepare(kTwoHopText);
  ASSERT_TRUE(prepared->ok()) << prepared->error();
  for (int i = 0; i < 20; ++i) {
    PreparedQuery* p = session.Prepare(kTwoHopText);
    ASSERT_EQ(p, prepared);
    ASSERT_TRUE(p->Bind("src", Value::Int64(i)));
    ASSERT_TRUE(p->Execute().ok());
  }
  EXPECT_EQ(session.cache_misses(), 1u);
  EXPECT_EQ(session.cache_hits(), 20u);
}

TEST_F(ServingApiTest, ParamPredicateNeverSubsumedByFilteredIndex) {
  // A $param conjunct has no constant at prepare time, so the optimizer
  // must not let it certify subsumption by a predicate-filtered
  // secondary index (that would silently drop rows once the bind is
  // looser than the view). Regression: with a VP index over amt > 500
  // present, `r.amt > $min` bound to 10 must still count every match.
  Predicate large;
  large.AddConst(PropRef{PropSite::kAdjEdge, amt_key_, false, false}, CmpOp::kGt,
                 Value::Int64(500));
  db_->CreateVpIndex("LargeAmt", large, IndexConfig::Default(), Direction::kFwd);
  for (int64_t min : {10, 400, 700}) {
    CheckedCount("MATCH (a)-[r:E]->(b) WHERE r.amt > $min RETURN COUNT(*)",
                 {{"min", Value::Int64(min)}});
  }
}

TEST_F(ServingApiTest, NormalizationPreservesStringLiterals) {
  // Whitespace collapses outside quotes only: queries differing inside a
  // 'string' literal must never share a plan-cache key.
  EXPECT_EQ(NormalizeQueryText("MATCH  (a)\n WHERE a.x = 'b  c'"),
            "MATCH (a) WHERE a.x = 'b  c'");
  EXPECT_NE(NormalizeQueryText("WHERE n = 'Alice  Smith'"),
            NormalizeQueryText("WHERE n = 'Alice Smith'"));
  EXPECT_EQ(NormalizeQueryText("MATCH   (a)-[r:E]->(b)"),
            NormalizeQueryText(" MATCH (a)-[r:E]->(b) "));
}

TEST_F(ServingApiTest, PinBindRejectsOutOfRangeVertexIds) {
  Session session(db_.get());
  PreparedQuery* prepared = session.Prepare(kTwoHopText);
  ASSERT_TRUE(prepared->ok()) << prepared->error();
  EXPECT_FALSE(prepared->Bind("src", Value::Int64(-1)));
  EXPECT_FALSE(prepared->Bind(
      "src", Value::Int64(static_cast<int64_t>(db_->graph().num_vertices()))));
  EXPECT_FALSE(prepared->Bind("src", Value::Int64(1000000000)));
  EXPECT_NE(prepared->bind_error().find("out of range"), std::string::npos)
      << prepared->bind_error();
  ASSERT_TRUE(prepared->Bind(
      "src", Value::Int64(static_cast<int64_t>(db_->graph().num_vertices()) - 1)));
}

TEST_F(ServingApiTest, PreparedExecuteFlushesPendingDeletes) {
  // Edge deletion buffers index-page updates without bumping the store
  // version or the edge count, so `current()` stays true — the prepared
  // path must flush before running, exactly like the one-shot path.
  Session session(db_.get());
  PreparedQuery* prepared = session.Prepare("MATCH (a)-[r:E]->(b) RETURN COUNT(*)");
  ASSERT_TRUE(prepared->ok()) << prepared->error();
  uint64_t before = prepared->Execute().count;
  db_->maintainer().OnEdgeDeleted(0);
  ASSERT_TRUE(prepared->current());  // deletion alone does not invalidate
  QueryOutcome after = prepared->Execute();
  ASSERT_TRUE(after.ok()) << after.error;
  EXPECT_EQ(after.count, before - 1);
  const QueryGraph one_hop = OracleParse(db_->graph(), "MATCH (a)-[r:E]->(b)").query;
  EXPECT_EQ(db_->Execute(one_hop, TestThreads()).count, after.count);
}

TEST_F(ServingApiTest, RepeatedIdConstraintsIntersectInsteadOfOverwriting) {
  // A vertex carries at most one pin; further ID equalities must behave
  // as conjuncts (empty intersection when contradictory), not silently
  // replace the pin.
  EXPECT_EQ(CheckedCount("MATCH (a)-[r:E]->(b) WHERE a.ID = 3 AND a.ID = 4 RETURN COUNT(*)"), 0);
  const std::string text = "MATCH (a)-[r:E]->(b) WHERE a.ID = 3 AND a.ID = $p RETURN COUNT(*)";
  std::unique_ptr<PreparedQuery> prepared = db_->Prepare(text);
  EXPECT_EQ(CheckedCount(text, {{"p", Value::Int64(4)}}, prepared.get()), 0);  // 3 ∩ 4 = ∅
  EXPECT_GT(CheckedCount(text, {{"p", Value::Int64(3)}}, prepared.get()), 0);  // agreeing conjuncts
}

TEST_F(ServingApiTest, SessionCacheIsBounded) {
  Session session(db_.get());
  for (size_t i = 0; i < Session::kMaxCachedQueries + 40; ++i) {
    std::string text = "MATCH (a)-[r:E]->(b) WHERE a.ID = " + std::to_string(i % 500) +
                       " RETURN COUNT(*)";
    PreparedQuery* p = session.Prepare(text);
    ASSERT_TRUE(p->ok()) << p->error();
  }
  EXPECT_LE(session.cache_size(), Session::kMaxCachedQueries);
  EXPECT_GT(session.cache_size(), 0u);
}

// Sessions lease from the database's one plan cache: a second Session
// preparing the same text clones the shared plan instead of optimizing.
TEST_F(ServingApiTest, SessionsSharePlansThroughTheDatabaseCache) {
  Session first(db_.get());
  PreparedQuery* a = first.Prepare(kTwoHopText);
  ASSERT_TRUE(a->ok()) << a->error();
  Session second(db_.get());
  PreparedQuery* b = second.Prepare(kTwoHopText);
  ASSERT_TRUE(b->ok()) << b->error();
  EXPECT_NE(a, b);  // each session owns its instance
  EXPECT_EQ(first.cache_misses(), 1u);
  EXPECT_EQ(second.cache_misses(), 0u);
  EXPECT_EQ(second.cache_hits(), 1u);
  EXPECT_EQ(db_->plan_cache().misses(), 1u);
  EXPECT_EQ(db_->plan_cache().hits(), 1u);
  ASSERT_TRUE(a->Bind("src", Value::Int64(7)));
  ASSERT_TRUE(b->Bind("src", Value::Int64(7)));
  EXPECT_EQ(a->Execute().count, b->Execute().count);
}

// A pooled instance goes back in the master's state: the next owner
// sees no Cancel(), deadline, memory cap or bindings left by the last.
TEST_F(ServingApiTest, ReturnedInstanceCarriesNoPreviousOwnerState) {
  const std::string literal = "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = 7 RETURN b, c";
  {
    Session session(db_.get());
    PreparedQuery* q = session.Prepare(literal);
    ASSERT_TRUE(q->ok()) << q->error();
    q->Cancel();  // idle: would stop the next Execute
    q->set_deadline_millis(1);
    q->set_mem_cap_bytes(1);
    PreparedQuery* p = session.Prepare(kTwoHopText);
    ASSERT_TRUE(p->ok()) << p->error();
    ASSERT_TRUE(p->Bind("src", Value::Int64(7)));
  }
  Session fresh(db_.get());
  PreparedQuery* q = fresh.Prepare(literal);
  ASSERT_TRUE(q->ok()) << q->error();
  EXPECT_EQ(q->deadline_millis(), -1);
  QueryOutcome out = q->Execute();
  EXPECT_EQ(out.status, QueryOutcome::Status::kOk) << out.error;
  EXPECT_EQ(out.count, db_->Prepare(literal)->Execute().count);
  PreparedQuery* p = fresh.Prepare(kTwoHopText);
  ASSERT_TRUE(p->ok()) << p->error();
  EXPECT_EQ(p->Execute().status, QueryOutcome::Status::kBindError);  // unbound
  EXPECT_EQ(fresh.cache_hits(), 2u);  // both were the pooled instances
  EXPECT_EQ(db_->plan_cache().misses(), 2u);
}

}  // namespace
}  // namespace aplus
