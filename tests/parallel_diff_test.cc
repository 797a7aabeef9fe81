// Differential tests for morsel-driven parallel plan execution:
// Execute(k) for k in {2, 4, 8} must return exactly the serial match
// count for scan / extend / extend-intersect / multi-extend plans, with
// and without residual conjuncts, over random power-law multi-edge
// graphs (the same generator setup as intersect_diff_test.cc), including
// on repeated executions of the same plan (worker pipelines and
// MatchStates are reused). The counting-mode cases at the end check
// counting EXTENDs against the oracle (tests/oracle.h).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <tuple>
#include <vector>

#include "core/database.h"
#include "datagen/label_assigner.h"
#include "datagen/power_law_generator.h"
#include "index/index_store.h"
#include "oracle.h"
#include "query/intersect_kernels.h"
#include "query/plan.h"
#include "test_threads.h"
#include "util/rng.h"

namespace aplus {
namespace {

class ParallelDiffTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  ParallelDiffTest() {
    GenerateLabelled(&graph_);
    grp_key_ = graph_.AddVertexProperty("grp", ValueType::kInt64);
    PropertyColumn* col = graph_.vertex_props().mutable_column(grp_key_);
    Rng rng(GetParam() + 7);
    for (vertex_id_t v = 0; v < graph_.num_vertices(); ++v) {
      col->SetInt64(v, static_cast<int64_t>(rng.NextBounded(5)));
    }
    el0_ = graph_.catalog().FindEdgeLabel("EL0");
    el1_ = graph_.catalog().FindEdgeLabel("EL1");
    store_ = std::make_unique<IndexStore>(&graph_);
    store_->BuildPrimary(IndexConfig::Default());
    IndexConfig grp_config = IndexConfig::Default();
    grp_config.sorts.clear();
    grp_config.sorts.push_back({SortSource::kNbrProp, grp_key_});
    OneHopViewDef all_grp;
    all_grp.name = "all_grp";
    vp_grp_ = store_->CreateVpIndex(all_grp, grp_config, Direction::kFwd);
  }

  // The suite's graph for this seed: power-law with two vertex and two
  // edge labels.
  void GenerateLabelled(Graph* graph) {
    PowerLawParams params;
    params.num_vertices = 900;
    params.avg_degree = 6.0;
    params.preferential_fraction = 0.8;  // hubs attract parallel edges
    params.seed = GetParam();
    GeneratePowerLawGraph(params, graph);
    AssignRandomLabels(2, 2, GetParam() + 100, graph);
  }

  ListDescriptor FwdList(int bound_var, label_t elabel, int target_v, int target_e) {
    ListDescriptor desc;
    desc.source = ListDescriptor::Source::kPrimary;
    desc.primary = store_->primary(Direction::kFwd);
    desc.bound_var = bound_var;
    desc.cats = {elabel};
    desc.target_vertex_var = target_v;
    desc.target_edge_var = target_e;
    desc.nbr_sorted = true;
    return desc;
  }

  // The bound pattern of `text` (tests/oracle.h), for a hand-built plan.
  QueryGraph Pattern(const std::string& text) const { return OracleParse(graph_, text).query; }

  static std::string PinnedTwoHop(vertex_id_t src) {
    return "MATCH (a)-[e0:EL0]->(b)-[e1:EL1]->(c) WHERE a.ID = " + std::to_string(src);
  }

  // Scan a -> Extend b -> Extend c over PinnedTwoHop's pattern, on
  // `primary` (the suite's own store's by default).
  std::unique_ptr<Plan> TwoHopPlan(const QueryGraph& query, const Graph* graph = nullptr,
                                   const PrimaryIndex* primary = nullptr) {
    ListDescriptor first = FwdList(0, el0_, 1, 0);
    ListDescriptor second = FwdList(1, el1_, 2, 1);
    if (primary != nullptr) first.primary = second.primary = primary;
    PlanBuilder builder(graph != nullptr ? graph : &graph_, &query);
    return builder.Scan(0).Extend(first).Extend(second).Build();
  }

  // The oracle's count of `text`, then the serial count once, then every
  // parallel width twice (the second execution proves the reused worker
  // pipelines stay correct).
  void ExpectParallelMatchesSerial(Plan* plan, const std::string& text) {
    const char* what = text.c_str();
    uint64_t serial = RunCount(*plan, 1);
    EXPECT_EQ(serial, Oracle(graph_, text).count) << what << ": oracle";
    for (int k : {2, 4, 8}) {
      EXPECT_EQ(RunCount(*plan, k), serial) << what << " k=" << k;
      EXPECT_EQ(RunCount(*plan, k), serial) << what << " k=" << k << " (re-executed)";
    }
    // Serial after parallel: the morsel cursor must not leak into the
    // serial path.
    EXPECT_EQ(RunCount(*plan, 1), serial) << what << " serial re-check";
    EXPECT_GT(serial, 0u) << what << ": differential never matched anything";
  }

  Graph graph_;
  label_t el0_ = kInvalidLabel;
  label_t el1_ = kInvalidLabel;
  prop_key_t grp_key_ = kInvalidPropKey;
  std::unique_ptr<IndexStore> store_;
  VpIndex* vp_grp_ = nullptr;
};

constexpr const char* kTriangle = "MATCH (a)-[e0:EL0]->(b), (a)-[e1:EL0]->(c), (b)-[e2:EL1]->(c)";
constexpr const char* kTwoCycle = "MATCH (a)-[e0:EL0]->(b)-[e1:EL1]->(a)";

// Scan -> Extend -> Extend/Intersect (unbound triangle).
TEST_P(ParallelDiffTest, TrianglePlan) {
  const QueryGraph query = Pattern(kTriangle);
  PlanBuilder builder(&graph_, &query);
  std::vector<ListDescriptor> lists = {FwdList(0, el0_, 2, 1), FwdList(1, el1_, 2, 2)};
  auto plan = builder.Scan(0).Extend(FwdList(0, el0_, 1, 0)).ExtendIntersect(lists, 2).Build();
  ExpectParallelMatchesSerial(plan.get(), kTriangle);
}

// Scan with predicates -> Extend with a residual conjunct.
TEST_P(ParallelDiffTest, ScanPredicateAndResidualPlan) {
  const std::string text = "MATCH (a)-[e0:EL0]->(b) WHERE a.ID < " +
                           std::to_string(graph_.num_vertices() / 2) + ", b.grp <= 2";
  const QueryGraph query = Pattern(text);
  const QueryComparison& scan_pred = query.predicates()[0];
  const QueryComparison& residual = query.predicates()[1];
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(0, {scan_pred}).Extend(FwdList(0, el0_, 1, 0), {residual}).Build();
  ExpectParallelMatchesSerial(plan.get(), text);
}

// Scan -> Extend -> closing Extend (2-cycle membership probe).
TEST_P(ParallelDiffTest, ClosingExtendPlan) {
  const QueryGraph query = Pattern(kTwoCycle);
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(0)
                  .Extend(FwdList(0, el0_, 1, 0))
                  .Extend(FwdList(1, el1_, 0, 1), {}, /*closing=*/true)
                  .Build();
  ExpectParallelMatchesSerial(plan.get(), kTwoCycle);
}

// Scan -> Multi-Extend over property-sorted offset lists.
TEST_P(ParallelDiffTest, MultiExtendPlan) {
  // The grp-sorted lists join on equal grp.
  const std::string text = "MATCH (a)-[e0:EL0]->(b), (a)-[e1:EL1]->(d) WHERE b.grp = d.grp";
  const QueryGraph query = Pattern(text);
  ListDescriptor l1;
  l1.source = ListDescriptor::Source::kVp;
  l1.vp = vp_grp_;
  l1.bound_var = 0;
  l1.cats = {el0_};
  l1.target_vertex_var = 1;
  l1.target_edge_var = 0;
  ListDescriptor l2 = l1;
  l2.cats = {el1_};
  l2.target_vertex_var = 2;
  l2.target_edge_var = 1;
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(0).MultiExtend({l1, l2}).Build();
  ExpectParallelMatchesSerial(plan.get(), text);
}

// A bound leading scan (single-vertex domain): only one worker gets a
// morsel, the rest must drain empty and still merge correctly.
TEST_P(ParallelDiffTest, BoundScanPlan) {
  const QueryGraph query = Pattern(PinnedTwoHop(static_cast<vertex_id_t>(GetParam())));
  std::unique_ptr<Plan> plan = TwoHopPlan(query);
  uint64_t serial = RunCount(*plan, 1);
  for (int k : {2, 4, 8}) {
    EXPECT_EQ(RunCount(*plan, k), serial) << "bound-scan k=" << k;
  }
}

// Per-worker projecting sinks: their batches, delivered concurrently by
// the workers and then flushed by the caller, hold every match exactly
// once regardless of the worker count.
TEST_P(ParallelDiffTest, RowsDeliveredOncePerMatch) {
  const QueryGraph query = Pattern("MATCH (a)-[e0:EL0]->(b)");
  ExecControls controls;
  RowCounter seen;
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(0)
                  .Extend(FwdList(0, el0_, 1, 0))
                  .BuildWithSink(VertexIdSink(graph_, {1}, &seen, &controls));
  uint64_t serial = RunDelivering(*plan, 1);
  EXPECT_EQ(seen.rows.load(), serial);
  for (int k : {2, 4, 8}) {
    seen.rows.store(0);
    EXPECT_EQ(RunDelivering(*plan, k), serial) << "rows k=" << k;
    EXPECT_EQ(seen.rows.load(), serial) << "rows k=" << k;
  }
}

// An OnBatch that itself executes a parallel sub-plan (the nested
// ParallelRun case): must not deadlock, and both levels must count
// exactly. Each call builds its own sub-plan — Plans are not externally
// thread-safe, the outer workers deliver their batches concurrently, and
// holding a shared lock across a nested Execute would invert lock order
// against the pool's job mutex.
TEST_P(ParallelDiffTest, NestedParallelExecuteInOnBatch) {
  const QueryGraph outer_query = Pattern("MATCH (a)-[e0:EL0]->(b)");
  const QueryGraph inner_query = Pattern("MATCH (x)-[e0:EL1]->(y)");
  auto build_inner = [&] {
    PlanBuilder builder(&graph_, &inner_query);
    return builder.Scan(0).Extend(FwdList(0, el1_, 1, 0)).Build();
  };
  uint64_t inner_expected = RunCount(*build_inner(), 1);

  // Every eighth batch of 64 rows runs the sub-plan.
  std::atomic<uint64_t> nested_failures{0};
  std::atomic<uint64_t> outer_seen{0};
  std::atomic<uint64_t> batches{0};
  BatchHook nesting([&](const RowBatch& batch) {
    outer_seen.fetch_add(batch.num_rows(), std::memory_order_relaxed);
    if (batches.fetch_add(1, std::memory_order_relaxed) % 8 != 0) return;
    if (RunCount(*build_inner(), 2) != inner_expected) {
      nested_failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  ExecControls controls;
  PlanBuilder outer_builder(&graph_, &outer_query);
  auto outer_plan = outer_builder.Scan(0)
                        .Extend(FwdList(0, el0_, 1, 0))
                        .BuildWithSink(VertexIdSink(graph_, {1}, &nesting, &controls));

  uint64_t outer_expected = RunDelivering(*outer_plan, 1);
  outer_seen.store(0);
  batches.store(0);
  EXPECT_EQ(RunDelivering(*outer_plan, 4), outer_expected);
  EXPECT_EQ(outer_seen.load(), outer_expected);
  // The flush delivers at most one batch per pipeline, so the first
  // batch (which nests) came from inside the parallel run.
  EXPECT_GT(batches.load(), static_cast<uint64_t>(outer_plan->num_pipelines()));
  EXPECT_EQ(nested_failures.load(), 0u);
  EXPECT_GT(outer_expected, 0u);
}

// --- Pinned-source split (one-vertex scans split one stage down) ---
//
// A scan pinned to one vertex makes Execute(k) split the first EXTEND's
// list instead of the scan: the calling thread fetches the list once and
// the workers claim morsels of its entries. The tests pit it against
// serial execution, under repeated runs, mode flips, every worker width,
// and every SIMD dispatch level.

// Deep split feeding a plain EXTEND chain: hub sources maximize the
// first extend's entry range so several morsels are actually contended.
TEST_P(ParallelDiffTest, DeepMorselTwoHopMatchesSerial) {
  // Pick the highest-out-degree vertex: the deepest entry domain.
  const PrimaryIndex* primary = store_->primary(Direction::kFwd);
  vertex_id_t hub = 0;
  uint32_t best = 0;
  for (vertex_id_t v = 0; v < graph_.num_vertices(); ++v) {
    uint32_t len = primary->GetFullList(v).len;
    if (len > best) {
      best = len;
      hub = v;
    }
  }
  ASSERT_GT(best, 0u);
  const std::string text = PinnedTwoHop(hub);
  const QueryGraph query = Pattern(text);
  ExpectParallelMatchesSerial(TwoHopPlan(query).get(), text);
}

// The pinned two-hop over a database reopened from a segment sealed
// with every page packed: the workers split one shared varint-coded hub
// list, each decoding it through its own block cache.
TEST_P(ParallelDiffTest, PinnedHubTwoHopOverPackedSegmentMatchesSerial) {
  Graph graph;
  GenerateLabelled(&graph);
  ShapedDatabase db;
  db.Open(std::move(graph), DbShape::kSealedPacked);
  ASSERT_FALSE(HasFatalFailure());
  const PrimaryIndex* primary = db->index_store().primary(Direction::kFwd);
  vertex_id_t hub = 0;
  for (vertex_id_t v = 0; v < db->graph().num_vertices(); ++v) {
    if (primary->GetFullList(v).len > primary->GetFullList(hub).len) hub = v;
  }
  ASSERT_TRUE(primary->GetFullList(hub).is_packed());
  const std::string text = PinnedTwoHop(hub);
  const QueryGraph query = OracleParse(db->graph(), text).query;
  ExpectParallelMatchesSerial(TwoHopPlan(query, &db->graph(), primary).get(), text);
}

// Deep split feeding EXTEND/INTERSECT: the pinned triangle.
TEST_P(ParallelDiffTest, DeepMorselTriangleMatchesSerial) {
  for (uint64_t salt = 0; salt < 8; ++salt) {
    vertex_id_t src = static_cast<vertex_id_t>((GetParam() * 131 + salt * 37) %
                                               graph_.num_vertices());
    const QueryGraph query =
        Pattern(std::string(kTriangle) + " WHERE a.ID = " + std::to_string(src));
    PlanBuilder builder(&graph_, &query);
    std::vector<ListDescriptor> lists = {FwdList(0, el0_, 2, 1), FwdList(1, el1_, 2, 2)};
    auto plan =
        builder.Scan(0).Extend(FwdList(0, el0_, 1, 0)).ExtendIntersect(lists, 2).Build();
    uint64_t serial = RunCount(*plan, 1);
    for (int k : {2, 4, 8}) {
      EXPECT_EQ(RunCount(*plan, k), serial) << "deep triangle src=" << src << " k=" << k;
    }
  }
}

// The mode must flip cleanly between executions of one plan: serial,
// deep-parallel, and back, repeatedly — replicas persist across calls.
TEST_P(ParallelDiffTest, DeepMorselModeFlipsAcrossExecutions) {
  const QueryGraph query =
      Pattern(PinnedTwoHop(static_cast<vertex_id_t>(GetParam() % graph_.num_vertices())));
  std::unique_ptr<Plan> plan = TwoHopPlan(query);
  uint64_t serial = RunCount(*plan, 1);
  for (int round = 0; round < 3; ++round) {
    for (int k : {8, 1, 2, 4, 1}) {
      EXPECT_EQ(RunCount(*plan, k), serial) << "round=" << round << " k=" << k;
    }
  }
}

// A closing EXTEND below the scan cannot split its list (its probes are
// membership checks, not enumerations): the plan must fall back to scan
// morsels and stay exact even though only one worker gets the morsel.
TEST_P(ParallelDiffTest, ClosingExtendNeverDeepMorselizes) {
  const QueryGraph query = Pattern(std::string(kTwoCycle) + " WHERE a.ID = " +
                                   std::to_string(GetParam() % graph_.num_vertices()));
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(0)
                  .Extend(FwdList(0, el0_, 1, 0))
                  .Extend(FwdList(1, el1_, 0, 1), {}, /*closing=*/true)
                  .Build();
  uint64_t serial = RunCount(*plan, 1);
  for (int k : {2, 4, 8}) {
    EXPECT_EQ(RunCount(*plan, k), serial) << "closing deep k=" << k;
  }
}

// Deep-parallel workers still deliver each match exactly once.
TEST_P(ParallelDiffTest, DeepMorselRowsDeliveredOncePerMatch) {
  const QueryGraph query =
      Pattern(PinnedTwoHop(static_cast<vertex_id_t>((GetParam() * 7) % graph_.num_vertices())));
  ExecControls controls;
  RowCounter seen;
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(0)
                  .Extend(FwdList(0, el0_, 1, 0))
                  .Extend(FwdList(1, el1_, 2, 1))
                  .BuildWithSink(VertexIdSink(graph_, {2}, &seen, &controls));
  uint64_t serial = RunDelivering(*plan, 1);
  EXPECT_EQ(seen.rows.load(), serial);
  for (int k : {2, 4, 8}) {
    seen.rows.store(0);
    EXPECT_EQ(RunDelivering(*plan, k), serial) << "deep rows k=" << k;
    EXPECT_EQ(seen.rows.load(), serial) << "deep rows k=" << k;
  }
}

// The parallel differential repeated at every supported SIMD dispatch
// level: kernel selection and morsel scheduling must compose.
TEST_P(ParallelDiffTest, AllKernelLevelsMatchSerial) {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::HostMaxLevel() >= simd::Level::kSse) levels.push_back(simd::Level::kSse);
  if (simd::HostMaxLevel() >= simd::Level::kAvx2) levels.push_back(simd::Level::kAvx2);
  const QueryGraph query = Pattern(kTriangle);
  PlanBuilder builder(&graph_, &query);
  std::vector<ListDescriptor> lists = {FwdList(0, el0_, 2, 1), FwdList(1, el1_, 2, 2)};
  auto plan =
      builder.Scan(0).Extend(FwdList(0, el0_, 1, 0)).ExtendIntersect(lists, 2).Build();
  simd::Level prev = simd::ActiveLevel();
  uint64_t expected = 0;
  for (size_t i = 0; i < levels.size(); ++i) {
    simd::SetLevel(levels[i]);
    uint64_t serial = RunCount(*plan, 1);
    if (i == 0) {
      expected = serial;
    } else {
      EXPECT_EQ(serial, expected) << "level=" << ToString(levels[i]);
    }
    for (int k : {2, 4, 8}) {
      EXPECT_EQ(RunCount(*plan, k), expected) << "level=" << ToString(levels[i]) << " k=" << k;
    }
  }
  simd::SetLevel(prev);
  EXPECT_GT(expected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDiffTest, ::testing::Values(11u, 29u, 47u));

// --- Counting mode: the last EXTEND counts its list ---
//
// Chains of one to three hops, each one Cypher text counted through
// Database::Prepare(... RETURN COUNT(*)) against the oracle
// (tests/oracle.h) and through a hand-built Plan over the text's bound
// pattern, ending in a counting ProjectSinkOp. Both end in a counting
// EXTEND wherever the last hop filters nothing. The small graph has
// self-loops, parallel edges and 2-cycles, so the bound-vertex
// subtraction is what keeps the counts isomorphic and edge-distinct;
// the power-law graph is the suite's. A hub-pinned source makes
// Execute(4) split the first list, so a one-hop chain counts inside
// entry morsels.

enum class CountGraph { kSmall, kPowerLaw };
// The default primary (D); a primary partitioned by edge label, then
// neighbour label; D plus a VP view of the edges with w > 2.
enum class CountIndex { kD, kLabelPartitioned, kVpView };

class CountingModeDiffTest : public ::testing::TestWithParam<std::tuple<CountGraph, DbShape>> {
 protected:
  CountGraph graph_kind() const { return std::get<0>(GetParam()); }
  DbShape shape() const { return std::get<1>(GetParam()); }

  Graph MakeGraph() const {
    Graph graph;
    if (graph_kind() == CountGraph::kPowerLaw) {
      PowerLawParams params;
      params.num_vertices = 900;
      params.avg_degree = 6.0;
      params.preferential_fraction = 0.8;
      params.seed = 11;
      GeneratePowerLawGraph(params, &graph);
      AssignRandomLabels(2, 2, 111, &graph);
    } else {
      const label_t vl[2] = {graph.catalog().AddVertexLabel("VL0"),
                             graph.catalog().AddVertexLabel("VL1")};
      const label_t el0 = graph.catalog().AddEdgeLabel("EL0");
      const label_t el1 = graph.catalog().AddEdgeLabel("EL1");
      for (int v = 0; v < 8; ++v) graph.AddVertex(vl[v % 2]);
      const int edges[][3] = {
          {0, 0, 0}, {0, 1, 0}, {0, 1, 0}, {0, 1, 0}, {1, 0, 0}, {1, 2, 0}, {1, 2, 0},
          {2, 1, 0}, {2, 2, 0}, {0, 2, 0}, {2, 0, 0}, {3, 0, 0}, {0, 3, 0}, {1, 3, 0},
          {3, 3, 0}, {4, 5, 0}, {5, 4, 0}, {0, 4, 0}, {0, 5, 0}, {0, 6, 0}, {6, 0, 0},
          {7, 7, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1}, {0, 2, 1}, {2, 3, 1}, {3, 2, 1},
          {3, 1, 1}, {1, 4, 1}, {1, 4, 1}, {4, 1, 1}, {5, 0, 1}, {6, 7, 1}, {7, 6, 1}};
      for (const auto& e : edges) {
        graph.AddEdge(static_cast<vertex_id_t>(e[0]), static_cast<vertex_id_t>(e[1]),
                      e[2] == 0 ? el0 : el1);
      }
    }
    const prop_key_t w = graph.AddEdgeProperty("w", ValueType::kInt64);
    PropertyColumn* col = graph.edge_props().mutable_column(w);
    for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
      col->SetInt64(e, static_cast<int64_t>(e % 5));
    }
    return graph;
  }

  // Opens db_ over MakeGraph() with `index`, in the parameter's shape.
  void Open(CountIndex index) {
    std::vector<std::string> ddl;
    if (index == CountIndex::kLabelPartitioned) {
      ddl.push_back(
          "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, vnbr.label SORT BY vnbr.ID");
    } else if (index == CountIndex::kVpView) {
      ddl.push_back(
          "CREATE 1-HOP VIEW Heavy MATCH vs-[eadj]->vd WHERE eadj.w>2 INDEX AS FW-BW "
          "PARTITION BY eadj.label SORT BY vnbr.ID");
    }
    Graph graph = MakeGraph();
    // The delta shape's inserts: a second self-loop on 0, another
    // parallel 0->1, a 2-cycle 0<->2 and a self-loop on 5; on the
    // power-law graph also one edge per half page.
    const label_t el0 = graph.catalog().FindEdgeLabel("EL0");
    const label_t el1 = graph.catalog().FindEdgeLabel("EL1");
    std::vector<EdgeInsert> delta = {
        {0, 0, el0}, {0, 1, el0}, {2, 0, el1}, {0, 2, el1}, {5, 5, el1}};
    if (graph_kind() == CountGraph::kPowerLaw) {
      for (const EdgeInsert& edge : HalfPageInserts(graph.num_vertices(), el0)) {
        delta.push_back(edge);
      }
    }
    db_.Open(std::move(graph), shape(), ddl, delta);
    if (HasFatalFailure()) return;
    const PrimaryIndex* fwd = db_->index_store().primary(Direction::kFwd);
    hub_ = 0;
    for (vertex_id_t v = 0; v < db_->graph().num_vertices(); ++v) {
      if (fwd->GetFullList(v).len > fwd->GetFullList(hub_).len) hub_ = v;
    }
    if (shape() == DbShape::kSealedPacked) {
      ASSERT_TRUE(fwd->GetFullList(hub_).is_packed());
    }
  }

  // Counts `chain` (a MATCH, possibly with a WHERE) from an unpinned or
  // hub-pinned v0, prepared and hand-built, at 1 and 4 threads, against
  // the oracle.
  void ExpectChainMatchesOracle(std::string text, CountIndex index, bool pinned) {
    OracleParams params;
    if (pinned) {
      const size_t where = text.find(" WHERE ");
      text = where == std::string::npos ? text + " WHERE v0.ID = $src"
                                        : text.insert(where + 7, "v0.ID = $src, ");
      params["src"] = Value::Int64(hub_);
    }
    text += " RETURN COUNT(*)";
    SCOPED_TRACE(text + ParamsToString(params));
    const std::vector<Row> want = ExpectMatchesOracle(db_.get(), text, params);
    ASSERT_EQ(want.size(), 1u);

    // The hand-built plan: Scan v0, then one EXTEND per hop over the
    // bound pattern, each carrying its own edge's conjuncts.
    const Graph& graph = db_->graph();
    const ParsedCypher parsed = OracleParse(graph, text, params);
    const QueryGraph& query = parsed.query;
    PlanBuilder builder(&graph, &query);
    builder.Scan(0);
    for (int i = 0; i < query.num_edges(); ++i) {
      const Direction dir = query.edge(i).from == i ? Direction::kFwd : Direction::kBwd;
      const label_t vlabel = query.vertex(i + 1).label;
      std::vector<QueryComparison> residual;
      for (const QueryComparison& cmp : query.predicates()) {
        if (cmp.lhs.is_edge && cmp.lhs.var == i) residual.push_back(cmp);
      }
      ListDescriptor list;
      list.bound_var = i;
      list.target_vertex_var = i + 1;
      list.target_edge_var = i;
      list.cats = {query.edge(i).label};
      list.nbr_sorted = true;
      if (!residual.empty() && index == CountIndex::kVpView) {
        list.source = ListDescriptor::Source::kVp;
        list.vp = db_->index_store().FindVpIndex("Heavy", dir);
        ASSERT_NE(list.vp, nullptr);
        residual.clear();
      } else {
        list.primary = db_->index_store().primary(dir);
      }
      if (index == CountIndex::kLabelPartitioned && list.vp == nullptr) {
        // Only a full partition path is one neighbour-sorted run.
        if (vlabel != kInvalidLabel) {
          list.cats.push_back(vlabel);
        } else {
          list.nbr_sorted = false;
        }
      } else {
        list.target_vertex_label = vlabel;
      }
      builder.Extend(list, residual);
    }
    std::unique_ptr<Plan> plan = builder.Build();
    for (int k : {1, 4}) {
      EXPECT_EQ(RunCount(*plan, k), static_cast<uint64_t>(want[0][0].AsInt64()))
          << "hand-built k=" << k;
    }
  }

  ShapedDatabase db_;
  vertex_id_t hub_ = 0;
};

TEST_P(CountingModeDiffTest, ChainsMatchOracle) {
  const std::vector<std::string> chains = {
      "MATCH (v0)-[r0:EL0]->(v1)",
      "MATCH (v0)-[r0:EL0]->(v1)-[r1:EL0]->(v2)",
      // r1 may be r0 read backwards; only the bound-vertex subtraction
      // excludes it.
      "MATCH (v0)-[r0:EL0]->(v1)<-[r1:EL0]-(v2)",
      "MATCH (v0)-[r0:EL0]->(v1)-[r1:EL1]->(v2)-[r2:EL0]->(v3)",
      "MATCH (v0)-[r0:EL0]->(v1:VL1)-[r1:EL0]->(v2:VL0)",
      "MATCH (v0)-[r0:EL1]->(v1)<-[r1:EL0]-(v2)-[r2:EL1]->(v3:VL1)",
      "MATCH (v0)-[r0:EL0]->(v1)-[r1:EL0]->(v2) WHERE r1.w > 2",
      "MATCH (v0)-[r0:EL1]->(v1)-[r1:EL0]->(v2)<-[r2:EL0]-(v3) WHERE r2.w > 2",
  };
  std::vector<CountIndex> indexes = {CountIndex::kD, CountIndex::kLabelPartitioned};
  // Secondary indexes are neither sealed nor maintained under ingest.
  if (shape() == DbShape::kInMemory) indexes.push_back(CountIndex::kVpView);
  for (CountIndex index : indexes) {
    SCOPED_TRACE("index config " + std::to_string(static_cast<int>(index)));
    Open(index);
    if (HasFatalFailure()) return;
    for (const std::string& chain : chains) {
      for (bool pinned : {false, true}) {
        // An unpinned three-hop chain has millions of matches on the
        // power-law graph: too many to enumerate under the sanitizers.
        const bool three_hops = chain.find("(v3") != std::string::npos;
        if (!pinned && three_hops && graph_kind() == CountGraph::kPowerLaw) continue;
        ExpectChainMatchesOracle(chain, index, pinned);
        if (HasFatalFailure()) return;
      }
    }
  }
}

std::string CountCaseName(const ::testing::TestParamInfo<std::tuple<CountGraph, DbShape>>& info) {
  static const char* const kGraphs[] = {"Small", "PowerLaw"};
  return std::string(kGraphs[static_cast<int>(std::get<0>(info.param))]) +
         ToString(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndShapes, CountingModeDiffTest,
    ::testing::Combine(::testing::Values(CountGraph::kSmall, CountGraph::kPowerLaw),
                       ::testing::Values(DbShape::kInMemory, DbShape::kDelta,
                                         DbShape::kSealedRaw, DbShape::kSealedPacked)),
    CountCaseName);

}  // namespace
}  // namespace aplus
