// Differential tests for morsel-driven parallel plan execution:
// Execute(k) for k in {2, 4, 8} must return exactly the serial match
// count for scan / extend / extend-intersect / multi-extend plans, with
// and without residual conjuncts, over random power-law multi-edge
// graphs (the same generator setup as intersect_diff_test.cc), including
// on repeated executions of the same plan (worker pipelines and
// MatchStates are reused). The counting-mode cases at the end check
// counting EXTENDs against the flat-adjacency oracle.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/flat_adj_engine.h"
#include "core/database.h"
#include "datagen/label_assigner.h"
#include "datagen/power_law_generator.h"
#include "index/index_store.h"
#include "query/intersect_kernels.h"
#include "query/plan.h"
#include "row_collector.h"
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

  // Serial count once, then every parallel width twice (the second
  // execution proves the reused worker pipelines stay correct).
  void ExpectParallelMatchesSerial(Plan* plan, const char* what) {
    uint64_t serial = RunCount(*plan, 1);
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

// Scan -> Extend -> Extend/Intersect (unbound triangle).
TEST_P(ParallelDiffTest, TrianglePlan) {
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(a, c, el0_, "e1");
  query.AddEdge(b, c, el1_, "e2");
  PlanBuilder builder(&graph_, &query);
  std::vector<ListDescriptor> lists = {FwdList(a, el0_, c, 1), FwdList(b, el1_, c, 2)};
  auto plan = builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).ExtendIntersect(lists, c).Build();
  ExpectParallelMatchesSerial(plan.get(), "triangle");
}

// Scan with predicates -> Extend with a residual conjunct.
TEST_P(ParallelDiffTest, ScanPredicateAndResidualPlan) {
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  query.AddEdge(a, b, el0_, "e0");
  QueryComparison scan_pred;
  scan_pred.lhs = QueryPropRef{a, false, kInvalidPropKey, /*is_id=*/true};
  scan_pred.op = CmpOp::kLt;
  scan_pred.rhs_const = Value::Int64(static_cast<int64_t>(graph_.num_vertices() / 2));
  QueryComparison residual;
  residual.lhs = QueryPropRef{b, false, grp_key_, false};
  residual.op = CmpOp::kLe;
  residual.rhs_const = Value::Int64(2);
  query.AddPredicate(scan_pred);
  query.AddPredicate(residual);
  PlanBuilder builder(&graph_, &query);
  auto plan =
      builder.Scan(a, {scan_pred}).Extend(FwdList(a, el0_, b, 0), {residual}).Build();
  ExpectParallelMatchesSerial(plan.get(), "scan-pred+residual");
}

// Scan -> Extend -> closing Extend (2-cycle membership probe).
TEST_P(ParallelDiffTest, ClosingExtendPlan) {
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(b, a, el1_, "e1");
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(a)
                  .Extend(FwdList(a, el0_, b, 0))
                  .Extend(FwdList(b, el1_, a, 1), {}, /*closing=*/true)
                  .Build();
  ExpectParallelMatchesSerial(plan.get(), "closing-extend");
}

// Scan -> Multi-Extend over property-sorted offset lists.
TEST_P(ParallelDiffTest, MultiExtendPlan) {
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  int d = query.AddVertex("d");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(a, d, el1_, "e1");
  ListDescriptor l1;
  l1.source = ListDescriptor::Source::kVp;
  l1.vp = vp_grp_;
  l1.bound_var = a;
  l1.cats = {el0_};
  l1.target_vertex_var = b;
  l1.target_edge_var = 0;
  ListDescriptor l2 = l1;
  l2.cats = {el1_};
  l2.target_vertex_var = d;
  l2.target_edge_var = 1;
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(a).MultiExtend({l1, l2}).Build();
  ExpectParallelMatchesSerial(plan.get(), "multi-extend");
}

// A bound leading scan (single-vertex domain): only one worker gets a
// morsel, the rest must drain empty and still merge correctly.
TEST_P(ParallelDiffTest, BoundScanPlan) {
  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel, /*bound=*/static_cast<vertex_id_t>(GetParam()));
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(b, c, el1_, "e1");
  PlanBuilder builder(&graph_, &query);
  auto plan =
      builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).Extend(FwdList(b, el1_, c, 1)).Build();
  uint64_t serial = RunCount(*plan, 1);
  for (int k : {2, 4, 8}) {
    EXPECT_EQ(RunCount(*plan, k), serial) << "bound-scan k=" << k;
  }
}

// Per-worker projecting sinks: their batches, delivered concurrently by
// the workers and then flushed by the caller, hold every match exactly
// once regardless of the worker count.
TEST_P(ParallelDiffTest, RowsDeliveredOncePerMatch) {
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  query.AddEdge(a, b, el0_, "e0");
  ExecControls controls;
  RowCounter seen;
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(a)
                  .Extend(FwdList(a, el0_, b, 0))
                  .BuildWithSink(VertexIdSink(graph_, {b}, &seen, &controls));
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
  QueryGraph outer_query;
  int a = outer_query.AddVertex("a");
  int b = outer_query.AddVertex("b");
  outer_query.AddEdge(a, b, el0_, "e0");

  QueryGraph inner_query;
  int x = inner_query.AddVertex("x");
  int y = inner_query.AddVertex("y");
  inner_query.AddEdge(x, y, el1_, "e0");
  auto build_inner = [&] {
    PlanBuilder builder(&graph_, &inner_query);
    return builder.Scan(x).Extend(FwdList(x, el1_, y, 0)).Build();
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
  auto outer_plan = outer_builder.Scan(a)
                        .Extend(FwdList(a, el0_, b, 0))
                        .BuildWithSink(VertexIdSink(graph_, {b}, &nesting, &controls));

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
  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel, hub);
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(b, c, el1_, "e1");
  PlanBuilder builder(&graph_, &query);
  auto plan =
      builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).Extend(FwdList(b, el1_, c, 1)).Build();
  ExpectParallelMatchesSerial(plan.get(), "deep two-hop");
}

// The pinned two-hop over a database reopened from a segment sealed
// with every page packed: the workers split one shared varint-coded hub
// list, each decoding it through its own block cache.
TEST_P(ParallelDiffTest, PinnedHubTwoHopOverPackedSegmentMatchesSerial) {
  Graph graph;
  GenerateLabelled(&graph);
  EngineConfig config;
  config.segment_compress = CompressMode::kOn;
  const std::string path =
      testing::TempDir() + "/aplus_parallel_packed_" + std::to_string(GetParam()) + ".seg";
  std::string error;
  {
    Database sealer(std::move(graph), config);
    sealer.BuildPrimaryIndexes();
    ASSERT_TRUE(sealer.SealToSegment(path, &error)) << error;
  }
  std::unique_ptr<Database> db = Database::OpenFromSegment(path, &error, config);
  ASSERT_NE(db, nullptr) << error;
  const PrimaryIndex* primary = db->index_store().primary(Direction::kFwd);
  vertex_id_t hub = 0;
  for (vertex_id_t v = 0; v < db->graph().num_vertices(); ++v) {
    if (primary->GetFullList(v).len > primary->GetFullList(hub).len) hub = v;
  }
  ASSERT_TRUE(primary->GetFullList(hub).is_packed());
  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel, hub);
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(b, c, el1_, "e1");
  ListDescriptor first = FwdList(a, el0_, b, 0);
  ListDescriptor second = FwdList(b, el1_, c, 1);
  first.primary = primary;
  second.primary = primary;
  PlanBuilder builder(&db->graph(), &query);
  auto plan = builder.Scan(a).Extend(first).Extend(second).Build();
  ExpectParallelMatchesSerial(plan.get(), "packed pinned two-hop");
  std::remove(path.c_str());
}

// Deep split feeding EXTEND/INTERSECT: the pinned triangle.
TEST_P(ParallelDiffTest, DeepMorselTriangleMatchesSerial) {
  for (uint64_t salt = 0; salt < 8; ++salt) {
    vertex_id_t src = static_cast<vertex_id_t>((GetParam() * 131 + salt * 37) %
                                               graph_.num_vertices());
    QueryGraph query;
    int a = query.AddVertex("a", kInvalidLabel, src);
    int b = query.AddVertex("b");
    int c = query.AddVertex("c");
    query.AddEdge(a, b, el0_, "e0");
    query.AddEdge(a, c, el0_, "e1");
    query.AddEdge(b, c, el1_, "e2");
    PlanBuilder builder(&graph_, &query);
    std::vector<ListDescriptor> lists = {FwdList(a, el0_, c, 1), FwdList(b, el1_, c, 2)};
    auto plan =
        builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).ExtendIntersect(lists, c).Build();
    uint64_t serial = RunCount(*plan, 1);
    for (int k : {2, 4, 8}) {
      EXPECT_EQ(RunCount(*plan, k), serial) << "deep triangle src=" << src << " k=" << k;
    }
  }
}

// The mode must flip cleanly between executions of one plan: serial,
// deep-parallel, and back, repeatedly — replicas persist across calls.
TEST_P(ParallelDiffTest, DeepMorselModeFlipsAcrossExecutions) {
  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel,
                          static_cast<vertex_id_t>(GetParam() % graph_.num_vertices()));
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(b, c, el1_, "e1");
  PlanBuilder builder(&graph_, &query);
  auto plan =
      builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).Extend(FwdList(b, el1_, c, 1)).Build();
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
  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel,
                          static_cast<vertex_id_t>(GetParam() % graph_.num_vertices()));
  int b = query.AddVertex("b");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(b, a, el1_, "e1");
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(a)
                  .Extend(FwdList(a, el0_, b, 0))
                  .Extend(FwdList(b, el1_, a, 1), {}, /*closing=*/true)
                  .Build();
  uint64_t serial = RunCount(*plan, 1);
  for (int k : {2, 4, 8}) {
    EXPECT_EQ(RunCount(*plan, k), serial) << "closing deep k=" << k;
  }
}

// Deep-parallel workers still deliver each match exactly once.
TEST_P(ParallelDiffTest, DeepMorselRowsDeliveredOncePerMatch) {
  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel,
                          static_cast<vertex_id_t>((GetParam() * 7) % graph_.num_vertices()));
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(b, c, el1_, "e1");
  ExecControls controls;
  RowCounter seen;
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(a)
                  .Extend(FwdList(a, el0_, b, 0))
                  .Extend(FwdList(b, el1_, c, 1))
                  .BuildWithSink(VertexIdSink(graph_, {c}, &seen, &controls));
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
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(a, c, el0_, "e1");
  query.AddEdge(b, c, el1_, "e2");
  PlanBuilder builder(&graph_, &query);
  std::vector<ListDescriptor> lists = {FwdList(a, el0_, c, 1), FwdList(b, el1_, c, 2)};
  auto plan =
      builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).ExtendIntersect(lists, c).Build();
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
// Chains of one to three hops, counted through Database::Prepare(...
// RETURN COUNT(*)) and through a hand-built Plan ending in a counting
// ProjectSinkOp, against the flat-adjacency oracle. Both end in a
// counting EXTEND wherever the last hop filters nothing. The small graph
// has self-loops, parallel edges and 2-cycles, so the bound-vertex
// subtraction is what keeps the counts isomorphic and edge-distinct;
// the power-law graph is the suite's. A hub-pinned source makes
// Execute(4) split the first list, so a one-hop chain counts inside
// entry morsels.

enum class CountGraph { kSmall, kPowerLaw };
enum class CountShape { kInMemory, kDelta, kSealedRaw, kSealedPacked };
// The default primary (D); a primary partitioned by edge label, then
// neighbour label; D plus a VP view of the edges with w > 2.
enum class CountIndex { kD, kLabelPartitioned, kVpView };

struct Hop {
  bool fwd;
  const char* elabel;
  const char* vlabel;  // the target's label, or nullptr
};

struct Chain {
  std::vector<Hop> hops;
  bool last_w = false;  // `w > 2` on the last edge
};

class CountingModeDiffTest
    : public ::testing::TestWithParam<std::tuple<CountGraph, CountShape>> {
 protected:
  static constexpr const char* kVpDdl =
      "CREATE 1-HOP VIEW Heavy MATCH vs-[eadj]->vd WHERE eadj.w>2 INDEX AS FW-BW "
      "PARTITION BY eadj.label SORT BY vnbr.ID";

  CountGraph graph_kind() const { return std::get<0>(GetParam()); }
  CountShape shape() const { return std::get<1>(GetParam()); }

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
    Close();
    IndexConfig config = IndexConfig::Default();
    if (index == CountIndex::kLabelPartitioned) {
      config.partitions.push_back({PartitionSource::kNbrLabel, kInvalidPropKey});
    }
    const bool sealed = shape() == CountShape::kSealedRaw || shape() == CountShape::kSealedPacked;
    EngineConfig engine;
    engine.segment_compress =
        shape() == CountShape::kSealedPacked ? CompressMode::kOn : CompressMode::kOff;
    db_ = std::make_unique<Database>(MakeGraph(), engine);
    db_->BuildPrimaryIndexes(config);
    if (index == CountIndex::kVpView) {
      ASSERT_TRUE(db_->ExecuteDdl(kVpDdl).ok);
    }
    if (sealed) {
      path_ = testing::TempDir() + "/aplus_counting_mode.seg";
      std::string error;
      ASSERT_TRUE(db_->SealToSegment(path_, &error)) << error;
      db_ = Database::OpenFromSegment(path_, &error, engine);
      ASSERT_NE(db_, nullptr) << error;
    }
    if (shape() == CountShape::kDelta) {
      // A second self-loop on 0, another parallel 0->1, a 2-cycle 0<->2
      // and a self-loop on 5; on the power-law graph also one edge per
      // half page. Few enough to stay in the pages' deltas.
      const Catalog& catalog = db_->graph().catalog();
      const label_t el0 = catalog.FindEdgeLabel("EL0");
      const label_t el1 = catalog.FindEdgeLabel("EL1");
      const uint64_t nv = db_->graph().num_vertices();
      std::vector<std::tuple<vertex_id_t, vertex_id_t, label_t>> inserts = {
          {0, 0, el0}, {0, 1, el0}, {2, 0, el1}, {0, 2, el1}, {5, 5, el1}};
      if (graph_kind() == CountGraph::kPowerLaw) {
        for (uint64_t src = 0; src < nv; src += kGroupSize / 2) {
          inserts.emplace_back(static_cast<vertex_id_t>(src),
                               static_cast<vertex_id_t>((src * 7 + 3) % nv),
                               src % 2 == 0 ? el0 : el1);
        }
      }
      ConcurrentIngestOptions options;
      options.max_vertices = nv;
      options.max_edges = db_->graph().num_edges() + inserts.size();
      options.background_merge = false;
      db_->BeginConcurrentIngest(options);
      for (const auto& [src, dst, label] : inserts) {
        db_->maintainer().OnEdgeInserted(db_->graph().AddEdge(src, dst, label));
      }
      ASSERT_TRUE(db_->index_store().HasPendingUpdates());
    }
    const PrimaryIndex* fwd = db_->index_store().primary(Direction::kFwd);
    hub_ = 0;
    for (vertex_id_t v = 0; v < db_->graph().num_vertices(); ++v) {
      if (fwd->GetFullList(v).len > fwd->GetFullList(hub_).len) hub_ = v;
    }
    if (shape() == CountShape::kSealedPacked) {
      ASSERT_TRUE(fwd->GetFullList(hub_).is_packed());
    }
  }

  void Close() {
    if (db_ != nullptr && db_->concurrent_ingest_active()) db_->EndConcurrentIngest();
    db_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
    path_.clear();
  }
  void TearDown() override { Close(); }

  // Counts `chain` from an unpinned or hub-pinned source both ways, at 1
  // and 4 threads, against the oracle.
  void ExpectChainMatchesOracle(const Chain& chain, CountIndex index, bool pinned) {
    const Graph& graph = db_->graph();
    const Catalog& catalog = graph.catalog();
    const prop_key_t w = catalog.FindProperty("w", PropTargetKind::kEdge);
    const int last = static_cast<int>(chain.hops.size()) - 1;
    QueryGraph query;
    query.AddVertex("v0", kInvalidLabel, pinned ? hub_ : kInvalidVertex);
    std::string text = "MATCH (v0)";
    for (int i = 0; i <= last; ++i) {
      const Hop& hop = chain.hops[i];
      const std::string name = "v" + std::to_string(i + 1);
      const std::string edge = "r" + std::to_string(i);
      const label_t vlabel =
          hop.vlabel != nullptr ? catalog.FindVertexLabel(hop.vlabel) : kInvalidLabel;
      query.AddVertex(name, vlabel);
      query.AddEdge(hop.fwd ? i : i + 1, hop.fwd ? i + 1 : i, catalog.FindEdgeLabel(hop.elabel),
                    edge);
      text += std::string(hop.fwd ? "-[" : "<-[") + edge + ":" + hop.elabel +
              (hop.fwd ? "]->(" : "]-(") + name +
              (hop.vlabel != nullptr ? std::string(":") + hop.vlabel : "") + ")";
    }
    QueryComparison heavy;
    heavy.lhs = QueryPropRef{last, /*is_edge=*/true, w, /*is_id=*/false};
    heavy.op = CmpOp::kGt;
    heavy.rhs_const = Value::Int64(2);
    std::vector<std::string> where;
    if (pinned) where.push_back("v0.ID = $src");
    if (chain.last_w) {
      query.AddPredicate(heavy);
      where.push_back("r" + std::to_string(last) + ".w > 2");
    }
    for (size_t i = 0; i < where.size(); ++i) text += (i == 0 ? " WHERE " : ", ") + where[i];
    text += " RETURN COUNT(*)";
    SCOPED_TRACE(text + (pinned ? " src=" + std::to_string(hub_) : ""));

    const uint64_t want = FlatAdjEngine(&graph).CountMatches(query);
    std::unique_ptr<PreparedQuery> prepared = db_->Prepare(text);
    ASSERT_TRUE(prepared->ok()) << prepared->error();
    if (pinned) {
      ASSERT_TRUE(prepared->Bind("src", Value::Int64(hub_))) << prepared->bind_error();
    }

    PlanBuilder builder(&graph, &query);
    builder.Scan(0);
    for (int i = 0; i <= last; ++i) {
      const Hop& hop = chain.hops[i];
      const Direction dir = hop.fwd ? Direction::kFwd : Direction::kBwd;
      const label_t elabel = catalog.FindEdgeLabel(hop.elabel);
      const label_t vlabel =
          hop.vlabel != nullptr ? catalog.FindVertexLabel(hop.vlabel) : kInvalidLabel;
      const bool heavy_hop = chain.last_w && i == last;
      ListDescriptor list;
      list.bound_var = i;
      list.target_vertex_var = i + 1;
      list.target_edge_var = i;
      list.cats = {elabel};
      list.nbr_sorted = true;
      std::vector<QueryComparison> residual;
      if (heavy_hop && index == CountIndex::kVpView) {
        list.source = ListDescriptor::Source::kVp;
        list.vp = db_->index_store().FindVpIndex("Heavy", dir);
        ASSERT_NE(list.vp, nullptr);
      } else {
        list.primary = db_->index_store().primary(dir);
        if (heavy_hop) residual.push_back(heavy);
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
      QueryOutcome out = prepared->Execute(nullptr, k);
      ASSERT_TRUE(out.ok()) << out.error;
      EXPECT_EQ(out.count, want) << "prepared k=" << k;
      EXPECT_EQ(RunCount(*plan, k), want) << "hand-built k=" << k;
    }
  }

  std::unique_ptr<Database> db_;
  std::string path_;
  vertex_id_t hub_ = 0;
};

TEST_P(CountingModeDiffTest, ChainsMatchOracle) {
  const std::vector<Chain> chains = {
      {{{true, "EL0", nullptr}}},
      {{{true, "EL0", nullptr}, {true, "EL0", nullptr}}},
      // r1 may be r0 read backwards; only the bound-vertex subtraction
      // excludes it.
      {{{true, "EL0", nullptr}, {false, "EL0", nullptr}}},
      {{{true, "EL0", nullptr}, {true, "EL1", nullptr}, {true, "EL0", nullptr}}},
      {{{true, "EL0", "VL1"}, {true, "EL0", "VL0"}}},
      {{{true, "EL1", nullptr}, {false, "EL0", nullptr}, {true, "EL1", "VL1"}}},
      {{{true, "EL0", nullptr}, {true, "EL0", nullptr}}, /*last_w=*/true},
      {{{true, "EL1", nullptr}, {true, "EL0", nullptr}, {false, "EL0", nullptr}},
       /*last_w=*/true},
  };
  std::vector<CountIndex> indexes = {CountIndex::kD, CountIndex::kLabelPartitioned};
  // Secondary indexes are neither sealed nor maintained under ingest.
  if (shape() == CountShape::kInMemory) indexes.push_back(CountIndex::kVpView);
  for (CountIndex index : indexes) {
    SCOPED_TRACE("index config " + std::to_string(static_cast<int>(index)));
    Open(index);
    if (HasFatalFailure()) return;
    for (const Chain& chain : chains) {
      for (bool pinned : {false, true}) {
        // An unpinned three-hop chain has millions of matches on the
        // power-law graph: too many to enumerate under the sanitizers.
        if (!pinned && chain.hops.size() == 3 && graph_kind() == CountGraph::kPowerLaw) continue;
        ExpectChainMatchesOracle(chain, index, pinned);
        if (HasFatalFailure()) return;
      }
    }
  }
}

std::string CountCaseName(const ::testing::TestParamInfo<std::tuple<CountGraph, CountShape>>& info) {
  static const char* const kGraphs[] = {"Small", "PowerLaw"};
  static const char* const kShapes[] = {"InMemory", "Delta", "SealedRaw", "SealedPacked"};
  return std::string(kGraphs[static_cast<int>(std::get<0>(info.param))]) +
         kShapes[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndShapes, CountingModeDiffTest,
    ::testing::Combine(::testing::Values(CountGraph::kSmall, CountGraph::kPowerLaw),
                       ::testing::Values(CountShape::kInMemory, CountShape::kDelta,
                                         CountShape::kSealedRaw, CountShape::kSealedPacked)),
    CountCaseName);

}  // namespace
}  // namespace aplus
