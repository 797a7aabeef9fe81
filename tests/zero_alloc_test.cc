// Asserts the hot-path operators perform zero heap allocations in
// steady state: after one warm-up Run() (which grows the plan-lifetime
// scratch buffers to their high-water mark), further Run() calls must
// not touch the global allocator. Global operator new/delete are
// replaced with counting wrappers; counts are compared across the
// second pass.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/database.h"
#include "datagen/financial_props.h"
#include "datagen/label_assigner.h"
#include "datagen/power_law_generator.h"
#include "index/index_store.h"
#include "query/operators.h"
#include "query/plan.h"
#include "util/rng.h"

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

// The counting allocator below intentionally backs global operator new
// with std::malloc and operator delete with std::free; the heuristic
// behind -Wmismatched-new-delete cannot see that the replaced pair is
// consistent and flags inlined new/delete sites across the whole TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AlignedCountingAlloc(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align) {
  return AlignedCountingAlloc(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return AlignedCountingAlloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace aplus {
namespace {

class ZeroAllocTest : public ::testing::Test {
 protected:
  ZeroAllocTest() {
    PowerLawParams params;
    params.num_vertices = 1500;
    params.avg_degree = 10.0;
    params.seed = 5;
    GeneratePowerLawGraph(params, &graph_);
    elabel_ = graph_.catalog().FindEdgeLabel("E");
    weight_key_ = graph_.AddEdgeProperty("w", ValueType::kInt64);
    PropertyColumn* col = graph_.edge_props().mutable_column(weight_key_);
    Rng rng(9);
    for (edge_id_t e = 0; e < graph_.num_edges(); ++e) {
      col->SetInt64(e, static_cast<int64_t>(rng.NextBounded(16)));
    }
    vgrp_key_ = graph_.AddVertexProperty("grp", ValueType::kInt64);
    PropertyColumn* vcol = graph_.vertex_props().mutable_column(vgrp_key_);
    for (vertex_id_t v = 0; v < graph_.num_vertices(); ++v) {
      vcol->SetInt64(v, static_cast<int64_t>(rng.NextBounded(8)));
    }
    store_ = std::make_unique<IndexStore>(&graph_);
    store_->BuildPrimary(IndexConfig::Default());
    OneHopViewDef all;
    all.name = "all";
    vp_ = store_->CreateVpIndex(all, IndexConfig::Default(), Direction::kFwd);
    IndexConfig weight_config = IndexConfig::Default();
    weight_config.sorts.clear();
    weight_config.sorts.push_back({SortSource::kEdgeProp, weight_key_});
    OneHopViewDef all_w;
    all_w.name = "all_w";
    vp_w_ = store_->CreateVpIndex(all_w, weight_config, Direction::kFwd);
    primary_w_ = std::make_unique<PrimaryIndex>(&graph_, Direction::kFwd);
    primary_w_->Build(weight_config);
  }

  ListDescriptor List(int bound_var, int target_v, int target_e, bool offset) {
    ListDescriptor desc;
    if (offset) {
      desc.source = ListDescriptor::Source::kVp;
      desc.vp = vp_;
    } else {
      desc.source = ListDescriptor::Source::kPrimary;
      desc.primary = store_->primary(Direction::kFwd);
    }
    desc.bound_var = bound_var;
    desc.cats = {elabel_};
    desc.target_vertex_var = target_v;
    desc.target_edge_var = target_e;
    desc.nbr_sorted = true;
    return desc;
  }

  // Drives `op` over a spread of source tuples; returns allocations
  // performed by the pass.
  uint64_t DrivePass(Operator* op, MatchState* state, size_t z) {
    uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    uint64_t nv = graph_.num_vertices();
    for (uint64_t t = 0; t < 50; ++t) {
      for (size_t l = 0; l < z; ++l) {
        state->v[l] = static_cast<vertex_id_t>((t * 131 + l * 37) % nv);
      }
      op->Run(state);
    }
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  }

  Graph graph_;
  label_t elabel_ = kInvalidLabel;
  prop_key_t weight_key_ = kInvalidPropKey;
  prop_key_t vgrp_key_ = kInvalidPropKey;
  std::unique_ptr<IndexStore> store_;
  VpIndex* vp_ = nullptr;
  VpIndex* vp_w_ = nullptr;
  std::unique_ptr<PrimaryIndex> primary_w_;
};

TEST_F(ZeroAllocTest, ExtendIntersectSteadyStateDoesNotAllocate) {
  for (size_t z : {2, 3, 4}) {
    for (bool offset : {false, true}) {
      std::vector<ListDescriptor> lists;
      for (size_t l = 0; l < z; ++l) {
        lists.push_back(List(static_cast<int>(l), static_cast<int>(z), static_cast<int>(l),
                             offset));
      }
      ExtendIntersectOp op(&graph_, lists, static_cast<int>(z), {});
      SinkOp sink;
      op.set_next(&sink);
      MatchState state;
      state.Reset(static_cast<int>(z) + 1, static_cast<int>(z));
      DrivePass(&op, &state, z);  // warm-up: scratch reaches its high-water mark
      EXPECT_EQ(DrivePass(&op, &state, z), 0u) << "z=" << z << " offset=" << offset;
      EXPECT_GT(state.count, 0u);
    }
  }
}

TEST_F(ZeroAllocTest, ScanPredicateSteadyStateDoesNotAllocate) {
  // ScanOp predicate evaluation (ID pseudo-property + int64 property)
  // must not touch the allocator: Values are stack tagged scalars.
  QueryComparison id_pred;
  id_pred.lhs = QueryPropRef{0, false, kInvalidPropKey, /*is_id=*/true};
  id_pred.op = CmpOp::kLt;
  id_pred.rhs_const = Value::Int64(static_cast<int64_t>(graph_.num_vertices() / 2));
  QueryComparison grp_pred;
  grp_pred.lhs = QueryPropRef{0, false, vgrp_key_, false};
  grp_pred.op = CmpOp::kLe;
  grp_pred.rhs_const = Value::Int64(5);
  ScanOp op(&graph_, 0, kInvalidLabel, kInvalidVertex, {id_pred, grp_pred});
  SinkOp sink;
  op.set_next(&sink);
  MatchState state;
  state.Reset(1, 0);
  op.Run(&state);  // warm-up
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  op.Run(&state);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_GT(state.count, 0u);
  EXPECT_LT(state.count, 2 * static_cast<uint64_t>(graph_.num_vertices()));
}

TEST_F(ZeroAllocTest, EpRuntimeExtendSteadyStateDoesNotAllocate) {
  // The EP runtime fallback (unmaterialized bound edges re-derive the
  // view adjacency from the anchor's primary list) must stay
  // allocation-free: predicate evaluation over int properties only.
  TwoHopViewDef view;
  view.name = "w_flow";
  view.kind = EpKind::kDstFwd;
  view.pred.AddRef(PropRef{PropSite::kAdjEdge, weight_key_, false, false}, CmpOp::kGt,
                   PropRef{PropSite::kBoundEdge, weight_key_, false, false});
  EpIndex* full = store_->CreateEpIndex(view, IndexConfig::Default());
  ASSERT_TRUE(full->fully_materialized());
  EpIndex* partial =
      store_->CreateEpIndex(view, IndexConfig::Default(), nullptr, full->MemoryBytes() / 8);
  ASSERT_FALSE(partial->fully_materialized());

  // Unmaterialized bound edges whose runtime adjacency is non-empty.
  std::vector<edge_id_t> bound_edges;
  for (edge_id_t e = graph_.num_edges(); e-- > 0 && bound_edges.size() < 50;) {
    if (partial->IsMaterialized(e)) continue;
    if (store_->primary(Direction::kFwd)->GetFullList(partial->AnchorOf(e)).len > 1) {
      bound_edges.push_back(e);
    }
  }
  ASSERT_FALSE(bound_edges.empty());

  ListDescriptor desc;
  desc.source = ListDescriptor::Source::kEp;
  desc.ep = partial;
  desc.bound_var = 0;  // edge var
  desc.cats = {elabel_};
  desc.target_vertex_var = 1;
  desc.target_edge_var = 1;
  ExtendOp op(&graph_, desc, {});
  SinkOp sink;
  op.set_next(&sink);
  MatchState state;
  state.Reset(2, 2);
  auto drive = [&] {
    uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (edge_id_t eb : bound_edges) {
      state.e[0] = eb;
      op.Run(&state);
    }
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  drive();  // warm-up
  EXPECT_EQ(drive(), 0u);
  EXPECT_GT(state.count, 0u);
}

TEST_F(ZeroAllocTest, PlanExecuteSteadyStateDoesNotAllocate) {
  // Full triangle plan (scan with predicate -> extend -> E/I -> sink),
  // executed repeatedly: serial and parallel steady state must both be
  // allocation-free (MatchStates, worker replicas, and the thread pool
  // persist across Execute calls).
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, elabel_, "e0");
  query.AddEdge(a, c, elabel_, "e1");
  query.AddEdge(b, c, elabel_, "e2");
  QueryComparison scan_pred;
  scan_pred.lhs = QueryPropRef{a, false, vgrp_key_, false};
  scan_pred.op = CmpOp::kLe;
  scan_pred.rhs_const = Value::Int64(6);
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(a, {scan_pred})
                  .Extend(List(a, b, 0, /*offset=*/false))
                  .ExtendIntersect({List(a, c, 1, false), List(b, c, 2, true)}, c)
                  .Build();

  auto measure = [&](int threads) {
    uint64_t count = plan->Execute(threads);  // warm-up: scratch + replicas + pool threads
    count = plan->Execute(threads);           // second warm-up pass reaches the high-water mark
    uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(plan->Execute(threads), count) << "threads=" << threads;
    }
    uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_GT(count, 0u);
    return allocs;
  };
  EXPECT_EQ(measure(1), 0u) << "serial Execute steady state allocated";
  EXPECT_EQ(measure(4), 0u) << "parallel Execute steady state allocated";
  EXPECT_EQ(plan->Execute(4), plan->Execute(1)) << "parallel/serial count mismatch";
}

TEST_F(ZeroAllocTest, PreparedServingPathSteadyStateDoesNotAllocate) {
  // The serving hot path — Bind (slot patch) + Execute (projection sink
  // streaming typed row batches to a consumer) — must be allocation-free
  // in steady state at 1 and 4 threads. Warm-up covers scratch growth,
  // worker-replica creation, and the post-parallel slot re-collection.
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 800;
  params.avg_degree = 6.0;
  params.seed = 29;
  GeneratePowerLawGraph(params, &graph);
  prop_key_t amt = graph.AddEdgeProperty("amt", ValueType::kInt64);
  PropertyColumn* col = graph.edge_props().mutable_column(amt);
  Rng rng(31);
  for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
    col->SetInt64(e, static_cast<int64_t>(rng.NextBounded(100)));
  }
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  std::unique_ptr<PreparedQuery> prepared = db.Prepare(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = $src RETURN b, c, r2.amt");
  ASSERT_TRUE(prepared->ok()) << prepared->error();

  struct CountingConsumer : RowConsumer {
    std::atomic<uint64_t> rows{0};
    void OnBatch(const RowBatch& batch) override {
      rows.fetch_add(batch.num_rows(), std::memory_order_relaxed);
    }
  };
  CountingConsumer consumer;
  const vertex_id_t sources[] = {1, 17, 63, 255};
  auto round = [&] {
    uint64_t total = 0;
    for (vertex_id_t src : sources) {
      ASSERT_TRUE(prepared->Bind("src", Value::Int64(src))) << prepared->bind_error();
      QueryOutcome s = prepared->Execute(&consumer, 1);
      QueryOutcome p = prepared->Execute(&consumer, 4);
      ASSERT_TRUE(s.ok()) << s.error;
      ASSERT_TRUE(p.ok()) << p.error;
      EXPECT_EQ(s.rows, p.rows) << "src=" << src;
      total += s.rows;
    }
    EXPECT_GT(total, 0u);
  };
  // Two warm-up rounds: the first grows scratch + replicas + pool
  // threads, the second triggers the one-time slot re-collection after
  // the pipeline count grew and reaches the high-water mark.
  round();
  round();
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  round();
  round();
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 0u)
      << "prepared Bind+Execute steady state allocated";
}

TEST_F(ZeroAllocTest, PreparedAggregateSortSteadyStateDoesNotAllocate) {
  // The staged sink pipeline (grouped aggregation -> top-k sort ->
  // limit) must be allocation-free in steady state too: group arenas,
  // the open-addressing slot table, sort buffers, and the output batches
  // all reach a high-water mark during warm-up and are reused across
  // Bind+Execute rounds, serial and 4-way parallel (which adds the
  // worker chains and the partial-merge path).
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 800;
  params.avg_degree = 6.0;
  params.seed = 29;
  GeneratePowerLawGraph(params, &graph);
  prop_key_t amt = graph.AddEdgeProperty("amt", ValueType::kInt64);
  PropertyColumn* col = graph.edge_props().mutable_column(amt);
  Rng rng(31);
  for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
    col->SetInt64(e, static_cast<int64_t>(rng.NextBounded(100)));
  }
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  std::unique_ptr<PreparedQuery> prepared = db.Prepare(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = $src "
      "RETURN b, COUNT(*), SUM(r2.amt), AVG(r2.amt) ORDER BY COUNT(*) DESC, b LIMIT 5");
  ASSERT_TRUE(prepared->ok()) << prepared->error();

  struct CountingConsumer : RowConsumer {
    uint64_t rows = 0;
    void OnBatch(const RowBatch& batch) override { rows += batch.num_rows(); }
  };
  CountingConsumer consumer;
  const vertex_id_t sources[] = {1, 17, 63, 255};
  auto round = [&](bool parallel) {
    uint64_t total = 0;
    for (vertex_id_t src : sources) {
      ASSERT_TRUE(prepared->Bind("src", Value::Int64(src))) << prepared->bind_error();
      QueryOutcome s = prepared->Execute(&consumer, 1);
      ASSERT_TRUE(s.ok()) << s.error;
      if (parallel) {
        QueryOutcome p = prepared->Execute(&consumer, 4);
        ASSERT_TRUE(p.ok()) << p.error;
        EXPECT_EQ(s.rows, p.rows) << "src=" << src;
        EXPECT_EQ(s.count, p.count) << "src=" << src;
      }
      total += s.rows;
    }
    EXPECT_GT(total, 0u);
  };
  // Warm-up covers replicas, slot re-collection, and arena growth; the
  // measured rounds stay serial + the merge of the (reset) worker
  // chains. Parallel execution is excluded from the alloc assertion on
  // purpose: which worker claims the pinned scan's single morsel is
  // scheduling-dependent, so per-worker arena high-water marks are not
  // deterministic (parallel exactness is covered by
  // aggregate_diff_test).
  round(/*parallel=*/true);
  round(/*parallel=*/true);
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  round(/*parallel=*/false);
  round(/*parallel=*/false);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 0u)
      << "staged aggregate/sort Bind+Execute steady state allocated";
}

TEST_F(ZeroAllocTest, CountStarPushdownSteadyStateDoesNotAllocate) {
  // A bare RETURN COUNT(*) runs the counting sink with no row
  // materialization at all ("ProjectSink (count)" in the plan, no
  // aggregate stage): steady-state Bind+Execute must be allocation-free,
  // including the synthesized single-row result batch (Init'd once at
  // prepare, Clear/Append reuse its capacity).
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 800;
  params.avg_degree = 6.0;
  params.seed = 29;
  GeneratePowerLawGraph(params, &graph);
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  std::unique_ptr<PreparedQuery> prepared = db.Prepare(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = $src RETURN COUNT(*)");
  ASSERT_TRUE(prepared->ok()) << prepared->error();
  ASSERT_TRUE(prepared->count_star_only());
  EXPECT_NE(prepared->plan_text().find("ProjectSink (count)"), std::string::npos)
      << prepared->plan_text();
  EXPECT_EQ(prepared->plan_text().find("GROUP AGGREGATE"), std::string::npos)
      << prepared->plan_text();

  struct CountingConsumer : RowConsumer {
    uint64_t rows = 0;
    int64_t last = -1;
    void OnBatch(const RowBatch& batch) override {
      rows += batch.num_rows();
      if (batch.num_rows() > 0) last = batch.Cell(0, batch.num_rows() - 1).AsInt64();
    }
  };
  CountingConsumer consumer;
  const vertex_id_t sources[] = {1, 17, 63, 255};
  auto round = [&] {
    for (vertex_id_t src : sources) {
      ASSERT_TRUE(prepared->Bind("src", Value::Int64(src))) << prepared->bind_error();
      QueryOutcome out = prepared->Execute(&consumer, 1);
      ASSERT_TRUE(out.ok()) << out.error;
      EXPECT_EQ(out.rows, 1u) << "src=" << src;
      EXPECT_EQ(consumer.last, static_cast<int64_t>(out.count)) << "src=" << src;
    }
  };
  round();
  round();
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  round();
  round();
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 0u)
      << "COUNT(*) pushdown Bind+Execute steady state allocated";
  EXPECT_GT(consumer.rows, 0u);
}

TEST_F(ZeroAllocTest, MultiExtendSteadyStateDoesNotAllocate) {
  for (size_t z : {2, 3}) {
    for (bool offset : {false, true}) {
      std::vector<ListDescriptor> lists;
      for (size_t l = 0; l < z; ++l) {
        ListDescriptor desc;
        if (offset) {
          desc.source = ListDescriptor::Source::kVp;
          desc.vp = vp_w_;  // offset arm exercises the run-decode buffers
        } else {
          desc.source = ListDescriptor::Source::kPrimary;
          desc.primary = primary_w_.get();
        }
        desc.bound_var = static_cast<int>(l);
        desc.cats = {elabel_};
        desc.target_vertex_var = static_cast<int>(z + l);
        desc.target_edge_var = static_cast<int>(l);
        lists.push_back(desc);
      }
      MultiExtendOp op(&graph_, lists, {});
      SinkOp sink;
      op.set_next(&sink);
      MatchState state;
      state.Reset(static_cast<int>(2 * z), static_cast<int>(z));
      DrivePass(&op, &state, z);
      EXPECT_EQ(DrivePass(&op, &state, z), 0u) << "z=" << z << " offset=" << offset;
      EXPECT_GT(state.count, 0u);
    }
  }
}


TEST(PrepareAllocTest, AdHocPrepareStaysWithinAllocationBudget) {
  // An ad hoc MF3 text (Figure 6) prepared under D+VPc+EPc: parse, DP
  // optimization and plan construction. Before the optimizer memoized
  // its access paths and kept a parent-pointer plan table, one Prepare
  // of this text made 1149 heap allocations; the budget is half of that.
  constexpr uint64_t kBudget = 1149 / 2;
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 2000;
  params.avg_degree = 8.0;
  params.seed = 41;
  GeneratePowerLawGraph(params, &graph);
  FinancialPropKeys keys = AddFinancialProperties(42, &graph, kNumCities);
  graph.catalog().RegisterCategoryValue(keys.acc, "CQ");
  graph.catalog().RegisterCategoryValue(keys.acc, "SV");
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  ASSERT_TRUE(db.ExecuteDdl("CREATE 1-HOP VIEW VPc MATCH vs-[eadj]->vd INDEX AS FW-BW "
                            "PARTITION BY eadj.label SORT BY vnbr.city")
                  .ok);
  ASSERT_TRUE(db.ExecuteDdl("CREATE 2-HOP VIEW EPc MATCH vs-[eb]->vd-[eadj]->vnbr "
                            "WHERE eb.date<eadj.date, eadj.amount<eb.amount, "
                            "eb.amount<eadj.amount+50 INDEX AS PARTITION BY eadj.label, "
                            "vnbr.acc SORT BY vnbr.city")
                  .ok);
  const std::string mf3 =
      "MATCH (a1)-[e1:E]->(a2), (a1)-[e2:E]->(a3)-[e3:E]->(a5), (a1)-[e4:E]->(a4) "
      "WHERE a3.ID = 17, a2.city = a4.city, a4.city = a5.city, a1.acc = CQ, a2.acc = CQ, "
      "a3.acc = CQ, a4.acc = CQ, a5.acc = SV, e2.date < e3.date, e2.amount > e3.amount, "
      "e2.amount < e3.amount + 50 RETURN COUNT(*)";
  // Warm-up: builds the cached optimizer and its catalog statistics.
  ASSERT_TRUE(db.Prepare(mf3)->ok());
  uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  std::unique_ptr<PreparedQuery> prepared = db.Prepare(mf3);
  uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(prepared->ok()) << prepared->error();
  EXPECT_LE(allocs, kBudget) << "Database::Prepare of MF3 allocated " << allocs << " times";
  std::printf("Prepare(MF3) allocations: %llu\n", static_cast<unsigned long long>(allocs));
}

}  // namespace
}  // namespace aplus
