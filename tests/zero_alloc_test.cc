// Asserts the hot-path operators perform zero heap allocations in
// steady state: after one warm-up Run() (which grows the plan-lifetime
// scratch buffers to their high-water mark), further Run() calls must
// not touch the global allocator. Global operator new/delete are
// replaced with counting wrappers; counts are compared across the
// second pass. A thread-local tally beside the global count lets a
// test subtract its own thread's allocations from those of threads it
// drives (the server's).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "core/database.h"
#include "datagen/financial_props.h"
#include "datagen/label_assigner.h"
#include "datagen/power_law_generator.h"
#include "index/index_store.h"
#include "query/cypher_parser.h"
#include "query/operators.h"
#include "query/plan.h"
#include "query/row_sink.h"
#include "server/client.h"
#include "server/server.h"
#include "test_threads.h"
#include "util/rng.h"

namespace {
std::atomic<uint64_t> g_alloc_count{0};
thread_local uint64_t t_alloc_count = 0;

void CountAlloc() {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  ++t_alloc_count;
}
}  // namespace

// The counting allocator below intentionally backs global operator new
// with std::malloc and operator delete with std::free; the heuristic
// behind -Wmismatched-new-delete cannot see that the replaced pair is
// consistent and flags inlined new/delete sites across the whole TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  CountAlloc();
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  CountAlloc();
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AlignedCountingAlloc(std::size_t size, std::align_val_t align) {
  CountAlloc();
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
      ProjectSinkOp sink(&graph_, {}, 1, nullptr, /*row_budget=*/false);  // counting
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
  ProjectSinkOp sink(&graph_, {}, 1, nullptr, /*row_budget=*/false);  // counting
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

TEST_F(ZeroAllocTest, EpExtendSteadyStateDoesNotAllocate) {
  // An EXTEND over an EP list (the 2-hop step of a money-flow query):
  // fetching eb's offset list and resolving it against the anchor's
  // primary list must not touch the allocator.
  TwoHopViewDef view;
  view.name = "w_flow";
  view.kind = EpKind::kDstFwd;
  view.pred.AddRef(PropRef{PropSite::kAdjEdge, weight_key_, false, false}, CmpOp::kGt,
                   PropRef{PropSite::kBoundEdge, weight_key_, false, false});
  EpIndex* ep = store_->CreateEpIndex(view, IndexConfig::Default());

  // Bound edges whose EP list is non-empty.
  std::vector<edge_id_t> bound_edges;
  for (edge_id_t e = graph_.num_edges(); e-- > 0 && bound_edges.size() < 50;) {
    if (ep->GetFullList(e).size() > 0) bound_edges.push_back(e);
  }
  ASSERT_FALSE(bound_edges.empty());

  ListDescriptor desc;
  desc.source = ListDescriptor::Source::kEp;
  desc.ep = ep;
  desc.bound_var = 0;  // edge var
  desc.cats = {elabel_};
  desc.target_vertex_var = 1;
  desc.target_edge_var = 1;
  ExtendOp op(&graph_, desc, {});
  ProjectSinkOp sink(&graph_, {}, 1, nullptr, /*row_budget=*/false);  // counting
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
  // Triangle plans (scan -> extend -> E/I -> sink), executed repeatedly:
  // serial and parallel steady state must both be allocation-free
  // (MatchStates, worker replicas, and the thread pool persist across
  // Execute calls). One scans the graph under a predicate (scan
  // morsels); the other is pinned to the highest-degree vertex, so its workers
  // split that vertex's first-hop list.
  vertex_id_t hub = 0;
  for (vertex_id_t v = 0; v < graph_.num_vertices(); ++v) {
    if (store_->primary(Direction::kFwd)->GetFullList(v).len >
        store_->primary(Direction::kFwd)->GetFullList(hub).len) {
      hub = v;
    }
  }
  auto triangle = [&](QueryGraph* query, vertex_id_t pin) {
    int a = query->AddVertex("a", kInvalidLabel, pin);
    int b = query->AddVertex("b");
    int c = query->AddVertex("c");
    query->AddEdge(a, b, elabel_, "e0");
    query->AddEdge(a, c, elabel_, "e1");
    query->AddEdge(b, c, elabel_, "e2");
    QueryComparison grp_le_6;
    grp_le_6.lhs = QueryPropRef{a, false, vgrp_key_, false};
    grp_le_6.op = CmpOp::kLe;
    grp_le_6.rhs_const = Value::Int64(6);
    std::vector<QueryComparison> scan_preds;
    if (pin == kInvalidVertex) scan_preds.push_back(grp_le_6);
    PlanBuilder builder(&graph_, query);
    return builder.Scan(a, std::move(scan_preds))
        .Extend(List(a, b, 0, /*offset=*/false))
        .ExtendIntersect({List(a, c, 1, false), List(b, c, 2, true)}, c)
        .Build();
  };
  QueryGraph scan_query;
  QueryGraph pinned_query;
  auto scan_plan = triangle(&scan_query, kInvalidVertex);
  auto pinned_plan = triangle(&pinned_query, hub);

  auto measure = [&](Plan* plan, int threads) {
    uint64_t count = RunCount(*plan, threads);  // warm-up: scratch + replicas + pool threads
    count = RunCount(*plan, threads);           // second warm-up pass reaches the high-water mark
    uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(RunCount(*plan, threads), count) << "threads=" << threads;
    }
    uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_GT(count, 0u);
    return allocs;
  };
  // Serial first: the parallel replicas are cloned after it, at the
  // primary pipeline's decode-buffer capacities (Operator::Clone), so no
  // morsel a replica happens to draw later can grow one.
  for (Plan* plan : {scan_plan.get(), pinned_plan.get()}) {
    const char* what = plan == scan_plan.get() ? "scan" : "pinned";
    EXPECT_EQ(measure(plan, 1), 0u) << what << ": serial Execute steady state allocated";
    EXPECT_EQ(measure(plan, 4), 0u) << what << ": parallel Execute steady state allocated";
    EXPECT_EQ(RunCount(*plan, 4), RunCount(*plan, 1)) << what << ": parallel/serial count mismatch";
  }
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

TEST(ServerAllocTest, SteadyStateExecuteAllocatesAtMostOncePerRequest) {
  // Wire EXECUTEs of prepared statements through an in-process Server
  // with one worker. Every thread but this client thread is the
  // server's, so the global count minus this thread's own tally is what
  // serving cost. Server-side heap allocations per EXECUTE, averaged
  // over 1000 requests:
  //
  //                                    two-hop COUNT(*)  2-param projection
  //   batch key + per-request job:           12.02             12.99
  //   request held in the connection:         0.01              0.02
  //
  // The first row built a batch-group key string and a pending-batch
  // map node and allocated a job, a parsed request and a reply vector
  // per EXECUTE; the second parses into buffers that keep their
  // capacity, and what remains is the job queue's deque taking a new
  // block every 64 requests.
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 2000;
  params.avg_degree = 5.0;
  params.seed = 41;
  GeneratePowerLawGraph(params, &graph);
  prop_key_t amt = graph.AddEdgeProperty("amt", ValueType::kInt64);
  PropertyColumn* col = graph.edge_props().mutable_column(amt);
  Rng rng(43);
  for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
    col->SetInt64(e, static_cast<int64_t>(rng.NextBounded(100)));
  }
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  ServerOptions options;
  options.num_workers = 1;
  Server server(&db, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  constexpr int kSources = 64;
  constexpr int kRequests = 1000;
  const char* const texts[] = {
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = $src RETURN COUNT(*)",
      "MATCH (a)-[r1:E]->(b) WHERE a.ID = $src AND r1.amt < $max RETURN b, r1.amt",
  };
  for (const char* text : texts) {
    Client::PreparedInfo info = client.Prepare(text);
    ASSERT_TRUE(info.ok()) << info.error;
    std::vector<std::pair<std::string, Value>> binds;
    for (const std::string& name : info.param_names) binds.emplace_back(name, Value::Int64(0));
    auto execute = [&](int i) {
      binds[0].second = Value::Int64(i % kSources);
      if (binds.size() > 1) binds[1].second = Value::Int64(50 + i % 7);
      Client::Result result = client.Execute(info.stmt_id, binds);
      ASSERT_TRUE(result.ok()) << result.error;
    };
    // Warm-up: every source once, so the spool, the reply and the
    // socket buffers reach their high-water marks.
    for (int i = 0; i < 2 * kSources; ++i) execute(i);
    if (HasFatalFailure()) return;
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    const uint64_t client_before = t_alloc_count;
    for (int i = 0; i < kRequests; ++i) execute(i);
    const uint64_t server_allocs =
        g_alloc_count.load(std::memory_order_relaxed) - before - (t_alloc_count - client_before);
    const double per_request = static_cast<double>(server_allocs) / kRequests;
    std::printf("%s: %.2f server-side allocations per EXECUTE\n", text, per_request);
    EXPECT_LE(per_request, 1.0) << text;
  }
  client.Close();
  server.Stop();
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
      ProjectSinkOp sink(&graph_, {}, 1, nullptr, /*row_budget=*/false);  // counting
      op.set_next(&sink);
      MatchState state;
      state.Reset(static_cast<int>(2 * z), static_cast<int>(z));
      DrivePass(&op, &state, z);
      EXPECT_EQ(DrivePass(&op, &state, z), 0u) << "z=" << z << " offset=" << offset;
      EXPECT_GT(state.count, 0u);
    }
  }
}


// The fraud workload's database (Section V-D) under D+VPc+EPc, at test
// scale.
std::unique_ptr<Database> FraudDatabase() {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 2000;
  params.avg_degree = 8.0;
  params.seed = 41;
  GeneratePowerLawGraph(params, &graph);
  FinancialPropKeys keys = AddFinancialProperties(42, &graph, kNumCities);
  graph.catalog().RegisterCategoryValue(keys.acc, "CQ");
  graph.catalog().RegisterCategoryValue(keys.acc, "SV");
  auto db = std::make_unique<Database>(std::move(graph));
  db->BuildPrimaryIndexes();
  EXPECT_TRUE(db->ExecuteDdl("CREATE 1-HOP VIEW VPc MATCH vs-[eadj]->vd INDEX AS FW-BW "
                             "PARTITION BY eadj.label SORT BY vnbr.city")
                  .ok);
  EXPECT_TRUE(db->ExecuteDdl("CREATE 2-HOP VIEW EPc MATCH vs-[eb]->vd-[eadj]->vnbr "
                             "WHERE eb.date<eadj.date, eadj.amount<eb.amount, "
                             "eb.amount<eadj.amount+50 INDEX AS PARTITION BY eadj.label, "
                             "vnbr.acc SORT BY vnbr.city")
                  .ok);
  return db;
}

// The ad hoc MF1-MF5 texts of the fraud workload, each pinned to one
// account.
std::vector<std::string> AdHocFraudTexts() {
  // Pf(ei, ej) of Section V-D with alpha = 50.
  auto flow = [](const std::string& ei, const std::string& ej) {
    return ei + ".date < " + ej + ".date, " + ei + ".amount > " + ej + ".amount, " + ei +
           ".amount < " + ej + ".amount + 50";
  };
  const std::string flow12 = flow("e1", "e2");
  const std::string flow23 = flow("e2", "e3");
  const std::string flow34 = flow("e3", "e4");
  return {
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
  };
}

TEST(PrepareAllocTest, AdHocPrepareStaysWithinAllocationBudget) {
  // The ad hoc MF1-MF5 texts prepared under D+VPc+EPc: parse, DP
  // optimization and plan construction. Heap allocations per text:
  //
  //                          MF1  MF2  MF3  MF4  MF5   sum
  //   ParseCypher, before:    23   22   26   26   26
  //   ParseCypher, after:     12   11   14   14   14
  //   Prepare, before:       264  135  234  224  207  1064
  //   Prepare, after:        143  107  141  146  125   662
  //   Prepare, now:           52   34   40   51   38   215
  //   ParseCypher, part 4:     4    4    4    4    4
  //   Prepare, part 4:        44   27   30   41   28   170
  //
  // "Before" copied every token into a std::string, had the index
  // matcher return fresh candidate vectors per lookup and normalized
  // the text on every Prepare; "after" lexes string_view tokens, matches
  // into a per-Optimize scratch and leaves the cache key to the plan
  // cache. "Now" keeps the optimizer's whole working state (DP table,
  // candidate pool, memo, step records) across calls, copies each chosen
  // list descriptor once, into its operator, and renders the plan text
  // only when it is read. "Part 4" lexes on demand with no token vector,
  // sizes the vertex, edge and predicate vectors once from the text, and
  // resolves names in the catalog without building strings; the four
  // parse allocations are those vectors and the RETURN list. The budgets
  // keep each within about 10% of "part 4".
  constexpr uint64_t kParseBudget = 5;
  constexpr uint64_t kPrepareSumBudget = 187;
  std::unique_ptr<Database> owned = FraudDatabase();
  ASSERT_FALSE(HasFailure());
  Database& db = *owned;
  const std::vector<std::string> texts = AdHocFraudTexts();
  auto allocs_since = [](uint64_t before) {
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  uint64_t prepare_sum = 0;
  for (size_t i = 0; i < std::size(texts); ++i) {
    const std::string& text = texts[i];
    // Warm-up: builds the cached optimizer and its catalog statistics.
    ASSERT_TRUE(db.Prepare(text)->ok()) << "MF" << i + 1;
    uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    ParsedCypher parsed = ParseCypher(text, db.graph().catalog());
    uint64_t parse_allocs = allocs_since(before);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_LE(parse_allocs, kParseBudget) << "ParseCypher(MF" << i + 1 << ")";
    before = g_alloc_count.load(std::memory_order_relaxed);
    std::unique_ptr<PreparedQuery> prepared = db.Prepare(text);
    uint64_t prepare_allocs = allocs_since(before);
    ASSERT_TRUE(prepared->ok()) << prepared->error();
    prepare_sum += prepare_allocs;
    std::printf("MF%zu allocations: ParseCypher %llu, Prepare %llu\n", i + 1,
                static_cast<unsigned long long>(parse_allocs),
                static_cast<unsigned long long>(prepare_allocs));
  }
  EXPECT_LE(prepare_sum, kPrepareSumBudget) << "Prepare(MF1..MF5) allocated " << prepare_sum;
}

TEST(PrepareLookupTest, OneIndexLookupPerExtensionGroup) {
  // The optimizer matches each (query edge, direction, EP bound edge)
  // group the DP touches against the INDEX STORE once, and that lookup
  // serves every sort requirement (none, neighbour ID, each MULTI-EXTEND
  // key). IndexMatcher lookups per Optimize of the MF1-MF5 texts:
  //
  //                             MF1  MF2  MF3  MF4  MF5  sum
  //   one lookup per sort slot:  36   16   24   16   14  106
  //   one lookup per group:      16   10   16   14   14   70
  constexpr int kLookups[] = {16, 10, 16, 14, 14};
  std::unique_ptr<Database> db = FraudDatabase();
  ASSERT_FALSE(HasFailure());
  DpOptimizer optimizer(&db->graph(), &db->index_store());
  const std::vector<std::string> texts = AdHocFraudTexts();
  for (size_t i = 0; i < texts.size(); ++i) {
    ParsedCypher parsed = ParseCypher(texts[i], db->graph().catalog());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_NE(optimizer.Optimize(parsed.query), nullptr) << "MF" << i + 1;
    std::printf("MF%zu: %d lookups, %d groups\n", i + 1, optimizer.last_match_lookups(),
                optimizer.last_match_groups());
    EXPECT_EQ(optimizer.last_match_lookups(), optimizer.last_match_groups()) << "MF" << i + 1;
    EXPECT_EQ(optimizer.last_match_lookups(), kLookups[i]) << "MF" << i + 1;
  }
}

}  // namespace
}  // namespace aplus
