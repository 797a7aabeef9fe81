#include <gtest/gtest.h>

#include "baseline/flat_adj_engine.h"
#include "baseline/linked_list_engine.h"
#include "datagen/example_graph.h"
#include "datagen/label_assigner.h"
#include "datagen/power_law_generator.h"
#include "index/index_store.h"
#include "optimizer/dp_optimizer.h"
#include "test_threads.h"

namespace aplus {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest() : ex_(BuildExampleGraph()), ll_(&ex_.graph), flat_(&ex_.graph) {}

  ExampleGraph ex_;
  LinkedListEngine ll_;
  FlatAdjEngine flat_;
};

TEST_F(BaselineTest, AdjacencyIterationMatchesGraph) {
  for (vertex_id_t v = 0; v < ex_.graph.num_vertices(); ++v) {
    uint64_t expected_out = 0;
    for (edge_id_t e = 0; e < ex_.graph.num_edges(); ++e) {
      if (ex_.graph.edge_src(e) == v) ++expected_out;
    }
    uint64_t ll_count = 0;
    ll_.ForEachEdge(v, Direction::kFwd, [&](vertex_id_t, edge_id_t, label_t) { ++ll_count; });
    uint64_t flat_count = 0;
    flat_.ForEachEdge(v, Direction::kFwd, [&](vertex_id_t, edge_id_t, label_t) { ++flat_count; });
    EXPECT_EQ(ll_count, expected_out) << "v=" << v;
    EXPECT_EQ(flat_count, expected_out) << "v=" << v;
  }
}

TEST_F(BaselineTest, EnginesAgreeOnSimpleQueries) {
  QueryGraph query;
  int a = query.AddVertex("a", ex_.account_label);
  int b = query.AddVertex("b", ex_.account_label);
  query.AddEdge(a, b, ex_.wire_label);
  EXPECT_EQ(ll_.CountMatches(query), flat_.CountMatches(query));
  EXPECT_EQ(ll_.CountMatches(query), 9u);  // 9 Wire transfers
}

TEST_F(BaselineTest, EnginesAgreeWithAplusOnTriangles) {
  IndexStore store(&ex_.graph);
  store.BuildPrimary(IndexConfig::Default());
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b);
  query.AddEdge(b, c);
  query.AddEdge(a, c);
  DpOptimizer optimizer(&ex_.graph, &store);
  auto plan = optimizer.Optimize(query);
  ASSERT_NE(plan, nullptr);
  uint64_t aplus_count = RunCount(*plan);
  EXPECT_EQ(ll_.CountMatches(query), aplus_count);
  EXPECT_EQ(flat_.CountMatches(query), aplus_count);
}

TEST(BaselineLargeTest, AgreementOnLabelledGraph) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 1200;
  params.avg_degree = 5.0;
  GeneratePowerLawGraph(params, &graph);
  AssignRandomLabels(3, 2, 9, &graph);
  LinkedListEngine ll(&graph);
  FlatAdjEngine flat(&graph);
  IndexStore store(&graph);
  store.BuildPrimary(IndexConfig::Default());

  // Labelled 2-path.
  QueryGraph path;
  int a = path.AddVertex("a", graph.catalog().FindVertexLabel("VL0"));
  int b = path.AddVertex("b", graph.catalog().FindVertexLabel("VL1"));
  int c = path.AddVertex("c", graph.catalog().FindVertexLabel("VL2"));
  path.AddEdge(a, b, graph.catalog().FindEdgeLabel("EL0"));
  path.AddEdge(b, c, graph.catalog().FindEdgeLabel("EL1"));
  DpOptimizer optimizer(&graph, &store);
  auto plan = optimizer.Optimize(path);
  ASSERT_NE(plan, nullptr);
  uint64_t expected = RunCount(*plan);
  EXPECT_EQ(ll.CountMatches(path), expected);
  EXPECT_EQ(flat.CountMatches(path), expected);
}

TEST_F(BaselineTest, DistinctPathPairsDedups) {
  // v1 reaches {v2,v3,v4,v5} over 1 Wire hop and further over 2 hops;
  // distinct-pair counting must not exceed total path embeddings.
  std::vector<label_t> edge_labels{ex_.wire_label, ex_.wire_label};
  std::vector<label_t> vertex_labels{kInvalidLabel, kInvalidLabel, kInvalidLabel};
  uint64_t pairs = flat_.CountDistinctPathPairs(edge_labels, vertex_labels);
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, ex_.wire_label);
  query.AddEdge(b, c, ex_.wire_label);
  uint64_t embeddings = flat_.CountMatches(query);
  EXPECT_LE(pairs, embeddings + 10);  // pairs may differ but stay bounded
  EXPECT_GT(pairs, 0u);
}

TEST_F(BaselineTest, MemoryAccounting) {
  EXPECT_GT(ll_.MemoryBytes(), 0u);
  EXPECT_GT(flat_.MemoryBytes(), 0u);
}

TEST_F(BaselineTest, BudgetExhaustionStopsSearch) {
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b);
  query.AddEdge(b, c);

  // A generous cap leaves the result intact and balances its charges.
  MemoryBudget roomy;
  roomy.Reset(64ull << 20);
  bool timed_out = false;
  bool exhausted = false;
  uint64_t unbudgeted = ll_.CountMatches(query);
  EXPECT_EQ(ll_.CountMatches(query, 0.0, &timed_out, &roomy, &exhausted), unbudgeted);
  EXPECT_FALSE(timed_out);
  EXPECT_FALSE(exhausted);
  EXPECT_EQ(roomy.used(), 0u) << "matcher must release all scratch charges";

  // A cap smaller than any candidate list stops the search with
  // kResourceExhausted rather than timing out or crashing.
  MemoryBudget tiny;
  tiny.Reset(1);
  exhausted = false;
  ll_.CountMatches(query, 0.0, &timed_out, &tiny, &exhausted);
  EXPECT_TRUE(exhausted);
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(tiny.used(), 0u);

  MemoryBudget tiny_flat;
  tiny_flat.Reset(1);
  exhausted = false;
  flat_.CountMatches(query, 0.0, &timed_out, &tiny_flat, &exhausted);
  EXPECT_TRUE(exhausted);
}

}  // namespace
}  // namespace aplus
