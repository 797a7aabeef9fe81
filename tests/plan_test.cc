#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "datagen/example_graph.h"
#include "datagen/power_law_generator.h"
#include "index/index_store.h"
#include "query/plan.h"
#include "row_collector.h"
#include "test_threads.h"

namespace aplus {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  PlanTest() : ex_(BuildExampleGraph()), store_(&ex_.graph) {
    store_.BuildPrimary(IndexConfig::Default());
  }

  // (a:Account)-[:DD]->(b:Account), 11 matches (11 DD transfers).
  std::unique_ptr<Plan> DdPlan(QueryGraph* query) {
    int a = query->AddVertex("a", ex_.account_label);
    int b = query->AddVertex("b", ex_.account_label);
    query->AddEdge(a, b, ex_.dd_label);
    ListDescriptor list;
    list.source = ListDescriptor::Source::kPrimary;
    list.primary = store_.primary(Direction::kFwd);
    list.bound_var = a;
    list.cats = {ex_.dd_label};
    list.target_vertex_var = b;
    list.target_edge_var = 0;
    return PlanBuilder(&ex_.graph, query).Scan(a).Extend(list).Build();
  }

  ExampleGraph ex_;
  IndexStore store_;
};

TEST_F(PlanTest, ProjectingSinkSeesBindings) {
  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel, ex_.accounts[0]);
  int b = query.AddVertex("b");
  query.AddEdge(a, b, ex_.wire_label);
  ListDescriptor list;
  list.source = ListDescriptor::Source::kPrimary;
  list.primary = store_.primary(Direction::kFwd);
  list.bound_var = a;
  list.cats = {ex_.wire_label};
  list.target_vertex_var = b;
  list.target_edge_var = 0;
  ExecControls controls;
  RowCollector seen;
  auto plan = PlanBuilder(&ex_.graph, &query)
                  .Scan(a)
                  .Extend(list)
                  .BuildWithSink(VertexIdSink(ex_.graph, {b}, &seen, &controls));
  EXPECT_EQ(RunDelivering(*plan), 3u);
  // v1's Wire targets: v2 (t17), v3 (t4), v4 (t20), neighbour-ID sorted.
  std::vector<std::vector<Value>> want;
  for (int i : {1, 2, 3}) want.push_back({Value::Int64(ex_.accounts[i])});
  EXPECT_EQ(seen.rows, want);
}

TEST_F(PlanTest, ExecuteIsRepeatable) {
  QueryGraph query;
  auto plan = DdPlan(&query);
  uint64_t first = RunCount(*plan);
  uint64_t second = RunCount(*plan);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, 11u);  // 11 DD transfers
}

// A hand-built plan reports why its token stopped it, so a stopped
// execution's partial count never passes for a complete one.
TEST_F(PlanTest, ExecuteReportsWhyItStopped) {
  QueryGraph query;
  auto plan = DdPlan(&query);
  EXPECT_EQ(RunCount(*plan, 1), 11u);  // no token
  ExecToken token;
  plan->SetExecContext(&token, nullptr);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    token.Reset();
    token.Cancel();
    QueryOutcome out = plan->Execute(threads);
    EXPECT_EQ(out.status, QueryOutcome::Status::kCancelled);
    EXPECT_LE(out.count, 11u);
    token.Reset();
    token.ArmDeadlineNanos(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    out = plan->Execute(threads);
    EXPECT_EQ(out.status, QueryOutcome::Status::kTimeout);
    EXPECT_LE(out.count, 11u);
    token.Reset();
    token.RequestStop(StopReason::kLimit);  // a satisfied LIMIT is success
    EXPECT_TRUE(plan->Execute(threads).ok());
    token.Reset();
    EXPECT_EQ(RunCount(*plan, threads), 11u);
  }
  plan->SetExecContext(nullptr, nullptr);
  EXPECT_EQ(RunCount(*plan, 4), 11u);
}

class BoundedRangeTest : public ::testing::Test {
 protected:
  BoundedRangeTest() {
    PowerLawParams params;
    params.num_vertices = 200;
    params.avg_degree = 20.0;
    GeneratePowerLawGraph(params, &graph_);
    score_ = graph_.AddEdgeProperty("score", ValueType::kInt64);
    PropertyColumn* col = graph_.edge_props().mutable_column(score_);
    for (edge_id_t e = 0; e < graph_.num_edges(); ++e) {
      col->SetInt64(e, static_cast<int64_t>(e % 100));
    }
    primary_ = std::make_unique<PrimaryIndex>(&graph_, Direction::kFwd);
    IndexConfig config = IndexConfig::Default();
    config.sorts.clear();
    config.sorts.push_back({SortSource::kEdgeProp, score_});
    primary_->Build(config);
  }

  ListDescriptor Desc(vertex_id_t v) {
    ListDescriptor desc;
    desc.source = ListDescriptor::Source::kPrimary;
    desc.primary = primary_.get();
    desc.bound_var = 0;
    desc.cats = {0};  // single edge label
    desc.target_vertex_var = 1;
    desc.target_edge_var = 0;
    bound_state_.Reset(2, 1);
    bound_state_.v[0] = v;
    return desc;
  }

  Graph graph_;
  prop_key_t score_;
  std::unique_ptr<PrimaryIndex> primary_;
  MatchState bound_state_;
};

TEST_F(BoundedRangeTest, UpperAndLowerBoundsMatchLinearScan) {
  const PropertyColumn* col = graph_.edge_props().column(score_);
  for (vertex_id_t v = 0; v < 50; ++v) {
    ListDescriptor desc = Desc(v);
    AdjListSlice slice = desc.Fetch(bound_state_);
    for (int64_t bound : {0, 17, 50, 99, 150}) {
      for (bool strict : {true, false}) {
        // Upper bound.
        desc.has_upper_bound = true;
        desc.upper_bound = bound;
        desc.upper_strict = strict;
        desc.has_lower_bound = false;
        auto [ub, ue] = desc.BoundedRange(slice);
        uint64_t expected = 0;
        for (uint32_t i = 0; i < slice.size(); ++i) {
          int64_t key = col->GetInt64(slice.EdgeAt(i));
          if (strict ? key < bound : key <= bound) ++expected;
        }
        EXPECT_EQ(ub, 0u);
        EXPECT_EQ(ue - ub, expected) << "v=" << v << " bound=" << bound;
        // Lower bound.
        desc.has_upper_bound = false;
        desc.has_lower_bound = true;
        desc.lower_bound = bound;
        desc.lower_strict = strict;
        auto [lb, le] = desc.BoundedRange(slice);
        expected = 0;
        for (uint32_t i = 0; i < slice.size(); ++i) {
          int64_t key = col->GetInt64(slice.EdgeAt(i));
          if (strict ? key > bound : key >= bound) ++expected;
        }
        EXPECT_EQ(le, slice.size());
        EXPECT_EQ(le - lb, expected) << "v=" << v << " bound=" << bound;
      }
    }
    // Window [lo, hi).
    desc.has_lower_bound = true;
    desc.lower_bound = 20;
    desc.lower_strict = false;
    desc.has_upper_bound = true;
    desc.upper_bound = 60;
    desc.upper_strict = true;
    auto [wb, we] = desc.BoundedRange(slice);
    uint64_t expected = 0;
    for (uint32_t i = 0; i < slice.size(); ++i) {
      int64_t key = col->GetInt64(slice.EdgeAt(i));
      if (key >= 20 && key < 60) ++expected;
    }
    EXPECT_EQ(we - wb, expected) << "v=" << v;
  }
}

TEST_F(BoundedRangeTest, NoBoundsReturnsWholeList) {
  ListDescriptor desc = Desc(3);
  AdjListSlice slice = desc.Fetch(bound_state_);
  auto [begin, end] = desc.BoundedRange(slice);
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, slice.size());
}

}  // namespace
}  // namespace aplus
