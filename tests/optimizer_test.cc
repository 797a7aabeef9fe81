#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "datagen/example_graph.h"
#include "index/index_store.h"
#include "optimizer/dp_optimizer.h"
#include "optimizer/plan_printer.h"
#include "oracle.h"
#include "test_threads.h"

namespace aplus {
namespace {

// True when the last plan of `optimizer` has a step of `kind`.
bool HasStep(const DpOptimizer& optimizer, StepOutline::Kind kind) {
  for (const StepOutline& step : optimizer.last_outline()) {
    if (step.kind == kind) return true;
  }
  return false;
}

// True when some operator of `plan` reads a list from `source`.
bool ReadsFrom(const Plan& plan, ListDescriptor::Source source) {
  for (const auto& op : plan.primary_ops()) {
    auto [lists, count] = op->lists();
    for (size_t i = 0; i < count; ++i) {
      if (lists[i].source == source) return true;
    }
  }
  return false;
}

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : ex_(BuildExampleGraph()), store_(&ex_.graph) {
    store_.BuildPrimary(IndexConfig::Default());
  }

  // The optimizer's plan for the pattern of `text` over the store as it
  // is now, its count checked against the oracle (tests/oracle.h).
  std::unique_ptr<Plan> PlanMatchingOracle(const std::string& text) {
    query_ = OracleParse(ex_.graph, text).query;
    optimizer_ = std::make_unique<DpOptimizer>(&ex_.graph, &store_);
    std::unique_ptr<Plan> plan = optimizer_->Optimize(query_);
    EXPECT_NE(plan, nullptr) << text;
    if (plan != nullptr) {
      EXPECT_EQ(RunCount(*plan), Oracle(ex_.graph, text).count) << text;
    }
    return plan;
  }

  std::string Pin(const char* var, vertex_id_t v) const {
    return std::string(var) + ".ID = " + std::to_string(v);
  }

  // City-sorted VP indexes over every edge, in both directions (VPc).
  void CreateVpc() {
    IndexConfig city_config = IndexConfig::Default();
    city_config.sorts = {{SortSource::kNbrProp, ex_.city_key}};
    OneHopViewDef all;
    all.name = "VPc";
    store_.CreateVpIndex(all, city_config, Direction::kFwd);
    store_.CreateVpIndex(all, city_config, Direction::kBwd);
  }

  // A VP index of the edges with amount > 50.
  void CreateLargeVp() {
    OneHopViewDef view;
    view.name = "large";
    view.pred.AddConst(PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false}, CmpOp::kGt,
                       Value::Int64(50));
    store_.CreateVpIndex(view, IndexConfig::Default(), Direction::kFwd);
  }

  ExampleGraph ex_;
  IndexStore store_;
  QueryGraph query_;
  std::unique_ptr<DpOptimizer> optimizer_;
};

TEST_F(OptimizerTest, SingleEdgeQuery) {
  PlanMatchingOracle("MATCH (a:Account)-[:W]->(b:Account)");
}

TEST_F(OptimizerTest, TwoHopMatchesBruteForce) {
  PlanMatchingOracle("MATCH (c1:Customer)-[:O]->(a1:Account)-[:W]->(a2:Account)");
}

TEST_F(OptimizerTest, LabelledTriangleUsesIntersection) {
  // Example 3 analogue: 3-edge cyclic Wire transfers. Edge labels pin
  // the innermost (neighbour-ID sorted) sublists, enabling the WCOJ
  // intersection.
  const std::string text = "MATCH (a)-[:W]->(b)-[:W]->(c), (a)-[:W]->(c)";
  auto plan = PlanMatchingOracle(text);
  ASSERT_NE(plan, nullptr);
  EXPECT_GE(RunCount(*plan), 1u);  // v1 -t17-> v2 -t8-> v4, v1 -t20-> v4
  // The last extension closes two edges -> must be an intersection.
  EXPECT_TRUE(HasStep(*optimizer_, StepOutline::Kind::kExtendIntersect));
}

TEST_F(OptimizerTest, UnlabelledTriangleFallsBackToVerify) {
  // Without edge labels the default config's whole-vertex slices span
  // label partitions and are not neighbour-sorted; the optimizer must
  // use the extend+verify fallback and still count correctly.
  PlanMatchingOracle("MATCH (a)-[]->(b)-[]->(c), (a)-[]->(c)");
}

TEST_F(OptimizerTest, PredicatePushedIntoScanAndResiduals) {
  PlanMatchingOracle("MATCH (a:Account)-[e1:DD]->(b:Account) WHERE e1.amount > 60");
}

TEST_F(OptimizerTest, UsesVpIndexWhenPredicateSubsumes) {
  // A VP index on amount > 50; the query wants amount > 100.
  CreateLargeVp();
  auto plan = PlanMatchingOracle("MATCH (a)-[e1]->(b) WHERE " + Pin("a", ex_.accounts[0]) +
                                 ", e1.amount > 100");
  ASSERT_NE(plan, nullptr);
  // The chosen extend should read the VP index (it is smaller).
  EXPECT_TRUE(ReadsFrom(*plan, ListDescriptor::Source::kVp));
}

TEST_F(OptimizerTest, RejectsVpIndexWhenQueryIsBroader) {
  // Index on amount > 50 must NOT serve a query wanting amount > 10.
  CreateLargeVp();
  auto plan = PlanMatchingOracle("MATCH (a)-[e1]->(b) WHERE " + Pin("a", ex_.accounts[0]) +
                                 ", e1.amount > 10");
  ASSERT_NE(plan, nullptr);
  EXPECT_FALSE(ReadsFrom(*plan, ListDescriptor::Source::kVp));
}

TEST_F(OptimizerTest, MultiExtendChosenForCityEquality) {
  // MF1-style core: a2, a4 both adjacent to a1 with a2.city = a4.city
  // and city-sorted VP indexes available in both directions; a1 is v2.
  CreateVpc();
  auto plan = PlanMatchingOracle("MATCH (a1)-[e1:W]->(a2), (a1)-[e2:DD]->(a4) WHERE " +
                                 Pin("a1", ex_.accounts[1]) + ", a2.city = a4.city");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(HasStep(*optimizer_, StepOutline::Kind::kMultiExtend));
}

TEST_F(OptimizerTest, MultiExtendKeepsOffsetEqualityResidual) {
  // a2.city = a4.city groups a2 and a4 into a MULTI-EXTEND merge on
  // city; a2.city = a4.city + 1 is not implied by that merge and must
  // stay a residual filter (together the two admit no match).
  CreateVpc();
  auto plan = PlanMatchingOracle("MATCH (a1)-[e1:W]->(a2), (a1)-[e2:DD]->(a4) WHERE " +
                                 Pin("a1", ex_.accounts[1]) +
                                 ", a2.city = a4.city, a2.city = a4.city + 1");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(HasStep(*optimizer_, StepOutline::Kind::kMultiExtend));
  EXPECT_EQ(RunCount(*plan), 0u)
      << RenderPlanTree(query_, ex_.graph.catalog(), optimizer_->last_outline(), *plan);
}

TEST_F(OptimizerTest, EpIndexUsedForCrossEdgePredicate) {
  // Example 7 core: r1 bound to t13; extend to r2 with Pf(r1, r2).
  TwoHopViewDef view;
  view.name = "MoneyFlow";
  view.kind = EpKind::kDstFwd;
  view.pred.AddRef(PropRef{PropSite::kBoundEdge, ex_.date_key, false, false}, CmpOp::kLt,
                   PropRef{PropSite::kAdjEdge, ex_.date_key, false, false});
  view.pred.AddRef(PropRef{PropSite::kBoundEdge, ex_.amount_key, false, false}, CmpOp::kGt,
                   PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false});
  store_.CreateEpIndex(view, IndexConfig::Default());
  // a1 is v2 (the source of t13), a2 is v5 (its destination).
  auto plan = PlanMatchingOracle("MATCH (a1)-[r1]->(a2)-[r2]->(a3) WHERE " +
                                 Pin("a1", ex_.accounts[1]) + ", " + Pin("a2", ex_.accounts[4]) +
                                 ", r1.date < r2.date, r1.amount > r2.amount");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(ReadsFrom(*plan, ListDescriptor::Source::kEp));
}

TEST_F(OptimizerTest, PlanTreeRenders) {
  auto plan = PlanMatchingOracle("MATCH (a:Account)-[:W]->(b:Account)");
  ASSERT_NE(plan, nullptr);
  std::string tree = RenderPlanTree(query_, ex_.graph.catalog(), optimizer_->last_outline(), *plan);
  EXPECT_NE(tree.find("SCAN"), std::string::npos);
  EXPECT_NE(tree.find("EXTEND"), std::string::npos);
}

}  // namespace
}  // namespace aplus
