#include <gtest/gtest.h>

#include "baseline/flat_adj_engine.h"
#include "datagen/example_graph.h"
#include "index/index_store.h"
#include "optimizer/dp_optimizer.h"
#include "optimizer/plan_printer.h"
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

  // Reference count: the baseline matcher, the tests' one oracle.
  uint64_t BruteForce(const QueryGraph& query) {
    return FlatAdjEngine(&ex_.graph).CountMatches(query);
  }

  ExampleGraph ex_;
  IndexStore store_;
};

TEST_F(OptimizerTest, SingleEdgeQuery) {
  QueryGraph query;
  int a = query.AddVertex("a", ex_.account_label);
  int b = query.AddVertex("b", ex_.account_label);
  query.AddEdge(a, b, ex_.wire_label);
  DpOptimizer optimizer(&ex_.graph, &store_);
  auto plan = optimizer.Optimize(query);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(RunCount(*plan), BruteForce(query));
}

TEST_F(OptimizerTest, TwoHopMatchesBruteForce) {
  QueryGraph query;
  int c1 = query.AddVertex("c1", ex_.customer_label);
  int a1 = query.AddVertex("a1", ex_.account_label);
  int a2 = query.AddVertex("a2", ex_.account_label);
  query.AddEdge(c1, a1, ex_.owns_label);
  query.AddEdge(a1, a2, ex_.wire_label);
  DpOptimizer optimizer(&ex_.graph, &store_);
  auto plan = optimizer.Optimize(query);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(RunCount(*plan), BruteForce(query));
}

TEST_F(OptimizerTest, LabelledTriangleUsesIntersection) {
  // Example 3 analogue: 3-edge cyclic Wire transfers. Edge labels pin
  // the innermost (neighbour-ID sorted) sublists, enabling the WCOJ
  // intersection.
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, ex_.wire_label);
  query.AddEdge(b, c, ex_.wire_label);
  query.AddEdge(a, c, ex_.wire_label);
  DpOptimizer optimizer(&ex_.graph, &store_);
  auto plan = optimizer.Optimize(query);
  ASSERT_NE(plan, nullptr);
  uint64_t count = RunCount(*plan);
  EXPECT_EQ(count, BruteForce(query));
  EXPECT_GE(count, 1u);  // v1 -t17-> v2 -t8-> v4, v1 -t20-> v4
  // The last extension closes two edges -> must be an intersection.
  EXPECT_TRUE(HasStep(optimizer, StepOutline::Kind::kExtendIntersect));
}

TEST_F(OptimizerTest, UnlabelledTriangleFallsBackToVerify) {
  // Without edge labels the default config's whole-vertex slices span
  // label partitions and are not neighbour-sorted; the optimizer must
  // use the extend+verify fallback and still count correctly.
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b);
  query.AddEdge(b, c);
  query.AddEdge(a, c);
  DpOptimizer optimizer(&ex_.graph, &store_);
  auto plan = optimizer.Optimize(query);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(RunCount(*plan), BruteForce(query));
}

TEST_F(OptimizerTest, PredicatePushedIntoScanAndResiduals) {
  QueryGraph query;
  int a = query.AddVertex("a", ex_.account_label);
  int b = query.AddVertex("b", ex_.account_label);
  query.AddEdge(a, b, ex_.dd_label, "e1");
  QueryComparison amount_pred;
  amount_pred.lhs = QueryPropRef{0, true, ex_.amount_key, false};
  amount_pred.op = CmpOp::kGt;
  amount_pred.rhs_const = Value::Int64(60);
  query.AddPredicate(amount_pred);
  DpOptimizer optimizer(&ex_.graph, &store_);
  auto plan = optimizer.Optimize(query);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(RunCount(*plan), BruteForce(query));
}

TEST_F(OptimizerTest, UsesVpIndexWhenPredicateSubsumes) {
  // Create a VP index on amount > 50; query wants amount > 100.
  OneHopViewDef view;
  view.name = "large";
  view.pred.AddConst(PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false}, CmpOp::kGt,
                     Value::Int64(50));
  store_.CreateVpIndex(view, IndexConfig::Default(), Direction::kFwd);

  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel, ex_.accounts[0]);
  int b = query.AddVertex("b");
  query.AddEdge(a, b, kInvalidLabel, "e1");
  QueryComparison pred;
  pred.lhs = QueryPropRef{0, true, ex_.amount_key, false};
  pred.op = CmpOp::kGt;
  pred.rhs_const = Value::Int64(100);
  query.AddPredicate(pred);

  DpOptimizer optimizer(&ex_.graph, &store_);
  auto plan = optimizer.Optimize(query);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(RunCount(*plan), BruteForce(query));
  // The chosen extend should read the VP index (it is smaller).
  EXPECT_TRUE(ReadsFrom(*plan, ListDescriptor::Source::kVp));
}

TEST_F(OptimizerTest, RejectsVpIndexWhenQueryIsBroader) {
  // Index on amount > 50 must NOT serve a query wanting amount > 10.
  OneHopViewDef view;
  view.name = "large";
  view.pred.AddConst(PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false}, CmpOp::kGt,
                     Value::Int64(50));
  store_.CreateVpIndex(view, IndexConfig::Default(), Direction::kFwd);

  QueryGraph query;
  int a = query.AddVertex("a", kInvalidLabel, ex_.accounts[0]);
  int b = query.AddVertex("b");
  query.AddEdge(a, b, kInvalidLabel, "e1");
  QueryComparison pred;
  pred.lhs = QueryPropRef{0, true, ex_.amount_key, false};
  pred.op = CmpOp::kGt;
  pred.rhs_const = Value::Int64(10);
  query.AddPredicate(pred);

  DpOptimizer optimizer(&ex_.graph, &store_);
  auto plan = optimizer.Optimize(query);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(RunCount(*plan), BruteForce(query));
  EXPECT_FALSE(ReadsFrom(*plan, ListDescriptor::Source::kVp));
}

TEST_F(OptimizerTest, MultiExtendChosenForCityEquality) {
  // MF1-style core: a2, a4 both adjacent to a1 with a2.city = a4.city
  // and city-sorted VP indexes available in both directions.
  IndexConfig city_config = IndexConfig::Default();
  city_config.sorts.clear();
  city_config.sorts.push_back({SortSource::kNbrProp, ex_.city_key});
  OneHopViewDef all;
  all.name = "VPc";
  store_.CreateVpIndex(all, city_config, Direction::kFwd);
  store_.CreateVpIndex(all, city_config, Direction::kBwd);

  QueryGraph query;
  int a1 = query.AddVertex("a1", kInvalidLabel, ex_.accounts[1]);  // v2
  int a2 = query.AddVertex("a2");
  int a4 = query.AddVertex("a4");
  query.AddEdge(a1, a2, ex_.wire_label, "e1");
  query.AddEdge(a1, a4, ex_.dd_label, "e2");
  QueryComparison eq;
  eq.lhs = QueryPropRef{a2, false, ex_.city_key, false};
  eq.op = CmpOp::kEq;
  eq.rhs_is_const = false;
  eq.rhs_ref = QueryPropRef{a4, false, ex_.city_key, false};
  query.AddPredicate(eq);

  DpOptimizer optimizer(&ex_.graph, &store_);
  auto plan = optimizer.Optimize(query);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(RunCount(*plan), BruteForce(query));
  EXPECT_TRUE(HasStep(optimizer, StepOutline::Kind::kMultiExtend));
}

TEST_F(OptimizerTest, MultiExtendKeepsOffsetEqualityResidual) {
  // a2.city = a4.city groups a2 and a4 into a MULTI-EXTEND merge on
  // city; a2.city = a4.city + 1 is not implied by that merge and must
  // stay a residual filter (together the two admit no match).
  IndexConfig city_config = IndexConfig::Default();
  city_config.sorts.clear();
  city_config.sorts.push_back({SortSource::kNbrProp, ex_.city_key});
  OneHopViewDef all;
  all.name = "VPc";
  store_.CreateVpIndex(all, city_config, Direction::kFwd);
  store_.CreateVpIndex(all, city_config, Direction::kBwd);

  QueryGraph query;
  int a1 = query.AddVertex("a1", kInvalidLabel, ex_.accounts[1]);
  int a2 = query.AddVertex("a2");
  int a4 = query.AddVertex("a4");
  query.AddEdge(a1, a2, ex_.wire_label, "e1");
  query.AddEdge(a1, a4, ex_.dd_label, "e2");
  QueryComparison eq;
  eq.lhs = QueryPropRef{a2, false, ex_.city_key, false};
  eq.op = CmpOp::kEq;
  eq.rhs_is_const = false;
  eq.rhs_ref = QueryPropRef{a4, false, ex_.city_key, false};
  query.AddPredicate(eq);
  QueryComparison shifted = eq;
  shifted.rhs_addend = 1;
  query.AddPredicate(shifted);

  DpOptimizer optimizer(&ex_.graph, &store_);
  auto plan = optimizer.Optimize(query);
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(HasStep(optimizer, StepOutline::Kind::kMultiExtend));
  EXPECT_EQ(RunCount(*plan), BruteForce(query))
      << RenderPlanTree(query, ex_.graph.catalog(), optimizer.last_outline(), *plan);
  EXPECT_EQ(RunCount(*plan), 0u);
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

  QueryGraph query;
  int a1 = query.AddVertex("a1", kInvalidLabel, ex_.accounts[1]);  // v2 (src of t13)
  int a2 = query.AddVertex("a2", kInvalidLabel, ex_.accounts[4]);  // v5 (dst of t13)
  int a3 = query.AddVertex("a3");
  query.AddEdge(a1, a2, kInvalidLabel, "r1");
  query.AddEdge(a2, a3, kInvalidLabel, "r2");
  QueryComparison date_pred;
  date_pred.lhs = QueryPropRef{0, true, ex_.date_key, false};
  date_pred.op = CmpOp::kLt;
  date_pred.rhs_is_const = false;
  date_pred.rhs_ref = QueryPropRef{1, true, ex_.date_key, false};
  query.AddPredicate(date_pred);
  QueryComparison amt_pred;
  amt_pred.lhs = QueryPropRef{0, true, ex_.amount_key, false};
  amt_pred.op = CmpOp::kGt;
  amt_pred.rhs_is_const = false;
  amt_pred.rhs_ref = QueryPropRef{1, true, ex_.amount_key, false};
  query.AddPredicate(amt_pred);

  DpOptimizer optimizer(&ex_.graph, &store_);
  auto plan = optimizer.Optimize(query);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(RunCount(*plan), BruteForce(query));
  EXPECT_TRUE(ReadsFrom(*plan, ListDescriptor::Source::kEp));
}

TEST_F(OptimizerTest, PlanTreeRenders) {
  QueryGraph query;
  int a = query.AddVertex("a", ex_.account_label);
  int b = query.AddVertex("b", ex_.account_label);
  query.AddEdge(a, b, ex_.wire_label);
  DpOptimizer optimizer(&ex_.graph, &store_);
  auto plan = optimizer.Optimize(query);
  ASSERT_NE(plan, nullptr);
  std::string tree = RenderPlanTree(query, ex_.graph.catalog(), optimizer.last_outline(), *plan);
  EXPECT_NE(tree.find("SCAN"), std::string::npos);
  EXPECT_NE(tree.find("EXTEND"), std::string::npos);
}

}  // namespace
}  // namespace aplus
