#include <gtest/gtest.h>

#include <limits>

#include "datagen/example_graph.h"
#include "view/predicate.h"

namespace aplus {
namespace {

class PredicateTest : public ::testing::Test {
 protected:
  PredicateTest() : ex_(BuildExampleGraph()) {}

  EvalContext Ctx(edge_id_t adj, vertex_id_t nbr) const {
    EvalContext ctx;
    ctx.graph = &ex_.graph;
    ctx.adj_edge = adj;
    ctx.nbr = nbr;
    ctx.src = ex_.graph.edge_src(adj);
    ctx.dst = ex_.graph.edge_dst(adj);
    return ctx;
  }

  ExampleGraph ex_;
};

TEST_F(PredicateTest, ConstComparisonOnEdgeProp) {
  Predicate pred;
  pred.AddConst(PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false}, CmpOp::kGt,
                Value::Int64(100));
  // t4 has amount 200, t19 has amount 5.
  EXPECT_TRUE(pred.Eval(Ctx(ex_.transfers[3], ex_.graph.edge_dst(ex_.transfers[3]))));
  EXPECT_FALSE(pred.Eval(Ctx(ex_.transfers[18], ex_.graph.edge_dst(ex_.transfers[18]))));
}

TEST_F(PredicateTest, CategoryEquality) {
  Predicate pred;
  pred.AddConst(PropRef{PropSite::kAdjEdge, ex_.currency_key, false, false}, CmpOp::kEq,
                Value::Category(kCurrencyEur));
  EXPECT_TRUE(pred.Eval(Ctx(ex_.transfers[3], 0)));    // t4 EUR
  EXPECT_FALSE(pred.Eval(Ctx(ex_.transfers[0], 0)));   // t1 USD
}

TEST_F(PredicateTest, LabelPseudoProperty) {
  Predicate pred;
  PropRef label_ref;
  label_ref.site = PropSite::kAdjEdge;
  label_ref.is_label = true;
  pred.AddConst(label_ref, CmpOp::kEq, Value::Int64(ex_.wire_label));
  EXPECT_TRUE(pred.Eval(Ctx(ex_.transfers[3], 0)));   // t4 is Wire
  EXPECT_FALSE(pred.Eval(Ctx(ex_.transfers[0], 0)));  // t1 is DD
}

TEST_F(PredicateTest, VertexIdPseudoProperty) {
  Predicate pred;
  PropRef id_ref;
  id_ref.site = PropSite::kNbrVertex;
  id_ref.is_id = true;
  pred.AddConst(id_ref, CmpOp::kLt, Value::Int64(2));
  EXPECT_TRUE(pred.Eval(Ctx(ex_.transfers[0], 1)));
  EXPECT_FALSE(pred.Eval(Ctx(ex_.transfers[0], 5)));
}

TEST_F(PredicateTest, CrossEdgeComparisonWithAddend) {
  // eadj.amt < eb.amt + 50
  Predicate pred;
  pred.AddRef(PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false}, CmpOp::kLt,
              PropRef{PropSite::kBoundEdge, ex_.amount_key, false, false}, 50);
  EvalContext ctx = Ctx(ex_.transfers[18], 0);  // eadj = t19, amount 5
  ctx.bound_edge = ex_.transfers[12];           // eb = t13, amount 10
  EXPECT_TRUE(pred.Eval(ctx));                  // 5 < 10 + 50
  ctx.bound_edge = ex_.transfers[18];
  ctx.adj_edge = ex_.transfers[3];  // 200 < 5 + 50 is false
  EXPECT_FALSE(pred.Eval(ctx));
}

TEST_F(PredicateTest, CrossEdgeDetection) {
  Predicate pred;
  pred.AddRef(PropRef{PropSite::kBoundEdge, ex_.date_key, false, false}, CmpOp::kLt,
              PropRef{PropSite::kAdjEdge, ex_.date_key, false, false});
  EXPECT_TRUE(pred.HasCrossEdgeConjunct());

  Predicate single;
  single.AddConst(PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false}, CmpOp::kLt,
                  Value::Int64(100));
  EXPECT_FALSE(single.HasCrossEdgeConjunct());
}

TEST_F(PredicateTest, NullComparesFalse) {
  // Customer vertices have no acc property -> predicate false.
  Predicate pred;
  pred.AddConst(PropRef{PropSite::kNbrVertex, ex_.acc_key, false, false}, CmpOp::kEq,
                Value::Category(0));
  EvalContext ctx = Ctx(ex_.owns[0], ex_.customers[0]);
  EXPECT_FALSE(pred.Eval(ctx));
}

TEST_F(PredicateTest, EmptyPredicateIsTrue) {
  Predicate pred;
  EXPECT_TRUE(pred.IsTrue());
  EXPECT_TRUE(pred.Eval(Ctx(ex_.transfers[0], 0)));
}

TEST_F(PredicateTest, ToStringRendersKeywords) {
  Predicate pred;
  pred.AddConst(PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false}, CmpOp::kGt,
                Value::Int64(10000));
  std::string text = pred.ToString(ex_.graph.catalog());
  EXPECT_NE(text.find("eadj.amount"), std::string::npos);
  EXPECT_NE(text.find(">"), std::string::npos);
}

TEST_F(PredicateTest, AddendOverflowComparesAgainstTheExactSum) {
  // eb = t13 (amount 10), eadj = t19 (amount 5). A sum past INT64_MAX
  // exceeds every int64 and one below INT64_MIN undercuts every int64;
  // a wrapped sum would flip each answer below.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const PropRef adj{PropSite::kAdjEdge, ex_.amount_key, false, false};
  const PropRef bound{PropSite::kBoundEdge, ex_.amount_key, false, false};
  EvalContext ctx = Ctx(ex_.transfers[18], 0);
  ctx.bound_edge = ex_.transfers[12];
  auto eval = [&ctx](const PropRef& lhs, CmpOp op, const PropRef& rhs, int64_t addend) {
    Predicate pred;
    pred.AddRef(lhs, op, rhs, addend);
    return pred.Eval(ctx);
  };
  EXPECT_TRUE(eval(adj, CmpOp::kLt, bound, kMax));     // 5 < 10 + MAX
  EXPECT_TRUE(eval(adj, CmpOp::kLe, bound, kMax));
  EXPECT_FALSE(eval(adj, CmpOp::kGt, bound, kMax));
  EXPECT_FALSE(eval(adj, CmpOp::kEq, bound, kMax));
  EXPECT_TRUE(eval(adj, CmpOp::kNe, bound, kMax));
  EXPECT_TRUE(eval(bound, CmpOp::kLt, adj, kMax - 1));  // 10 < 5 + MAX - 1
  EXPECT_TRUE(eval(adj, CmpOp::kGt, bound, kMin));     // no overflow: 5 > 10 + MIN
  EXPECT_FALSE(eval(adj, CmpOp::kLt, bound, kMin));

  // Negative overflow needs a negative rhs: -3 + MIN < every int64.
  EXPECT_TRUE(EvalValues(CmpOp::kGt, Value::Int64(kMin), Value::Int64(-3), kMin));
  EXPECT_TRUE(EvalValues(CmpOp::kGe, Value::Int64(0), Value::Int64(-3), kMin));
  EXPECT_FALSE(EvalValues(CmpOp::kLe, Value::Int64(kMin), Value::Int64(-1), kMin));
  EXPECT_FALSE(EvalValues(CmpOp::kEq, Value::Int64(kMax), Value::Int64(kMax), 1));
  EXPECT_TRUE(EvalValues(CmpOp::kLt, Value::Int64(kMax), Value::Int64(kMax), 1));
  // The exact sum when it fits; doubles add in double.
  EXPECT_TRUE(EvalValues(CmpOp::kEq, Value::Int64(kMax), Value::Int64(kMax - 50), 50));
  EXPECT_TRUE(EvalValues(CmpOp::kEq, Value::Int64(kMin), Value::Int64(kMin + 50), -50));
  EXPECT_TRUE(EvalValues(CmpOp::kLt, Value::Double(1.5), Value::Double(1.0), 1));
  EXPECT_FALSE(EvalValues(CmpOp::kLt, Value::Null(), Value::Int64(0), kMax));
  EXPECT_FALSE(EvalValues(CmpOp::kLt, Value::Int64(0), Value::Null(), kMax));
}

TEST(CmpOpTest, FlipIsInvolutionCompatible) {
  EXPECT_EQ(Flip(CmpOp::kLt), CmpOp::kGt);
  EXPECT_EQ(Flip(CmpOp::kGe), CmpOp::kLe);
  EXPECT_EQ(Flip(CmpOp::kEq), CmpOp::kEq);
  EXPECT_EQ(Flip(Flip(CmpOp::kLe)), CmpOp::kLe);
}

TEST(ApplyCmpTest, AllOperators) {
  EXPECT_TRUE(ApplyCmp(CmpOp::kEq, 0));
  EXPECT_FALSE(ApplyCmp(CmpOp::kEq, 1));
  EXPECT_TRUE(ApplyCmp(CmpOp::kNe, -1));
  EXPECT_TRUE(ApplyCmp(CmpOp::kLt, -1));
  EXPECT_TRUE(ApplyCmp(CmpOp::kLe, 0));
  EXPECT_TRUE(ApplyCmp(CmpOp::kGt, 1));
  EXPECT_TRUE(ApplyCmp(CmpOp::kGe, 0));
  EXPECT_FALSE(ApplyCmp(CmpOp::kGe, -1));
}

}  // namespace
}  // namespace aplus
