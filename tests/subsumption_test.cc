// Tests for the two forms of predicate subsumption the optimizer checks
// (Section IV-A): conjunctive matching and range subsumption.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "view/subsumption.h"

namespace aplus {
namespace {

PropRef Amt() { return PropRef{PropSite::kAdjEdge, 0, false, false}; }
PropRef Date() { return PropRef{PropSite::kAdjEdge, 1, false, false}; }
PropRef EbAmt() { return PropRef{PropSite::kBoundEdge, 0, false, false}; }

Comparison Const(PropRef ref, CmpOp op, int64_t v) {
  Comparison cmp;
  cmp.lhs = ref;
  cmp.op = op;
  cmp.rhs_is_const = true;
  cmp.rhs_const = Value::Int64(v);
  return cmp;
}

Comparison Ref(PropRef lhs, CmpOp op, PropRef rhs, int64_t addend = 0) {
  Comparison cmp;
  cmp.lhs = lhs;
  cmp.op = op;
  cmp.rhs_is_const = false;
  cmp.rhs_ref = rhs;
  cmp.rhs_addend = addend;
  return cmp;
}

TEST(ConjunctImpliesTest, ExactMatch) {
  EXPECT_TRUE(ConjunctImplies(Const(Amt(), CmpOp::kGt, 100), Const(Amt(), CmpOp::kGt, 100)));
}

TEST(ConjunctImpliesTest, PaperRangeExample) {
  // Query eadj.amt > 15000 implies index eadj.amt > 10000 (Section IV-A).
  EXPECT_TRUE(ConjunctImplies(Const(Amt(), CmpOp::kGt, 15000), Const(Amt(), CmpOp::kGt, 10000)));
  // ... but not the other way around.
  EXPECT_FALSE(ConjunctImplies(Const(Amt(), CmpOp::kGt, 10000), Const(Amt(), CmpOp::kGt, 15000)));
}

TEST(ConjunctImpliesTest, MixedOperators) {
  EXPECT_TRUE(ConjunctImplies(Const(Amt(), CmpOp::kGe, 11), Const(Amt(), CmpOp::kGt, 10)));
  EXPECT_FALSE(ConjunctImplies(Const(Amt(), CmpOp::kGe, 10), Const(Amt(), CmpOp::kGt, 10)));
  EXPECT_TRUE(ConjunctImplies(Const(Amt(), CmpOp::kLt, 5), Const(Amt(), CmpOp::kLe, 5)));
  EXPECT_TRUE(ConjunctImplies(Const(Amt(), CmpOp::kEq, 7), Const(Amt(), CmpOp::kLt, 10)));
  EXPECT_TRUE(ConjunctImplies(Const(Amt(), CmpOp::kEq, 7), Const(Amt(), CmpOp::kGe, 7)));
  EXPECT_FALSE(ConjunctImplies(Const(Amt(), CmpOp::kEq, 17), Const(Amt(), CmpOp::kLt, 10)));
  EXPECT_TRUE(ConjunctImplies(Const(Amt(), CmpOp::kEq, 3), Const(Amt(), CmpOp::kNe, 10)));
  EXPECT_TRUE(ConjunctImplies(Const(Amt(), CmpOp::kLt, 10), Const(Amt(), CmpOp::kNe, 10)));
}

TEST(ConjunctImpliesTest, DifferentPropertiesNeverImply) {
  EXPECT_FALSE(ConjunctImplies(Const(Amt(), CmpOp::kGt, 100), Const(Date(), CmpOp::kGt, 1)));
}

TEST(ConjunctImpliesTest, RefVsRefExactAndFlipped) {
  Comparison q = Ref(EbAmt(), CmpOp::kGt, Amt());   // eb.amt > eadj.amt
  Comparison i1 = Ref(EbAmt(), CmpOp::kGt, Amt());  // same
  Comparison i2 = Ref(Amt(), CmpOp::kLt, EbAmt());  // flipped spelling
  EXPECT_TRUE(ConjunctImplies(q, i1));
  EXPECT_TRUE(ConjunctImplies(q, i2));
}

TEST(ConjunctImpliesTest, AddendRange) {
  // eadj.amt < eb.amt + 100 implies eadj.amt < eb.amt + 500.
  Comparison tight = Ref(Amt(), CmpOp::kLt, EbAmt(), 100);
  Comparison loose = Ref(Amt(), CmpOp::kLt, EbAmt(), 500);
  EXPECT_TRUE(ConjunctImplies(tight, loose));
  EXPECT_FALSE(ConjunctImplies(loose, tight));
}

TEST(PredicateSubsumesTest, EmptyIndexPredicateAlwaysSubsumes) {
  Predicate index;
  Predicate query;
  query.Add(Const(Amt(), CmpOp::kGt, 5));
  Predicate residual;
  EXPECT_TRUE(PredicateSubsumes(index, query, &residual));
  EXPECT_EQ(residual.conjuncts().size(), 1u);  // nothing covered
}

TEST(PredicateSubsumesTest, CoveredConjunctsDropFromResidual) {
  Predicate index;
  index.Add(Const(Amt(), CmpOp::kGt, 100));
  Predicate query;
  query.Add(Const(Amt(), CmpOp::kGt, 100));  // exactly guaranteed
  query.Add(Const(Date(), CmpOp::kLt, 50));  // extra
  Predicate residual;
  EXPECT_TRUE(PredicateSubsumes(index, query, &residual));
  ASSERT_EQ(residual.conjuncts().size(), 1u);
  EXPECT_EQ(residual.conjuncts()[0].lhs.key, Date().key);
}

TEST(PredicateSubsumesTest, StricterQueryKeepsResidual) {
  Predicate index;
  index.Add(Const(Amt(), CmpOp::kGt, 10000));
  Predicate query;
  query.Add(Const(Amt(), CmpOp::kGt, 15000));
  Predicate residual;
  EXPECT_TRUE(PredicateSubsumes(index, query, &residual));
  // The index guarantees > 10000 but not > 15000: the query conjunct
  // must be re-checked.
  ASSERT_EQ(residual.conjuncts().size(), 1u);
}

TEST(PredicateSubsumesTest, FailsWhenIndexIsMoreSelective) {
  Predicate index;
  index.Add(Const(Amt(), CmpOp::kGt, 100));
  Predicate query;  // query wants ALL edges
  EXPECT_FALSE(PredicateSubsumes(index, query, nullptr));
}

TEST(PredicateSubsumesTest, MultiConjunctIndex) {
  Predicate index;
  index.Add(Const(Amt(), CmpOp::kGt, 10));
  index.Add(Const(Date(), CmpOp::kLt, 100));
  Predicate query;
  query.Add(Const(Amt(), CmpOp::kGt, 20));
  query.Add(Const(Date(), CmpOp::kLt, 100));
  EXPECT_TRUE(PredicateSubsumes(index, query, nullptr));
  // Remove one query conjunct -> index conjunct unsupported -> fail.
  Predicate query2;
  query2.Add(Const(Amt(), CmpOp::kGt, 20));
  EXPECT_FALSE(PredicateSubsumes(index, query2, nullptr));
}

// Exhaustive soundness over a small domain. A wrong "implies" lets the
// optimizer serve a query step from an index that lacks edges the
// query wants: a silent wrong answer. So every implication the checker
// claims is tested against EvalValues, the evaluator filters run, on
// every assignment of the two properties X = eadj.amt and Y = eb.amt.
// Null constants are not swept: a $param conjunct (the one source of a
// null constant) never reaches subsumption (DpOptimizer skips it).

Comparison ConstValue(PropRef ref, CmpOp op, Value v) {
  Comparison cmp = Const(ref, op, 0);
  cmp.rhs_const = std::move(v);
  return cmp;
}

constexpr CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                             CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

// The values X and Y take: both int64 extremes, null, and ints and
// doubles on a half-step grid that brackets every swept constant.
std::vector<Value> Assignments() {
  std::vector<Value> values = {Value::Int64(INT64_MIN), Value::Int64(INT64_MAX), Value::Null()};
  for (int i = -3; i <= 3; ++i) values.push_back(Value::Int64(i));
  for (int h = -7; h <= 7; ++h) values.push_back(Value::Double(h / 2.0));
  return values;
}

// `cmp` with X and Y read from `x` and `y`.
bool Eval(const Comparison& cmp, const Value& x, const Value& y) {
  const Value& lhs = cmp.lhs == Amt() ? x : y;
  if (cmp.rhs_is_const) return EvalValues(cmp.op, lhs, cmp.rhs_const, 0);
  return EvalValues(cmp.op, lhs, cmp.rhs_ref == Amt() ? x : y, cmp.rhs_addend);
}

bool Eval(const Predicate& pred, const Value& x, const Value& y) {
  for (const Comparison& cmp : pred.conjuncts()) {
    if (!Eval(cmp, x, y)) return false;
  }
  return true;
}

std::string Show(const Comparison& cmp) {
  auto name = [](const PropRef& ref) { return ref == Amt() ? "X" : "Y"; };
  std::string out = std::string(name(cmp.lhs)) + " " + ToString(cmp.op) + " ";
  if (cmp.rhs_is_const) return out + cmp.rhs_const.ToString();
  return out + name(cmp.rhs_ref) + " + " + std::to_string(cmp.rhs_addend);
}

std::string Show(const Value& x, const Value& y) {
  return "X=" + x.ToString() + " Y=" + y.ToString();
}

TEST(SubsumptionSoundnessTest, ConjunctImpliesHoldsOnEveryAssignment) {
  std::vector<Value> constants = {Value::Int64(INT64_MIN), Value::Int64(INT64_MAX)};
  for (int i = -2; i <= 2; ++i) constants.push_back(Value::Int64(i));
  for (int h = -4; h <= 4; ++h) constants.push_back(Value::Double(h / 2.0));
  const int64_t addends[] = {-2, -1, 0, 1, 2, INT64_MAX, -INT64_MAX};

  std::vector<Comparison> conjuncts;
  for (CmpOp op : kAllOps) {
    for (PropRef ref : {Amt(), EbAmt()}) {
      for (const Value& c : constants) conjuncts.push_back(ConstValue(ref, op, c));
    }
    // Ref-vs-ref in both spellings: X op Y + a and Y op X + a.
    for (int64_t a : addends) {
      conjuncts.push_back(Ref(Amt(), op, EbAmt(), a));
      conjuncts.push_back(Ref(EbAmt(), op, Amt(), a));
    }
  }
  const std::vector<Value> values = Assignments();
  int implications = 0;
  for (const Comparison& q : conjuncts) {
    EXPECT_TRUE(ConjunctImplies(q, q)) << Show(q);
    for (const Comparison& i : conjuncts) {
      if (!ConjunctImplies(q, i)) continue;
      ++implications;
      for (const Value& x : values) {
        for (const Value& y : values) {
          if (Eval(q, x, y) && !Eval(i, x, y)) {
            ADD_FAILURE() << Show(q) << " claimed to imply " << Show(i) << ", but "
                          << Show(x, y) << " satisfies only the first";
          }
        }
      }
    }
  }
  std::printf("%zu conjuncts, %d implications checked on %zu assignments each\n",
              conjuncts.size(), implications, values.size() * values.size());
}

TEST(SubsumptionSoundnessTest, QueryEqualsIndexAndResidualOnTwoConjunctPredicates) {
  // When PredicateSubsumes accepts, the index lists plus the residual
  // filter must keep exactly the edges the query keeps.
  std::vector<Comparison> conjuncts;
  for (CmpOp op : kAllOps) {
    for (int c = -1; c <= 1; ++c) conjuncts.push_back(Const(Amt(), op, c));
    conjuncts.push_back(Ref(Amt(), op, EbAmt(), 0));
    conjuncts.push_back(Ref(Amt(), op, EbAmt(), 1));
    conjuncts.push_back(Ref(EbAmt(), op, Amt(), 0));
  }
  std::vector<Predicate> preds;
  for (size_t a = 0; a < conjuncts.size(); ++a) {
    for (size_t b = a; b < conjuncts.size(); ++b) {
      Predicate pred;
      pred.Add(conjuncts[a]).Add(conjuncts[b]);
      preds.push_back(std::move(pred));
    }
  }
  std::vector<Value> values = {Value::Double(-0.5), Value::Double(0.5), Value::Null()};
  for (int i = -2; i <= 2; ++i) values.push_back(Value::Int64(i));
  int accepted = 0;
  Predicate residual;
  for (const Predicate& index : preds) {
    for (const Predicate& query : preds) {
      if (!PredicateSubsumes(index, query, &residual)) continue;
      ++accepted;
      for (const Value& x : values) {
        for (const Value& y : values) {
          const bool want = Eval(query, x, y);
          if (want != (Eval(index, x, y) && Eval(residual, x, y))) {
            ADD_FAILURE() << "index {" << Show(index.conjuncts()[0]) << ", "
                          << Show(index.conjuncts()[1]) << "} for query {"
                          << Show(query.conjuncts()[0]) << ", " << Show(query.conjuncts()[1])
                          << "} with " << residual.conjuncts().size()
                          << " residual conjuncts disagrees at " << Show(x, y);
          }
        }
      }
    }
  }
  EXPECT_GE(accepted, static_cast<int>(preds.size()));  // every predicate subsumes itself
  std::printf("%zu predicates, %d accepted (index, query) pairs\n", preds.size(), accepted);
}

}  // namespace
}  // namespace aplus
