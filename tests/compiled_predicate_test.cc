// Differential test of CompiledPredicate against the Value-based
// Predicate::Eval reference: seeded random graphs and predicates over
// every CmpOp, every PropSite and int64 / double / category / string /
// label / ID operands, with nulls and with addends near the int64 limits,
// through both the whole-binding Eval and the split 2-hop path
// (BindBound + PassesAdjSide + Gather + SelectCross).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"
#include "view/compiled_predicate.h"

namespace aplus {
namespace {

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

enum class Operand { kInt, kDouble, kCategory, kString, kLabel, kId };
constexpr Operand kOperands[] = {Operand::kInt,    Operand::kDouble, Operand::kCategory,
                                 Operand::kString, Operand::kLabel,  Operand::kId};
constexpr PropSite kSites[] = {PropSite::kAdjEdge, PropSite::kNbrVertex, PropSite::kBoundEdge,
                               PropSite::kSrcVertex, PropSite::kDstVertex};
constexpr CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                          CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

const std::vector<int64_t>& IntPool() {
  static const std::vector<int64_t> pool = {kMin, kMin + 1, kMin + 49, -1000, -50, -1, 0, 1,
                                            2,    3,        7,         50,    999, kMax - 49,
                                            kMax - 1, kMax};
  return pool;
}

const std::vector<double>& DoublePool() {
  static const std::vector<double> pool = {-std::numeric_limits<double>::infinity(),
                                           -1e19,
                                           -9.2233720368547758e18,
                                           -2.5,
                                           0.0,
                                           0.5,
                                           1.0,
                                           3.0,
                                           7.0,
                                           9.2233720368547758e18,
                                           1e19,
                                           std::numeric_limits<double>::infinity(),
                                           std::nan("")};
  return pool;
}

const std::vector<std::string>& StringPool() {
  static const std::vector<std::string> pool = {"", "a", "ab", "b", "zz"};
  return pool;
}

const std::vector<int64_t>& AddendPool() {
  static const std::vector<int64_t> pool = {
      1, -1, 50, -50, kMax, kMin, kMax - 1, kMin + 1, int64_t{1} << 62, -(int64_t{1} << 62)};
  return pool;
}

class CompiledPredicateTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kDomain = 4;

  CompiledPredicateTest() : rng_(20260517) {
    Catalog& catalog = graph_.catalog();
    label_t vlabels[2] = {catalog.AddVertexLabel("P"), catalog.AddVertexLabel("Q")};
    label_t elabels[3] = {catalog.AddEdgeLabel("X"), catalog.AddEdgeLabel("Y"),
                          catalog.AddEdgeLabel("Z")};
    vkeys_ = {graph_.AddVertexProperty("vi", ValueType::kInt64),
              graph_.AddVertexProperty("vd", ValueType::kDouble),
              graph_.AddVertexProperty("vc", ValueType::kCategory, kDomain),
              graph_.AddVertexProperty("vs", ValueType::kString)};
    ekeys_ = {graph_.AddEdgeProperty("ei", ValueType::kInt64),
              graph_.AddEdgeProperty("ed", ValueType::kDouble),
              graph_.AddEdgeProperty("ec", ValueType::kCategory, kDomain),
              graph_.AddEdgeProperty("es", ValueType::kString)};
    for (int v = 0; v < 24; ++v) graph_.AddVertex(vlabels[rng_.NextBounded(2)]);
    for (int e = 0; e < 120; ++e) {
      graph_.AddEdge(static_cast<vertex_id_t>(rng_.NextBounded(24)),
                     static_cast<vertex_id_t>(rng_.NextBounded(24)), elabels[rng_.NextBounded(3)]);
    }
    Fill(&graph_.vertex_props(), vkeys_, graph_.num_vertices());
    Fill(&graph_.edge_props(), ekeys_, graph_.num_edges());
  }

  // One in five values stays null.
  void Fill(PropertyStore* store, const std::vector<prop_key_t>& keys, uint64_t n) {
    for (uint64_t id = 0; id < n; ++id) {
      for (int k = 0; k < 4; ++k) {
        if (rng_.NextBounded(5) == 0) continue;
        PropertyColumn* col = store->mutable_column(keys[k]);
        switch (k) {
          case 0:
            col->SetInt64(id, Pick(IntPool()));
            break;
          case 1:
            col->SetDouble(id, Pick(DoublePool()));
            break;
          case 2:
            col->SetCategory(id, static_cast<category_t>(rng_.NextBounded(kDomain)));
            break;
          default:
            col->SetString(id, Pick(StringPool()));
            break;
        }
      }
    }
  }

  template <typename T>
  const T& Pick(const std::vector<T>& pool) {
    return pool[rng_.NextBounded(pool.size())];
  }

  static bool IsVertexSite(PropSite site) {
    return site == PropSite::kNbrVertex || site == PropSite::kSrcVertex ||
           site == PropSite::kDstVertex;
  }

  PropRef Ref(PropSite site, Operand operand) const {
    PropRef ref;
    ref.site = site;
    ref.is_label = operand == Operand::kLabel;
    ref.is_id = operand == Operand::kId;
    if (!ref.is_label && !ref.is_id) {
      const std::vector<prop_key_t>& keys = IsVertexSite(site) ? vkeys_ : ekeys_;
      ref.key = keys[static_cast<int>(operand)];
    }
    return ref;
  }

  // An operand type Value::Compare accepts against `lhs`: strings only
  // compare with strings, every numeric type with every other.
  Operand CompatibleWith(Operand lhs) {
    if (lhs == Operand::kString) return Operand::kString;
    constexpr Operand numeric[] = {Operand::kInt, Operand::kDouble, Operand::kCategory,
                                   Operand::kLabel, Operand::kId};
    return numeric[rng_.NextBounded(5)];
  }

  Value Constant(Operand type) {
    if (rng_.NextBounded(12) == 0) return Value::Null();
    switch (type) {
      case Operand::kInt:
        return Value::Int64(Pick(IntPool()));
      case Operand::kDouble:
        return Value::Double(Pick(DoublePool()));
      case Operand::kCategory:
        return Value::Category(static_cast<int64_t>(rng_.NextBounded(kDomain + 1)));
      case Operand::kString:
        return Value::String(Pick(StringPool()));
      case Operand::kLabel:
      case Operand::kId:
        return Value::Int64(static_cast<int64_t>(rng_.NextBounded(26)) - 1);
    }
    return Value::Null();
  }

  // A random conjunct `lhs op rhs` over (site, type), against a constant
  // or another reference, with an addend on numeric references.
  Comparison RandomConjunct(PropSite site, Operand type, CmpOp op) {
    Comparison cmp;
    cmp.lhs = Ref(site, type);
    cmp.op = op;
    Operand rhs_type = CompatibleWith(type);
    if (rng_.NextBounded(3) == 0) {
      cmp.rhs_is_const = true;
      cmp.rhs_const = Constant(rhs_type);
      return cmp;
    }
    cmp.rhs_is_const = false;
    cmp.rhs_ref = Ref(kSites[rng_.NextBounded(5)], rhs_type);
    if (rhs_type != Operand::kString && rng_.NextBounded(2) == 0) {
      cmp.rhs_addend = Pick(AddendPool());
    }
    return cmp;
  }

  Comparison RandomConjunct() {
    return RandomConjunct(kSites[rng_.NextBounded(5)], kOperands[rng_.NextBounded(6)],
                          kOps[rng_.NextBounded(6)]);
  }

  edge_id_t AnyEdge() { return rng_.NextBounded(graph_.num_edges()); }
  vertex_id_t AnyVertex() { return static_cast<vertex_id_t>(rng_.NextBounded(24)); }

  // Whole-binding evaluation with every site bound independently.
  void ExpectEvalMatches(const Predicate& pred, int bindings) {
    CompiledPredicate compiled(&graph_, pred);
    for (int b = 0; b < bindings; ++b) {
      EvalContext ctx;
      ctx.graph = &graph_;
      ctx.adj_edge = AnyEdge();
      ctx.nbr = AnyVertex();
      ctx.bound_edge = AnyEdge();
      ctx.src = AnyVertex();
      ctx.dst = AnyVertex();
      ASSERT_EQ(compiled.Eval(ctx), pred.Eval(ctx)) << pred.ToString(graph_.catalog());
    }
  }

  // The split 2-hop path: one eb (vs/vd its endpoints) against a batch of
  // (eadj, vnbr) entries, as an EP build evaluates them.
  void ExpectSplitMatches(const Predicate& pred, int ebs, int entries) {
    CompiledPredicate compiled(&graph_, pred);
    std::vector<edge_id_t> eadjs;
    std::vector<vertex_id_t> nbrs;
    for (int i = 0; i < entries; ++i) {
      eadjs.push_back(AnyEdge());
      nbrs.push_back(AnyVertex());
    }
    CompiledPredicate::AdjBatch batch;
    std::vector<int> batch_entry;  // batch position -> entry index
    for (int i = 0; i < entries; ++i) {
      if (!compiled.PassesAdjSide(eadjs[i], nbrs[i])) continue;
      compiled.Gather(eadjs[i], nbrs[i], &batch);
      batch_entry.push_back(i);
    }
    ASSERT_EQ(batch.size, batch_entry.size());
    CompiledPredicate::BoundTerms terms;
    std::vector<uint32_t> sel(batch.size);
    for (int k = 0; k < ebs; ++k) {
      edge_id_t eb = AnyEdge();
      std::vector<bool> got(entries, false);
      if (compiled.BindBound(eb, &terms)) {
        uint32_t n = compiled.SelectCross(terms, batch, sel.data());
        for (uint32_t j = 0; j < n; ++j) {
          if (j > 0) {
            ASSERT_LT(sel[j - 1], sel[j]);
          }
          got[batch_entry[sel[j]]] = true;
        }
      }
      for (int i = 0; i < entries; ++i) {
        EvalContext ctx;
        ctx.graph = &graph_;
        ctx.bound_edge = eb;
        ctx.src = graph_.edge_src(eb);
        ctx.dst = graph_.edge_dst(eb);
        ctx.adj_edge = eadjs[i];
        ctx.nbr = nbrs[i];
        ASSERT_EQ(got[i], pred.Eval(ctx)) << pred.ToString(graph_.catalog());
      }
    }
  }

  Graph graph_;
  Rng rng_;
  std::vector<prop_key_t> vkeys_;
  std::vector<prop_key_t> ekeys_;
};

TEST_F(CompiledPredicateTest, EveryOpSiteAndOperandTypeMatchesEval) {
  for (CmpOp op : kOps) {
    for (PropSite site : kSites) {
      for (Operand type : kOperands) {
        for (int variant = 0; variant < 6; ++variant) {
          Predicate pred;
          pred.Add(RandomConjunct(site, type, op));
          ExpectEvalMatches(pred, 40);
          ExpectSplitMatches(pred, 4, 24);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST_F(CompiledPredicateTest, RandomConjunctionsMatchEval) {
  for (int p = 0; p < 600; ++p) {
    Predicate pred;
    int conjuncts = 1 + static_cast<int>(rng_.NextBounded(4));
    for (int c = 0; c < conjuncts; ++c) pred.Add(RandomConjunct());
    ExpectEvalMatches(pred, 30);
    ExpectSplitMatches(pred, 6, 30);
    if (HasFatalFailure()) return;
  }
}

// Every addend sign and magnitude against every int64 pair of the pool,
// with the reference sum computed exactly in 128 bits.
TEST_F(CompiledPredicateTest, IntegerAddendsCompareAgainstTheExactSum) {
  for (int64_t lhs : IntPool()) {
    for (int64_t rhs : IntPool()) {
      for (int64_t addend : AddendPool()) {
        __int128 sum = static_cast<__int128>(rhs) + addend;
        int three_way = lhs < sum ? -1 : (lhs == sum ? 0 : 1);
        Scalar l;
        l.kind = Scalar::Kind::kInt;
        l.i = lhs;
        Scalar r = l;
        r.i = rhs;
        for (CmpOp op : kOps) {
          bool expected = ApplyCmp(op, three_way);
          ASSERT_EQ(EvalScalars(op, l, r, addend), expected)
              << lhs << " vs " << rhs << "+" << addend;
          ASSERT_EQ(EvalValues(op, Value::Int64(lhs), Value::Int64(rhs), addend), expected);
        }
      }
    }
  }
}

TEST_F(CompiledPredicateTest, TruePredicateAcceptsEverything) {
  Predicate pred;
  CompiledPredicate compiled(&graph_, pred);
  EXPECT_TRUE(compiled.IsTrue());
  ExpectEvalMatches(pred, 10);
  ExpectSplitMatches(pred, 2, 8);
}

}  // namespace
}  // namespace aplus
