// Partial materialization of 2-hop views under a memory budget — the
// future-work extension of Section III-B2: "a system should resort to
// partial materialization of these views to reduce the memory
// consumption under user-specified levels."

#include <gtest/gtest.h>

#include <set>

#include "core/database.h"
#include "datagen/financial_props.h"
#include "datagen/power_law_generator.h"
#include "test_threads.h"

namespace aplus {
namespace {

class PartialEpTest : public ::testing::Test {
 protected:
  PartialEpTest() {
    Graph graph;
    PowerLawParams params;
    params.num_vertices = 1200;
    params.avg_degree = 8.0;
    params.seed = 5;
    GeneratePowerLawGraph(params, &graph);
    keys_ = AddFinancialProperties(6, &graph, 25);
    db_ = std::make_unique<Database>(std::move(graph));
    db_->BuildPrimaryIndexes();
  }

  Predicate FlowPred() const {
    Predicate pred;
    pred.AddRef(PropRef{PropSite::kBoundEdge, keys_.date, false, false}, CmpOp::kLt,
                PropRef{PropSite::kAdjEdge, keys_.date, false, false});
    pred.AddRef(PropRef{PropSite::kBoundEdge, keys_.amount, false, false}, CmpOp::kGt,
                PropRef{PropSite::kAdjEdge, keys_.amount, false, false});
    return pred;
  }

  QueryGraph FlowQuery() const {
    QueryGraph q;
    label_t elabel = db_->graph().catalog().FindEdgeLabel("E");
    int a1 = q.AddVertex("a1");
    int a2 = q.AddVertex("a2");
    int a3 = q.AddVertex("a3");
    q.AddEdge(a1, a2, elabel, "e1");
    q.AddEdge(a2, a3, elabel, "e2");
    QueryComparison date;
    date.lhs = QueryPropRef{0, true, keys_.date, false};
    date.op = CmpOp::kLt;
    date.rhs_is_const = false;
    date.rhs_ref = QueryPropRef{1, true, keys_.date, false};
    q.AddPredicate(date);
    QueryComparison amt;
    amt.lhs = QueryPropRef{0, true, keys_.amount, false};
    amt.op = CmpOp::kGt;
    amt.rhs_is_const = false;
    amt.rhs_ref = QueryPropRef{1, true, keys_.amount, false};
    q.AddPredicate(amt);
    QueryComparison bound;
    bound.lhs = QueryPropRef{0, false, kInvalidPropKey, true};
    bound.op = CmpOp::kLt;
    bound.rhs_const = Value::Int64(300);
    q.AddPredicate(bound);
    return q;
  }

  FinancialPropKeys keys_;
  std::unique_ptr<Database> db_;
};

TEST_F(PartialEpTest, BudgetLimitsMaterializedBytes) {
  EpIndex* full = db_->CreateEpIndex("full", EpKind::kDstFwd, FlowPred(), IndexConfig::Default());
  size_t full_bytes = full->MemoryBytes();
  ASSERT_GT(full_bytes, 40000u);
  EXPECT_TRUE(full->fully_materialized());

  size_t budget = full_bytes / 4;
  EpIndex* partial = db_->CreateEpIndex("partial", EpKind::kDstFwd, FlowPred(),
                                        IndexConfig::Default(), nullptr, budget);
  EXPECT_FALSE(partial->fully_materialized());
  // One page of slack is allowed (the budget check runs after each page).
  EXPECT_LT(partial->MemoryBytes(), budget + budget / 2);
  // Some prefix is materialized, some suffix is not.
  EXPECT_TRUE(partial->IsMaterialized(0));
  EXPECT_FALSE(partial->IsMaterialized(db_->graph().num_edges() - 1));
}

TEST_F(PartialEpTest, RuntimeFallbackMatchesMaterializedLists) {
  EpIndex* full = db_->CreateEpIndex("full", EpKind::kDstFwd, FlowPred(), IndexConfig::Default());
  EpIndex* partial = db_->CreateEpIndex("partial", EpKind::kDstFwd, FlowPred(),
                                        IndexConfig::Default(), nullptr,
                                        full->MemoryBytes() / 5);
  ASSERT_FALSE(partial->fully_materialized());
  for (edge_id_t eb = 0; eb < db_->graph().num_edges(); eb += 17) {
    std::set<edge_id_t> expected;
    AdjListSlice slice = full->GetFullList(eb);
    for (uint32_t i = 0; i < slice.size(); ++i) expected.insert(slice.EdgeAt(i));
    std::set<edge_id_t> got;
    if (partial->IsMaterialized(eb)) {
      AdjListSlice pslice = partial->GetFullList(eb);
      for (uint32_t i = 0; i < pslice.size(); ++i) got.insert(pslice.EdgeAt(i));
    } else {
      partial->ForEachRuntime(eb, [&](uint32_t, edge_id_t eadj, vertex_id_t) {
        got.insert(eadj);
      });
    }
    EXPECT_EQ(got, expected) << "eb=" << eb;
  }
}

TEST_F(PartialEpTest, QueriesCountIdenticallyUnderBudget) {
  QueryGraph query = FlowQuery();
  uint64_t base = db_->Execute(query, TestThreads()).count;

  // Full EP index: counts unchanged, EP plan used.
  db_->CreateEpIndex("full", EpKind::kDstFwd, FlowPred(), IndexConfig::Default());
  EXPECT_EQ(db_->Execute(query, TestThreads()).count, base);
  db_->index_store().DropSecondaryIndexes();

  // Partial EP index at a small budget: the ExtendOp fallback must keep
  // the counts identical.
  EpIndex* partial = db_->CreateEpIndex("partial", EpKind::kDstFwd, FlowPred(),
                                        IndexConfig::Default(), nullptr, 4096);
  ASSERT_FALSE(partial->fully_materialized());
  EXPECT_EQ(db_->Execute(query, TestThreads()).count, base);
}

TEST_F(PartialEpTest, PartialIndexExcludedFromSortedIntersections) {
  IndexConfig city_sorted;
  city_sorted.partitions.push_back({PartitionSource::kEdgeLabel, kInvalidPropKey});
  city_sorted.sorts.push_back({SortSource::kNbrProp, keys_.city});
  EpIndex* partial = db_->CreateEpIndex("partial", EpKind::kDstFwd, FlowPred(), city_sorted,
                                        nullptr, 4096);
  ASSERT_FALSE(partial->fully_materialized());
  // The query still answers correctly (through whatever plan wins);
  // partial EP lists must never be handed to sorted operators.
  QueryGraph query = FlowQuery();
  QueryComparison city_eq;
  city_eq.lhs = QueryPropRef{0, false, keys_.city, false};
  city_eq.op = CmpOp::kEq;
  city_eq.rhs_is_const = false;
  city_eq.rhs_ref = QueryPropRef{2, false, keys_.city, false};
  query.AddPredicate(city_eq);
  uint64_t with_partial = db_->Execute(query, TestThreads()).count;
  db_->index_store().DropSecondaryIndexes();
  EXPECT_EQ(db_->Execute(query, TestThreads()).count, with_partial);
}

}  // namespace
}  // namespace aplus
