// End-to-end tests on generated datasets: every query is evaluated under
// several index configurations (the paper's D / Ds / Dp / D+VPc /
// D+VPc+EPc) and against the baseline engines; all must agree on counts.

#include <gtest/gtest.h>

#include "baseline/flat_adj_engine.h"
#include "baseline/linked_list_engine.h"
#include "core/database.h"
#include "datagen/financial_props.h"
#include "datagen/label_assigner.h"
#include "datagen/power_law_generator.h"
#include "test_threads.h"

namespace aplus {
namespace {

Graph MakeLabelledGraph(uint32_t vlabels, uint32_t elabels) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 1500;
  params.avg_degree = 5.0;
  params.seed = 31;
  GeneratePowerLawGraph(params, &graph);
  AssignRandomLabels(vlabels, elabels, 32, &graph);
  return graph;
}

TEST(IntegrationTest, ConfigsAgreeOnLabelledSubgraphQueries) {
  Graph graph = MakeLabelledGraph(3, 2);
  label_t vl0 = graph.catalog().FindVertexLabel("VL0");
  label_t vl1 = graph.catalog().FindVertexLabel("VL1");
  label_t el0 = graph.catalog().FindEdgeLabel("EL0");
  label_t el1 = graph.catalog().FindEdgeLabel("EL1");
  Database db(std::move(graph));

  // Three queries: labelled path, triangle, diamond-ish.
  std::vector<QueryGraph> queries;
  {
    QueryGraph q;
    int a = q.AddVertex("a", vl0);
    int b = q.AddVertex("b", vl1);
    int c = q.AddVertex("c", vl0);
    q.AddEdge(a, b, el0);
    q.AddEdge(b, c, el1);
    queries.push_back(std::move(q));
  }
  {
    QueryGraph q;
    int a = q.AddVertex("a", vl0);
    int b = q.AddVertex("b");
    int c = q.AddVertex("c");
    q.AddEdge(a, b, el0);
    q.AddEdge(b, c, el0);
    q.AddEdge(a, c, el1);
    queries.push_back(std::move(q));
  }
  {
    QueryGraph q;
    int a = q.AddVertex("a");
    int b = q.AddVertex("b", vl1);
    int c = q.AddVertex("c", vl1);
    int d = q.AddVertex("d");
    q.AddEdge(a, b, el0);
    q.AddEdge(a, c, el0);
    q.AddEdge(b, d, el1);
    q.AddEdge(c, d, el1);
    queries.push_back(std::move(q));
  }

  // Config D.
  db.BuildPrimaryIndexes(IndexConfig::Default());
  std::vector<uint64_t> counts_d;
  for (const QueryGraph& q : queries) counts_d.push_back(db.Execute(q, TestThreads()).count);

  // Config Ds: sort by neighbour label then ID.
  IndexConfig ds = IndexConfig::Default();
  ds.sorts.clear();
  ds.sorts.push_back({SortSource::kNbrLabel, kInvalidPropKey});
  ds.sorts.push_back({SortSource::kNbrId, kInvalidPropKey});
  db.BuildPrimaryIndexes(ds);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(db.Execute(queries[i], TestThreads()).count, counts_d[i]) << "Ds query " << i;
  }

  // Config Dp: add neighbour-label partitioning.
  IndexConfig dp = IndexConfig::Default();
  dp.partitions.push_back({PartitionSource::kNbrLabel, kInvalidPropKey});
  db.BuildPrimaryIndexes(dp);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(db.Execute(queries[i], TestThreads()).count, counts_d[i]) << "Dp query " << i;
  }

  // Baselines agree too (built over the moved-into graph).
  LinkedListEngine ll(&db.graph());
  FlatAdjEngine flat(&db.graph());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(ll.CountMatches(queries[i]), counts_d[i]) << "neo4j-like query " << i;
    EXPECT_EQ(flat.CountMatches(queries[i]), counts_d[i]) << "tigergraph-like query " << i;
  }
}

TEST(IntegrationTest, FraudConfigsAgree) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 1000;
  params.avg_degree = 6.0;
  params.seed = 77;
  GeneratePowerLawGraph(params, &graph);
  FinancialPropKeys keys = AddFinancialProperties(78, &graph, 15);
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();

  // MF1-style square with city equality: a1->a2, a1<-a4 (BW), a2->a3,
  // a4<-a3 with a2.city = a4.city.
  QueryGraph q;
  int a1 = q.AddVertex("a1");
  int a2 = q.AddVertex("a2");
  int a3 = q.AddVertex("a3");
  int a4 = q.AddVertex("a4");
  q.AddEdge(a1, a2, kInvalidLabel, "e1");
  q.AddEdge(a2, a3, kInvalidLabel, "e2");
  q.AddEdge(a3, a4, kInvalidLabel, "e3");
  q.AddEdge(a4, a1, kInvalidLabel, "e4");
  QueryComparison eq;
  eq.lhs = QueryPropRef{a2, false, keys.city, false};
  eq.op = CmpOp::kEq;
  eq.rhs_is_const = false;
  eq.rhs_ref = QueryPropRef{a4, false, keys.city, false};
  q.AddPredicate(eq);
  // Restrict a1 to keep runtime small.
  QueryComparison a1_small;
  a1_small.lhs = QueryPropRef{a1, false, kInvalidPropKey, true};
  a1_small.op = CmpOp::kLt;
  a1_small.rhs_const = Value::Int64(50);
  q.AddPredicate(a1_small);

  uint64_t base = db.Execute(q, TestThreads()).count;

  // Add VPc (city-sorted, both directions): counts must not change.
  IndexConfig city_config = IndexConfig::Default();
  city_config.sorts.clear();
  city_config.sorts.push_back({SortSource::kNbrProp, keys.city});
  db.CreateVpIndex("VPc", Predicate(), city_config, Direction::kFwd);
  db.CreateVpIndex("VPc", Predicate(), city_config, Direction::kBwd);
  EXPECT_EQ(db.Execute(q, TestThreads()).count, base);

  LinkedListEngine ll(&db.graph());
  EXPECT_EQ(ll.CountMatches(q), base);
}

TEST(IntegrationTest, MoneyFlowWithEpIndexAgrees) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 600;
  params.avg_degree = 6.0;
  // Uniform endpoints keep the EP lists shorter than the primary ones,
  // so the optimizer extends a2->a3 through the EP index.
  params.preferential_fraction = 0.0;
  params.seed = 99;
  GeneratePowerLawGraph(params, &graph);
  FinancialPropKeys keys = AddFinancialProperties(11, &graph, 10);
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();

  // 3-step flow: a1->a2->a3 with Pf(e1,e2), a1 restricted.
  QueryGraph q;
  int a1 = q.AddVertex("a1");
  int a2 = q.AddVertex("a2");
  int a3 = q.AddVertex("a3");
  q.AddEdge(a1, a2, kInvalidLabel, "e1");
  q.AddEdge(a2, a3, kInvalidLabel, "e2");
  QueryComparison date_pred;
  date_pred.lhs = QueryPropRef{0, true, keys.date, false};
  date_pred.op = CmpOp::kLt;
  date_pred.rhs_is_const = false;
  date_pred.rhs_ref = QueryPropRef{1, true, keys.date, false};
  q.AddPredicate(date_pred);
  QueryComparison amt_pred;
  amt_pred.lhs = QueryPropRef{0, true, keys.amount, false};
  amt_pred.op = CmpOp::kGt;
  amt_pred.rhs_is_const = false;
  amt_pred.rhs_ref = QueryPropRef{1, true, keys.amount, false};
  q.AddPredicate(amt_pred);
  QueryComparison a1_small;
  a1_small.lhs = QueryPropRef{a1, false, kInvalidPropKey, true};
  a1_small.op = CmpOp::kLt;
  a1_small.rhs_const = Value::Int64(100);
  q.AddPredicate(a1_small);

  uint64_t base = db.Execute(q, TestThreads()).count;
  EXPECT_GT(base, 0u);

  Predicate flow;
  flow.AddRef(PropRef{PropSite::kBoundEdge, keys.date, false, false}, CmpOp::kLt,
              PropRef{PropSite::kAdjEdge, keys.date, false, false});
  flow.AddRef(PropRef{PropSite::kBoundEdge, keys.amount, false, false}, CmpOp::kGt,
              PropRef{PropSite::kAdjEdge, keys.amount, false, false});
  db.CreateEpIndex("MoneyFlow", EpKind::kDstFwd, flow, IndexConfig::Default());
  EXPECT_NE(db.Explain(q).find("EP:MoneyFlow"), std::string::npos) << db.Explain(q);
  EXPECT_EQ(db.Execute(q, TestThreads()).count, base);

  FlatAdjEngine flat(&db.graph());
  EXPECT_EQ(flat.CountMatches(q), base);
}

TEST(IntegrationTest, CitySortedEpIndexAgreesOnCityEquality) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 1200;
  params.avg_degree = 8.0;
  // Uniform endpoints keep the EP lists shorter than the primary ones,
  // so the optimizer picks the EP index.
  params.preferential_fraction = 0.0;
  params.seed = 5;
  GeneratePowerLawGraph(params, &graph);
  FinancialPropKeys keys = AddFinancialProperties(6, &graph, 25);
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();

  // a1->a2->a3 with Pf(e1,e2), a1 restricted and a1.city = a3.city.
  QueryGraph q;
  int a1 = q.AddVertex("a1");
  int a2 = q.AddVertex("a2");
  int a3 = q.AddVertex("a3");
  q.AddEdge(a1, a2, kInvalidLabel, "e1");
  q.AddEdge(a2, a3, kInvalidLabel, "e2");
  QueryComparison date_pred;
  date_pred.lhs = QueryPropRef{0, true, keys.date, false};
  date_pred.op = CmpOp::kLt;
  date_pred.rhs_is_const = false;
  date_pred.rhs_ref = QueryPropRef{1, true, keys.date, false};
  q.AddPredicate(date_pred);
  QueryComparison amt_pred;
  amt_pred.lhs = QueryPropRef{0, true, keys.amount, false};
  amt_pred.op = CmpOp::kGt;
  amt_pred.rhs_is_const = false;
  amt_pred.rhs_ref = QueryPropRef{1, true, keys.amount, false};
  q.AddPredicate(amt_pred);
  QueryComparison a1_small;
  a1_small.lhs = QueryPropRef{a1, false, kInvalidPropKey, true};
  a1_small.op = CmpOp::kLt;
  a1_small.rhs_const = Value::Int64(300);
  q.AddPredicate(a1_small);
  QueryComparison city_eq;
  city_eq.lhs = QueryPropRef{a1, false, keys.city, false};
  city_eq.op = CmpOp::kEq;
  city_eq.rhs_is_const = false;
  city_eq.rhs_ref = QueryPropRef{a3, false, keys.city, false};
  q.AddPredicate(city_eq);

  uint64_t base = db.Execute(q, TestThreads()).count;
  EXPECT_GT(base, 0u);

  // The same count through a city-sorted EP index.
  Predicate flow;
  flow.AddRef(PropRef{PropSite::kBoundEdge, keys.date, false, false}, CmpOp::kLt,
              PropRef{PropSite::kAdjEdge, keys.date, false, false});
  flow.AddRef(PropRef{PropSite::kBoundEdge, keys.amount, false, false}, CmpOp::kGt,
              PropRef{PropSite::kAdjEdge, keys.amount, false, false});
  IndexConfig city_sorted;
  city_sorted.partitions.push_back({PartitionSource::kEdgeLabel, kInvalidPropKey});
  city_sorted.sorts.push_back({SortSource::kNbrProp, keys.city});
  db.CreateEpIndex("FlowCity", EpKind::kDstFwd, flow, city_sorted);
  EXPECT_NE(db.Explain(q).find("EP:FlowCity"), std::string::npos) << db.Explain(q);
  EXPECT_EQ(db.Execute(q, TestThreads()).count, base);

  FlatAdjEngine flat(&db.graph());
  EXPECT_EQ(flat.CountMatches(q), base);
}

}  // namespace
}  // namespace aplus
