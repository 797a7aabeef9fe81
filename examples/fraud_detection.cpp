// Fraud detection on a synthetic financial network (Section V-C2/V-D):
// generates a transfer graph, then hunts cyclic money flows (MF1) and
// decreasing money-flow paths (MF5-style) under three configurations —
// primary only, +VPc (city-sorted secondary), +EPc (MoneyFlow
// edge-partitioned index) — printing runtimes and the plans used.
//
//   ./build/examples/fraud_detection [num_vertices]

#include <cstdio>
#include <cstdlib>

#include "core/database.h"
#include "datagen/financial_props.h"
#include "datagen/power_law_generator.h"

using namespace aplus;  // NOLINT: example brevity

namespace {

QueryGraph CycleQuery(const FinancialPropKeys& keys, label_t elabel) {
  // MF1: 4-cycle of transfers among CQ accounts where the two "middle"
  // accounts sit in the same city.
  QueryGraph q;
  int a1 = q.AddVertex("a1");
  int a2 = q.AddVertex("a2");
  int a3 = q.AddVertex("a3");
  int a4 = q.AddVertex("a4");
  q.AddEdge(a1, a2, elabel, "e1");
  q.AddEdge(a2, a3, elabel, "e2");
  q.AddEdge(a3, a4, elabel, "e3");
  q.AddEdge(a4, a1, elabel, "e4");
  for (int v : {a1, a2, a3, a4}) {
    QueryComparison acc;
    acc.lhs = QueryPropRef{v, false, keys.acc, false};
    acc.op = CmpOp::kEq;
    acc.rhs_const = Value::Category(kAccCq);
    q.AddPredicate(acc);
  }
  QueryComparison same_city;
  same_city.lhs = QueryPropRef{a2, false, keys.city, false};
  same_city.op = CmpOp::kEq;
  same_city.rhs_is_const = false;
  same_city.rhs_ref = QueryPropRef{a4, false, keys.city, false};
  q.AddPredicate(same_city);
  return q;
}

QueryGraph FlowPathQuery(const FinancialPropKeys& keys, int64_t alpha, int64_t id_bound,
                         label_t elabel) {
  // 3-step decreasing flow: each hop later and smaller (by at most
  // alpha), Example 7's core pattern.
  QueryGraph q;
  int a1 = q.AddVertex("a1");
  int a2 = q.AddVertex("a2");
  int a3 = q.AddVertex("a3");
  int a4 = q.AddVertex("a4");
  q.AddEdge(a1, a2, elabel, "e1");
  q.AddEdge(a2, a3, elabel, "e2");
  q.AddEdge(a3, a4, elabel, "e3");
  QueryComparison bound;
  bound.lhs = QueryPropRef{a1, false, kInvalidPropKey, true};
  bound.op = CmpOp::kLt;
  bound.rhs_const = Value::Int64(id_bound);
  q.AddPredicate(bound);
  for (auto [ei, ej] : {std::pair<int, int>{0, 1}, {1, 2}}) {
    QueryComparison date;
    date.lhs = QueryPropRef{ei, true, keys.date, false};
    date.op = CmpOp::kLt;
    date.rhs_is_const = false;
    date.rhs_ref = QueryPropRef{ej, true, keys.date, false};
    q.AddPredicate(date);
    QueryComparison amt;
    amt.lhs = QueryPropRef{ei, true, keys.amount, false};
    amt.op = CmpOp::kGt;
    amt.rhs_is_const = false;
    amt.rhs_ref = QueryPropRef{ej, true, keys.amount, false};
    q.AddPredicate(amt);
    QueryComparison cut;
    cut.lhs = QueryPropRef{ei, true, keys.amount, false};
    cut.op = CmpOp::kLt;
    cut.rhs_is_const = false;
    cut.rhs_ref = QueryPropRef{ej, true, keys.amount, false};
    cut.rhs_addend = alpha;
    q.AddPredicate(cut);
  }
  return q;
}

void Report(const char* config, const char* name, const QueryOutcome& r) {
  std::printf("[%s] %-10s %10llu matches  %8.2f ms\n", config, name,
              static_cast<unsigned long long>(r.count), r.seconds * 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t nv = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  Graph graph;
  PowerLawParams params;
  params.num_vertices = nv;
  params.avg_degree = 8.0;
  GeneratePowerLawGraph(params, &graph);
  FinancialPropKeys keys = AddFinancialProperties(42, &graph, 50);
  std::printf("financial network: %llu accounts, %llu transfers\n",
              static_cast<unsigned long long>(graph.num_vertices()),
              static_cast<unsigned long long>(graph.num_edges()));

  Database db(std::move(graph));
  db.BuildPrimaryIndexes();

  label_t elabel = db.graph().catalog().FindEdgeLabel("E");
  QueryGraph cycle = CycleQuery(keys, elabel);
  QueryGraph flow = FlowPathQuery(keys, /*alpha=*/25, /*id_bound=*/200, elabel);

  // Config D: primary indexes only.
  QueryOutcome cycle_d = db.Execute(cycle);
  QueryOutcome flow_d = db.Execute(flow);
  Report("D        ", "cycle", cycle_d);
  Report("D        ", "flow-path", flow_d);

  // Config D+VPc: city-sorted secondary vertex-partitioned indexes.
  IndexConfig city_sorted = IndexConfig::Default();
  city_sorted.sorts.clear();
  city_sorted.sorts.push_back({SortSource::kNbrProp, keys.city});
  double ic = 0.0;
  double total_ic = 0.0;
  db.CreateVpIndex("VPc", Predicate(), city_sorted, Direction::kFwd, &ic);
  total_ic += ic;
  db.CreateVpIndex("VPc", Predicate(), city_sorted, Direction::kBwd, &ic);
  total_ic += ic;
  std::printf("created VPc (FW+BW) in %.1f ms\n", total_ic * 1e3);
  QueryOutcome cycle_vpc = db.Execute(cycle);
  Report("D+VPc    ", "cycle", cycle_vpc);
  std::printf("  speedup vs D: %.2fx; plan:\n%s", cycle_d.seconds / cycle_vpc.seconds,
              db.Explain(cycle).c_str());

  // Config D+VPc+EPc: the MoneyFlow edge-partitioned index.
  Predicate money_flow;
  money_flow.AddRef(PropRef{PropSite::kBoundEdge, keys.date, false, false}, CmpOp::kLt,
                    PropRef{PropSite::kAdjEdge, keys.date, false, false});
  money_flow.AddRef(PropRef{PropSite::kAdjEdge, keys.amount, false, false}, CmpOp::kLt,
                    PropRef{PropSite::kBoundEdge, keys.amount, false, false});
  money_flow.AddRef(PropRef{PropSite::kBoundEdge, keys.amount, false, false}, CmpOp::kLt,
                    PropRef{PropSite::kAdjEdge, keys.amount, false, false}, 25);
  IndexConfig ep_config = IndexConfig::Default();
  db.CreateEpIndex("EPc", EpKind::kDstFwd, money_flow, ep_config, &ic);
  std::printf("created EPc in %.1f ms (|E_indexed| = %llu)\n", ic * 1e3,
              static_cast<unsigned long long>(db.index_store().FindEpIndex("EPc")->num_edges_indexed()));
  QueryOutcome flow_ep = db.Execute(flow);
  Report("D+VPc+EPc", "flow-path", flow_ep);
  std::printf("  speedup vs D: %.2fx; plan:\n%s", flow_d.seconds / flow_ep.seconds,
              db.Explain(flow).c_str());

  std::printf("\nindex memory: %zu bytes\n", db.IndexMemoryBytes());
  return 0;
}
