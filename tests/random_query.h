// Seeded random databases and connected query shapes, shared by the
// optimizer fuzz test (answers vs brute force) and the plan golden test
// (plan identity).

#ifndef APLUS_TESTS_RANDOM_QUERY_H_
#define APLUS_TESTS_RANDOM_QUERY_H_

#include <memory>
#include <string>

#include "core/database.h"
#include "datagen/financial_props.h"
#include "datagen/label_assigner.h"
#include "datagen/power_law_generator.h"
#include "util/rng.h"

namespace aplus {

// Random connected query: a spanning chain plus random extra edges.
inline QueryGraph RandomQuery(Rng* rng, const Graph& graph, const FinancialPropKeys& keys) {
  QueryGraph query;
  int n = 3 + static_cast<int>(rng->NextBounded(2));  // 3..4 vertices
  for (int i = 0; i < n; ++i) {
    label_t label = kInvalidLabel;
    if (rng->NextDouble() < 0.5) {
      label = static_cast<label_t>(rng->NextBounded(graph.catalog().num_vertex_labels()));
    }
    query.AddVertex("q" + std::to_string(i), label);
  }
  auto random_edge_label = [&]() -> label_t {
    if (rng->NextDouble() < 0.6) {
      return static_cast<label_t>(rng->NextBounded(graph.catalog().num_edge_labels()));
    }
    return kInvalidLabel;
  };
  // Spanning chain with random orientation.
  for (int i = 1; i < n; ++i) {
    if (rng->NextDouble() < 0.5) {
      query.AddEdge(i - 1, i, random_edge_label());
    } else {
      query.AddEdge(i, i - 1, random_edge_label());
    }
  }
  // Extra edges (may create cycles / multi-edges).
  int extra = static_cast<int>(rng->NextBounded(3));
  for (int i = 0; i < extra; ++i) {
    int a = static_cast<int>(rng->NextBounded(n));
    int b = static_cast<int>(rng->NextBounded(n));
    if (a == b) continue;
    query.AddEdge(a, b, random_edge_label());
  }
  // Pin one vertex sometimes (keeps brute force fast too).
  if (rng->NextDouble() < 0.6) {
    query.mutable_vertex(0).bound =
        static_cast<vertex_id_t>(rng->NextBounded(graph.num_vertices()));
    query.mutable_vertex(0).label = kInvalidLabel;
  }
  // Random predicates from the workload menu.
  if (rng->NextDouble() < 0.5) {
    QueryComparison amount;
    amount.lhs = QueryPropRef{0, true, keys.amount, false};
    amount.op = rng->NextDouble() < 0.5 ? CmpOp::kGt : CmpOp::kLt;
    amount.rhs_const = Value::Int64(rng->NextInRange(1, 1000));
    query.AddPredicate(amount);
  }
  if (rng->NextDouble() < 0.4 && query.num_vertices() >= 3) {
    QueryComparison city_eq;
    city_eq.lhs = QueryPropRef{1, false, keys.city, false};
    city_eq.op = CmpOp::kEq;
    city_eq.rhs_is_const = false;
    city_eq.rhs_ref = QueryPropRef{2, false, keys.city, false};
    query.AddPredicate(city_eq);
  }
  if (rng->NextDouble() < 0.4 && query.num_edges() >= 2) {
    QueryComparison flow;
    flow.lhs = QueryPropRef{0, true, keys.date, false};
    flow.op = CmpOp::kLt;
    flow.rhs_is_const = false;
    flow.rhs_ref = QueryPropRef{1, true, keys.date, false};
    query.AddPredicate(flow);
  }
  return query;
}

// A small labelled financial graph under a random primary configuration
// (Flat, D, Dp or Ds) plus random secondary indexes (city-sorted VPc in
// both directions, a predicate-filtered VP index, a money-flow EP index).
// Draws from `rng`, so the caller's next draws depend on `seed` alone.
inline std::unique_ptr<Database> RandomDatabase(uint64_t seed, Rng* rng,
                                                FinancialPropKeys* keys) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 150 + rng->NextBounded(100);
  params.avg_degree = 3.0 + rng->NextDouble() * 3.0;
  params.seed = seed + 1;
  GeneratePowerLawGraph(params, &graph);
  AssignRandomLabels(2, 2, seed + 2, &graph);
  *keys = AddFinancialProperties(seed + 3, &graph, 10);

  auto db = std::make_unique<Database>(std::move(graph));

  IndexConfig config;
  switch (rng->NextBounded(4)) {
    case 0:
      config = IndexConfig::Flat();
      break;
    case 1:
      config = IndexConfig::Default();
      break;
    case 2:
      config = IndexConfig::Default();
      config.partitions.push_back({PartitionSource::kNbrLabel, kInvalidPropKey});
      break;
    default:
      config = IndexConfig::Default();
      config.sorts.clear();
      config.sorts.push_back({SortSource::kNbrLabel, kInvalidPropKey});
      config.sorts.push_back({SortSource::kNbrId, kInvalidPropKey});
      break;
  }
  db->BuildPrimaryIndexes(config);

  if (rng->NextDouble() < 0.5) {
    IndexConfig vpc = IndexConfig::Default();
    vpc.sorts.clear();
    vpc.sorts.push_back({SortSource::kNbrProp, keys->city});
    db->CreateVpIndex("VPc", Predicate(), vpc, Direction::kFwd);
    db->CreateVpIndex("VPc", Predicate(), vpc, Direction::kBwd);
  }
  if (rng->NextDouble() < 0.4) {
    Predicate large;
    large.AddConst(PropRef{PropSite::kAdjEdge, keys->amount, false, false}, CmpOp::kGt,
                   Value::Int64(500));
    db->CreateVpIndex("big", large, IndexConfig::Default(), Direction::kFwd);
  }
  if (rng->NextDouble() < 0.4) {
    Predicate flow;
    flow.AddRef(PropRef{PropSite::kBoundEdge, keys->date, false, false}, CmpOp::kLt,
                PropRef{PropSite::kAdjEdge, keys->date, false, false});
    db->CreateEpIndex("flow", EpKind::kDstFwd, flow, IndexConfig::Default());
  }
  return db;
}

}  // namespace aplus

#endif  // APLUS_TESTS_RANDOM_QUERY_H_
