#ifndef APLUS_OPTIMIZER_DP_OPTIMIZER_H_
#define APLUS_OPTIMIZER_DP_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "index/index_store.h"
#include "optimizer/catalog_stats.h"
#include "optimizer/index_matcher.h"
#include "query/plan.h"
#include "query/query_graph.h"

namespace aplus {

// One logical step of an enumerated plan; the optimizer materializes the
// winning step sequence into a physical operator pipeline at the end.
struct PlanStep {
  // kExtendVerify: binary-join fallback when no (effectively) sorted
  // lists exist for a multi-edge extension — extend along lists[0], then
  // verify the remaining query edges by membership probes (closing
  // extends) over lists[1..].
  enum class Kind { kScan, kExtend, kExtendIntersect, kExtendVerify, kMultiExtend };

  Kind kind = Kind::kScan;
  int scan_var = -1;
  std::vector<ListDescriptor> lists;
  int target_var = -1;  // kExtend / kExtendIntersect
  std::vector<QueryComparison> residual;
};

// The DP join optimizer of Section IV-A: enumerates sub-queries one query
// vertex at a time, considering (i) E/I extensions over every index the
// INDEX STORE can supply with subsuming predicates, and (ii) MULTI-EXTEND
// extensions that bind several query vertices at once by intersecting
// lists sorted on a shared non-ID property (including edge-partitioned
// lists). The cost metric is i-cost: the total estimated size of the
// adjacency lists a plan's E/I and MULTI-EXTEND operators read.
//
// Per query of n vertices, m edges and c conjuncts the DP visits all 2^n
// bound sets and, from each reachable one, every one-vertex E/I
// extension and every MULTI-EXTEND group: O(2^n * n * (m + c)) work over
// a table of 2^n 24-byte entries. Access paths are matched against the
// INDEX STORE once per (edge, target, EP bound edge, sort) and memoized
// for the call, so the matcher's cost does not scale with 2^n.
class DpOptimizer {
 public:
  // The largest pattern the subset DP plans (its table has 2^n entries,
  // 24 MB at n = 20). Callers reject larger patterns with a typed error
  // before calling Optimize.
  static constexpr int kMaxQueryVertices = 20;

  DpOptimizer(const Graph* graph, const IndexStore* store);

  // Returns the lowest-i-cost plan, or nullptr if the query graph is
  // disconnected / unsupported. `sink` replaces the default counting
  // SinkOp as the pipeline's terminal operator when non-null (the
  // serving layer passes a ProjectSinkOp). Requires 1 <= n <=
  // kMaxQueryVertices query vertices.
  std::unique_ptr<Plan> Optimize(const QueryGraph& query,
                                 std::unique_ptr<Operator> sink = nullptr);

  // Introspection for tests and the plan printer.
  const std::vector<PlanStep>& last_steps() const { return last_steps_; }
  double last_cost() const { return last_cost_; }
  std::string DescribeSteps(const QueryGraph& query) const;

 private:
  const Graph* graph_;
  const IndexStore* store_;
  GraphStats stats_;
  std::vector<PlanStep> last_steps_;
  double last_cost_ = 0.0;
};

// Rough selectivity of one residual conjunct, used by cardinality
// estimation.
double EstimateSelectivity(const Graph& graph, const QueryComparison& cmp);

// Combined selectivity of a conjunct set. Vertex-ID range conjuncts on
// the same variable are intersected exactly (a window [lo, hi) has
// selectivity (hi - lo) / |V|, not the product of its two bounds);
// everything else multiplies independently.
double EstimateCombinedSelectivity(const Graph& graph,
                                   const std::vector<QueryComparison>& conjuncts);

}  // namespace aplus

#endif  // APLUS_OPTIMIZER_DP_OPTIMIZER_H_
