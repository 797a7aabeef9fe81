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

// One logical step of an enumerated plan, in the full form tests and
// DescribeSteps inspect (DpOptimizer::last_steps).
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

// What the plan printer needs of one chosen step beside its lists: the
// lists themselves are the next `num_lists` descriptors of the built
// plan's operators (Operator::lists), in step order.
struct StepOutline {
  PlanStep::Kind kind = PlanStep::Kind::kScan;
  int scan_var = -1;
  uint32_t num_lists = 0;
  uint32_t num_residual = 0;
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
// bound sets and, from each reachable one, the one-vertex E/I extensions
// to its unbound neighbours (the only ones that connect) and every
// MULTI-EXTEND group: O(2^n * n * (m + c)) work at worst over a table of
// 2^n 24-byte entries, but an extension reads only the edges at its
// target and the conjuncts that need it. Access paths are matched
// against the INDEX STORE once per (edge, target, EP bound edge) group
// the DP touches; that one lookup serves every sort requirement, so the
// matcher's cost does not scale with 2^n or with the number of sort
// keys. The WHERE conjuncts are translated into view-site form once per
// (edge, target) pair, and a group takes the terms of its pair that fit
// its bound edge.
//
// The per-call working state (DP table, candidate pool, memo, step
// records) lives in the optimizer and keeps its capacity across calls,
// so one optimizer must not run two Optimize calls at once (Database
// serializes them under its prepare mutex).
class DpOptimizer {
 public:
  // The largest pattern the subset DP plans (its table has 2^n entries,
  // 24 MB at n = 20). Callers reject larger patterns with a typed error
  // before calling Optimize.
  static constexpr int kMaxQueryVertices = 20;
  // The most query edges it plans: the memo's group index has
  // 2 * m * (m + 1) entries (33K at m = 128), and each E/I step scans
  // every edge. Callers reject larger patterns the same way.
  static constexpr int kMaxQueryEdges = 128;

  DpOptimizer(const Graph* graph, const IndexStore* store);
  ~DpOptimizer();

  // Returns the lowest-i-cost plan, or nullptr if the query graph is
  // disconnected / unsupported. `sink` replaces the default counting
  // SinkOp as the pipeline's terminal operator when non-null (the
  // serving layer passes a ProjectSinkOp). Requires 1 <= n <=
  // kMaxQueryVertices query vertices and at most kMaxQueryEdges edges.
  std::unique_ptr<Plan> Optimize(const QueryGraph& query,
                                 std::unique_ptr<Operator> sink = nullptr);

  // The last plan's steps as the plan printer renders them (with the
  // plan's operators), valid until the next Optimize.
  const std::vector<StepOutline>& last_outline() const { return last_outline_; }
  double last_cost() const { return last_cost_; }
  // IndexMatcher lookups the last Optimize made, and the distinct
  // (edge, target, EP bound edge) groups it asked for: one lookup per
  // group.
  int last_match_lookups() const { return last_match_lookups_; }
  int last_match_groups() const { return last_match_groups_; }

  // Introspection for tests: the last plan's steps with copies of their
  // list descriptors and residual conjuncts, materialized on the first
  // call after Optimize from its working state and its query (which must
  // still be alive); valid until the next Optimize.
  const std::vector<PlanStep>& last_steps();
  std::string DescribeSteps(const QueryGraph& query);

 private:
  struct Scratch;

  const Graph* graph_;
  const IndexStore* store_;
  GraphStats stats_;
  std::unique_ptr<Scratch> scratch_;
  std::vector<StepOutline> last_outline_;
  std::vector<PlanStep> last_steps_;
  bool last_steps_valid_ = false;
  double last_cost_ = 0.0;
  int last_match_lookups_ = 0;
  int last_match_groups_ = 0;
};

// Rough selectivity of one residual conjunct, used by cardinality
// estimation.
double EstimateSelectivity(const Graph& graph, const QueryComparison& cmp);

}  // namespace aplus

#endif  // APLUS_OPTIMIZER_DP_OPTIMIZER_H_
