#ifndef APLUS_BASELINE_FLAT_ADJ_ENGINE_H_
#define APLUS_BASELINE_FLAT_ADJ_ENGINE_H_

#include <cstdint>
#include <vector>

#include "query/query_graph.h"
#include "util/memory_budget.h"
#include "storage/graph.h"

namespace aplus {

// Baseline engine with a TigerGraph-style pure adjacency-list design
// (Section II): per-vertex contiguous, unsorted edge arrays with constant
// time access to all edges of a vertex, and no further partitioning or
// sorting — so no intersection-based (WCOJ) plans, and label predicates
// are checked per edge. For long path queries it additionally supports
// the distinct-frontier expansion the paper conjectures TigerGraph uses
// for SQ13 ("extends each distinct intermediate node only once").
// See DESIGN.md "Substitutions".
class FlatAdjEngine {
 public:
  explicit FlatAdjEngine(const Graph* graph);

  template <typename Fn>
  void ForEachEdge(vertex_id_t v, Direction dir, Fn fn) const {
    const std::vector<Entry>& list = dir == Direction::kFwd ? out_[v] : in_[v];
    for (const Entry& entry : list) {
      fn(entry.nbr, entry.eid, entry.label);
    }
  }

  // Runs `query` with binary-join backtracking. `timeout_seconds` <= 0
  // means unbounded; on deadline the search stops and *timed_out (if
  // non-null) is set. `budget` (optional) charges the matcher's
  // candidate scratch so the baseline respects APLUS_MEM_CAP; when a
  // charge fails the search stops and *exhausted (if non-null) is set.
  uint64_t CountMatches(const QueryGraph& query, double timeout_seconds = 0.0,
                        bool* timed_out = nullptr, MemoryBudget* budget = nullptr,
                        bool* exhausted = nullptr) const;

  // Distinct-frontier path expansion: for a query that is a simple
  // directed path with per-edge labels, counts the number of distinct
  // (start, end) vertex pairs connected by a matching path, extending
  // each distinct intermediate vertex once per level. Matches the
  // behaviour the paper attributes to TigerGraph on SQ13 (Section V-E):
  // fast, but reporting reachable pairs rather than path embeddings.
  uint64_t CountDistinctPathPairs(const std::vector<label_t>& edge_labels,
                                  const std::vector<label_t>& vertex_labels) const;

  size_t MemoryBytes() const;
  const Graph* graph() const { return graph_; }

 private:
  struct Entry {
    vertex_id_t nbr;
    edge_id_t eid;
    label_t label;
  };

  const Graph* graph_;
  std::vector<std::vector<Entry>> out_;
  std::vector<std::vector<Entry>> in_;
};

}  // namespace aplus

#endif  // APLUS_BASELINE_FLAT_ADJ_ENGINE_H_
