#ifndef APLUS_BASELINE_LINKED_LIST_ENGINE_H_
#define APLUS_BASELINE_LINKED_LIST_ENGINE_H_

#include <cstdint>
#include <vector>

#include "query/query_graph.h"
#include "util/memory_budget.h"
#include "storage/graph.h"

namespace aplus {

// Baseline engine with a Neo4j-style linked-record adjacency store
// (Section II): edges of a vertex are partitioned by vertex ID and edge
// label, but edges in a list are NOT stored consecutively — each edge
// record carries next-pointers for its source's out-chain and its
// destination's in-chain, so traversal hops through the edge-record
// array with poor locality. Query evaluation is binary joins only
// (EXPAND-style), the plan space the paper attributes to Neo4j in
// Table V. See DESIGN.md "Substitutions".
class LinkedListEngine {
 public:
  explicit LinkedListEngine(const Graph* graph);

  // Calls fn(nbr, edge_id, edge_label) for every edge of v in `dir` by
  // chasing the per-(vertex, label) chains.
  template <typename Fn>
  void ForEachEdge(vertex_id_t v, Direction dir, Fn fn) const {
    uint32_t num_labels = num_edge_labels_ == 0 ? 1 : num_edge_labels_;
    for (uint32_t label = 0; label < num_labels; ++label) {
      ForEachEdgeWithLabel(v, static_cast<label_t>(label), dir, fn);
    }
  }

  template <typename Fn>
  void ForEachEdgeWithLabel(vertex_id_t v, label_t label, Direction dir, Fn fn) const {
    uint32_t num_labels = num_edge_labels_ == 0 ? 1 : num_edge_labels_;
    size_t head_idx = static_cast<size_t>(v) * num_labels + label;
    int64_t cursor =
        dir == Direction::kFwd ? out_heads_[head_idx] : in_heads_[head_idx];
    while (cursor >= 0) {
      const EdgeRecord& record = records_[static_cast<size_t>(cursor)];
      if (dir == Direction::kFwd) {
        fn(record.dst, static_cast<edge_id_t>(cursor), record.label);
        cursor = record.next_out;
      } else {
        fn(record.src, static_cast<edge_id_t>(cursor), record.label);
        cursor = record.next_in;
      }
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

  size_t MemoryBytes() const;
  const Graph* graph() const { return graph_; }

 private:
  struct EdgeRecord {
    vertex_id_t src;
    vertex_id_t dst;
    label_t label;
    int64_t next_out;  // next edge record in src's out-chain (-1 = end)
    int64_t next_in;   // next edge record in dst's in-chain
  };

  const Graph* graph_;
  uint32_t num_edge_labels_;
  std::vector<EdgeRecord> records_;
  std::vector<int64_t> out_heads_;  // (vertex, label) -> first edge record
  std::vector<int64_t> in_heads_;
};

}  // namespace aplus

#endif  // APLUS_BASELINE_LINKED_LIST_ENGINE_H_
