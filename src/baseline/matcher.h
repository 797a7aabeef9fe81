#ifndef APLUS_BASELINE_MATCHER_H_
#define APLUS_BASELINE_MATCHER_H_

#include <algorithm>
#include <functional>
#include <vector>

#include "query/query_graph.h"
#include "util/deadline.h"
#include "util/memory_budget.h"

namespace aplus {

// Generic backtracking subgraph matcher shared by the baseline engines.
// `Engine` must provide:
//   template <typename Fn>
//   void ForEachEdge(vertex_id_t v, Direction dir, Fn fn) const;
// where fn(nbr, edge_id, edge_label) is invoked per adjacent edge.
//
// The matcher uses binary joins only (one query edge at a time, no
// intersections), which is exactly the plan space the paper ascribes to
// the fixed-index systems it compares against in Table V. Semantics match
// the A+ engine: subgraph isomorphism with directed labelled edges.
template <typename Engine>
class BaselineMatcher {
 public:
  // `timeout_seconds` <= 0 means unbounded; when the deadline passes the
  // search stops early and timed_out() reports true (the paper's "TL").
  BaselineMatcher(const Engine* engine, const Graph* graph, const QueryGraph* query,
                  double timeout_seconds = 0.0)
      : engine_(engine), graph_(graph), query_(query), timeout_seconds_(timeout_seconds) {
    BuildOrder();
  }

  uint64_t Count() {
    MatchState state;
    state.Reset(query_->num_vertices(), query_->num_edges());
    token_.Reset();
    if (timeout_seconds_ > 0.0) {
      token_.ArmDeadlineNanos(static_cast<int64_t>(timeout_seconds_ * 1e9));
    }
    steps_until_check_ = kCheckInterval;
    Recurse(0, &state);
    return state.count;
  }

  // Like Count(), invoking `fn(const MatchState&)` once per complete
  // match (every query vertex and edge bound). Serves as the row-level
  // oracle for the serving API's projection tests.
  template <typename Fn>
  uint64_t Enumerate(Fn&& fn) {
    on_match_ = std::forward<Fn>(fn);
    uint64_t count = Count();
    on_match_ = nullptr;
    return count;
  }

  bool timed_out() const { return token_.reason() == StopReason::kTimeout; }
  bool exhausted() const { return token_.reason() == StopReason::kResourceExhausted; }

  // Optional memory budget: per-level candidate scratch is charged
  // against it and released as the recursion unwinds, so the baselines
  // respect the same APLUS_MEM_CAP governance as the serving engine.
  // A failed charge stops the search with kResourceExhausted.
  void set_budget(MemoryBudget* budget) { budget_ = budget; }

 private:
  // Greedy connected order: bound vertices first, then vertices adjacent
  // to the chosen prefix (labelled ones preferred).
  void BuildOrder() {
    int n = query_->num_vertices();
    std::vector<bool> chosen(n, false);
    for (int step = 0; step < n; ++step) {
      int best = -1;
      int best_score = -1;
      for (int v = 0; v < n; ++v) {
        if (chosen[v]) continue;
        int score = 0;
        if (query_->vertex(v).bound != kInvalidVertex) score += 1000;
        if (query_->vertex(v).label != kInvalidLabel) score += 10;
        bool adjacent = step == 0;
        for (int e = 0; e < query_->num_edges(); ++e) {
          const QueryEdge& qe = query_->edge(e);
          int other = qe.from == v ? qe.to : (qe.to == v ? qe.from : -1);
          if (other >= 0 && chosen[other]) {
            adjacent = true;
            score += 100;
          }
        }
        if (!adjacent) continue;
        if (score > best_score) {
          best_score = score;
          best = v;
        }
      }
      if (best < 0) {  // disconnected query: take any remaining vertex
        for (int v = 0; v < n; ++v) {
          if (!chosen[v]) {
            best = v;
            break;
          }
        }
      }
      chosen[best] = true;
      order_.push_back(best);
    }
  }

  bool VertexOk(int var, vertex_id_t v, const MatchState& state) const {
    const QueryVertex& qv = query_->vertex(var);
    if (qv.bound != kInvalidVertex && qv.bound != v) return false;
    if (qv.label != kInvalidLabel && graph_->vertex_label(v) != qv.label) return false;
    if (state.VertexAlreadyBound(v)) return false;
    return true;
  }

  // Checks every query edge whose endpoints are both bound and whose edge
  // variable is still unbound: finds a matching data edge (or fails).
  // Returns predicates evaluable afterwards.
  bool CloseEdgesAndPredicates(int depth, MatchState* state) {
    // Evaluate all predicates that just became evaluable.
    for (const QueryComparison& cmp : query_->predicates()) {
      if (!ComparisonIsBound(cmp, *state)) continue;
      if (!EvalQueryComparison(*graph_, cmp, *state)) return false;
    }
    (void)depth;
    return true;
  }

  // The same cooperative token the serving engine polls (util/deadline.h):
  // cheap stop_requested() reads between coarse clock checks.
  bool CheckDeadline() {
    if (token_.stop_requested()) return true;
    if (timeout_seconds_ <= 0.0) return false;
    if (--steps_until_check_ == 0) {
      steps_until_check_ = kCheckInterval;
      return token_.PollClock();
    }
    return false;
  }

  // Charges per-level scratch against the optional budget; a failed
  // charge (over cap, process ceiling, or fault injection) stops the
  // whole search with kResourceExhausted.
  bool ChargeScratch(uint64_t bytes) {
    if (budget_ == nullptr || bytes == 0) return true;
    if (budget_->Charge(bytes)) return true;
    token_.RequestStop(StopReason::kResourceExhausted);
    return false;
  }

  void ReleaseScratch(uint64_t bytes) {
    if (budget_ != nullptr && bytes != 0) budget_->Release(bytes);
  }

  void Recurse(size_t depth, MatchState* state) {
    if (CheckDeadline()) return;
    if (depth == order_.size()) {
      state->count++;
      if (on_match_) on_match_(*state);
      return;
    }
    int var = order_[depth];
    // Query edges connecting var to already-bound vertices.
    std::vector<int> conn;
    for (int e = 0; e < query_->num_edges(); ++e) {
      const QueryEdge& qe = query_->edge(e);
      int other = qe.from == var ? qe.to : (qe.to == var ? qe.from : -1);
      if (other < 0) continue;
      if (state->v[other] != kInvalidVertex) conn.push_back(e);
    }
    const uint64_t conn_bytes = conn.capacity() * sizeof(int);
    if (!ChargeScratch(conn_bytes)) return;

    auto try_bind = [&](vertex_id_t v) {
      if (!VertexOk(var, v, *state)) return;
      state->v[var] = v;
      BindConnEdges(conn, 0, depth, state);
      state->v[var] = kInvalidVertex;
    };

    uint64_t cand_bytes = 0;
    if (query_->vertex(var).bound != kInvalidVertex) {
      try_bind(query_->vertex(var).bound);
    } else if (conn.empty()) {
      for (vertex_id_t v = 0; v < graph_->num_vertices(); ++v) try_bind(v);
    } else {
      // Expand along the first connecting edge; remaining edges verified
      // by BindConnEdges list walks (binary-join behaviour). Candidate
      // neighbours are deduplicated so parallel edges do not
      // double-count (BindConnEdges enumerates the edge bindings).
      const QueryEdge& first = query_->edge(conn.front());
      int pivot = first.from == var ? first.to : first.from;
      Direction dir = first.from == pivot ? Direction::kFwd : Direction::kBwd;
      std::vector<vertex_id_t> candidates;
      engine_->ForEachEdge(state->v[pivot], dir,
                           [&](vertex_id_t nbr, edge_id_t eid, label_t elabel) {
                             (void)eid;
                             if (first.label != kInvalidLabel && elabel != first.label) return;
                             candidates.push_back(nbr);
                           });
      cand_bytes = candidates.capacity() * sizeof(vertex_id_t);
      if (ChargeScratch(cand_bytes)) {
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
        for (vertex_id_t nbr : candidates) try_bind(nbr);
      } else {
        cand_bytes = 0;  // Charge() already undid the failed charge.
      }
    }
    ReleaseScratch(conn_bytes + cand_bytes);
  }

  // Binds data edges for every connecting query edge (cross-checking
  // multi-edge distinctness), then recurses deeper.
  void BindConnEdges(const std::vector<int>& conn, size_t i, size_t depth, MatchState* state) {
    if (i == conn.size()) {
      if (CloseEdgesAndPredicates(static_cast<int>(depth), state)) {
        Recurse(depth + 1, state);
      }
      return;
    }
    int qe_id = conn[i];
    const QueryEdge& qe = query_->edge(qe_id);
    vertex_id_t from_v = state->v[qe.from];
    vertex_id_t to_v = state->v[qe.to];
    engine_->ForEachEdge(from_v, Direction::kFwd,
                         [&](vertex_id_t nbr, edge_id_t eid, label_t elabel) {
                           if (nbr != to_v) return;
                           if (qe.label != kInvalidLabel && elabel != qe.label) return;
                           if (state->EdgeAlreadyBound(eid)) return;
                           state->e[qe_id] = eid;
                           BindConnEdges(conn, i + 1, depth, state);
                           state->e[qe_id] = kInvalidEdge;
                         });
  }

  static constexpr uint32_t kCheckInterval = 1 << 16;

  const Engine* engine_;
  const Graph* graph_;
  const QueryGraph* query_;
  double timeout_seconds_;
  MemoryBudget* budget_ = nullptr;
  ExecToken token_;
  uint32_t steps_until_check_ = kCheckInterval;
  std::vector<int> order_;
  std::function<void(const MatchState&)> on_match_;
};

}  // namespace aplus

#endif  // APLUS_BASELINE_MATCHER_H_
