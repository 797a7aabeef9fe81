// Randomized end-to-end correctness: random small graphs, random
// connected query shapes with random labels/predicates, random index
// configurations (including secondary VP/EP indexes) — the optimizer's
// plan must always count exactly what brute-force enumeration counts.

#include <gtest/gtest.h>

#include <algorithm>

#include "random_query.h"
#include "test_threads.h"

namespace aplus {
namespace {

// Brute force: enumerate vertex assignments (pruning each new vertex by
// the query edges to already-assigned vertices, so connected queries
// stay tractable), then all edge bindings.
class BruteForcer {
 public:
  BruteForcer(const Graph& graph, const QueryGraph& query) : graph_(graph), query_(query) {
    // Adjacency for candidate pruning.
    out_.resize(graph.num_vertices());
    in_.resize(graph.num_vertices());
    for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
      out_[graph.edge_src(e)].push_back(graph.edge_dst(e));
      in_[graph.edge_dst(e)].push_back(graph.edge_src(e));
    }
  }

  uint64_t Count() {
    MatchState state;
    state.Reset(query_.num_vertices(), query_.num_edges());
    count_ = 0;
    RecurseVertices(0, &state);
    return count_;
  }

 private:
  void RecurseVertices(int var, MatchState* state) {
    if (var == query_.num_vertices()) {
      BindEdges(0, state);
      return;
    }
    const QueryVertex& qv = query_.vertex(var);
    // Candidates: neighbours along any query edge to an assigned vertex
    // (vertices are assigned in order, so queries built with a spanning
    // chain always have one); otherwise all vertices.
    std::vector<vertex_id_t> candidates;
    bool restricted = false;
    for (int qe = 0; qe < query_.num_edges() && !restricted; ++qe) {
      const QueryEdge& edge = query_.edge(qe);
      if (edge.from == var && edge.to < var) {
        candidates = in_[state->v[edge.to]];
        restricted = true;
      } else if (edge.to == var && edge.from < var) {
        candidates = out_[state->v[edge.from]];
        restricted = true;
      }
    }
    if (!restricted) {
      candidates.resize(graph_.num_vertices());
      for (vertex_id_t v = 0; v < graph_.num_vertices(); ++v) candidates[v] = v;
    } else {
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
    }
    for (vertex_id_t v : candidates) {
      if (qv.bound != kInvalidVertex && qv.bound != v) continue;
      if (qv.label != kInvalidLabel && graph_.vertex_label(v) != qv.label) continue;
      if (state->VertexAlreadyBound(v)) continue;
      state->v[var] = v;
      RecurseVertices(var + 1, state);
      state->v[var] = kInvalidVertex;
    }
  }

  void BindEdges(int qe, MatchState* state) {
    if (qe == query_.num_edges()) {
      for (const QueryComparison& cmp : query_.predicates()) {
        if (!EvalQueryComparison(graph_, cmp, *state)) return;
      }
      ++count_;
      return;
    }
    const QueryEdge& edge = query_.edge(qe);
    for (edge_id_t e = 0; e < graph_.num_edges(); ++e) {
      if (graph_.edge_src(e) != state->v[edge.from]) continue;
      if (graph_.edge_dst(e) != state->v[edge.to]) continue;
      if (edge.label != kInvalidLabel && graph_.edge_label(e) != edge.label) continue;
      if (state->EdgeAlreadyBound(e)) continue;
      state->e[qe] = e;
      BindEdges(qe + 1, state);
      state->e[qe] = kInvalidEdge;
    }
  }

  const Graph& graph_;
  const QueryGraph& query_;
  std::vector<std::vector<vertex_id_t>> out_;
  std::vector<std::vector<vertex_id_t>> in_;
  uint64_t count_ = 0;
};

class OptimizerFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerFuzzTest, PlansMatchBruteForce) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed * 7919 + 13);

  FinancialPropKeys keys;
  std::unique_ptr<Database> db = RandomDatabase(seed, &rng, &keys);

  for (int q = 0; q < 4; ++q) {
    QueryGraph query = RandomQuery(&rng, db->graph(), keys);
    uint64_t expected = BruteForcer(db->graph(), query).Count();
    QueryOutcome result = db->Execute(query, TestThreads());
    ASSERT_EQ(result.count, expected)
        << "seed=" << seed << " query=" << q << "\nplan:\n"
        << result.plan;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerFuzzTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace aplus
