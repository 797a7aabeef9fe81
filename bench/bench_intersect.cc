// Microbenchmark for the intersection hot path (EXTEND/INTERSECT and
// MULTI-EXTEND, Section IV-A): drives the operators tuple-at-a-time over
// a power-law graph, varying z, list-length skew, and the list
// representation (direct primary lists vs offset-list VP lists), and
// compares against a reference implementation of the pre-optimization
// executor (per-Run heap allocations + binary searches restarting from
// the range start + per-comparison sort-key computation). Reported
// speedups therefore track exactly the frontier/galloping/zero-alloc
// rewrite, on every run.
//
// Env knobs: APLUS_SCALE (graph size multiplier), APLUS_INTERSECT_TUPLES
// (tuples per case), APLUS_INTERSECT_REPS (timed repetitions, best-of),
// APLUS_BENCH_JSON (when set, per-case metrics are written there as
// JSON for scripts/bench_compare.py).

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datagen/power_law_generator.h"
#include "index/primary_index.h"
#include "index/vp_index.h"
#include "query/intersect_kernels.h"
#include "query/operators.h"
#include "query/row_sink.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace aplus;  // NOLINT: bench brevity

namespace {

// ---------------------------------------------------------------------
// Reference (pre-optimization) operator implementations. These replicate
// the executor hot path as it stood before the frontier-based rewrite:
// scratch vectors allocated per Run(), every probe a binary search over
// [bounds.first, bounds.second), and MULTI-EXTEND sort keys recomputed
// per comparison through ListDescriptor::SortKeyAt.
// ---------------------------------------------------------------------

std::pair<uint32_t, uint32_t> BinaryEqualRangeByNbr(const AdjListSlice& slice, vertex_id_t n,
                                                    uint32_t begin, uint32_t end) {
  uint32_t lo = begin;
  uint32_t hi = end;
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (slice.NbrAt(mid) < n) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  uint32_t first = lo;
  hi = end;
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (slice.NbrAt(mid) <= n) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return {first, lo};
}

bool ReferenceEvalResiduals(const Graph& graph, const std::vector<QueryComparison>& preds,
                            const MatchState& state) {
  for (const QueryComparison& cmp : preds) {
    if (!EvalQueryComparison(graph, cmp, state)) return false;
  }
  return true;
}

// Verbatim replica of the pre-optimization ExtendIntersectOp::Run (same
// Emit/residual machinery as the real operator, so timings isolate the
// hot-path rewrite).
class ReferenceExtendIntersectOp : public Operator {
 public:
  ReferenceExtendIntersectOp(const Graph* graph, std::vector<ListDescriptor> lists,
                             int target_vertex_var)
      : graph_(graph), lists_(std::move(lists)), target_var_(target_vertex_var) {}

  std::unique_ptr<Operator> Clone() const override {
    return std::make_unique<ReferenceExtendIntersectOp>(graph_, lists_, target_var_);
  }

  void Run(MatchState* state) override {
    size_t z = lists_.size();
    std::vector<AdjListSlice> slices(z);
    std::vector<std::pair<uint32_t, uint32_t>> bounds(z);
    size_t pivot = 0;
    for (size_t i = 0; i < z; ++i) {
      slices[i] = lists_[i].Fetch(*state);
      bounds[i] = lists_[i].BoundedRange(slices[i]);
      uint32_t len_i = bounds[i].second - bounds[i].first;
      uint32_t len_p = bounds[pivot].second - bounds[pivot].first;
      if (len_i < len_p) pivot = i;
    }
    const AdjListSlice& ps = slices[pivot];
    label_t target_label = kInvalidLabel;
    for (const ListDescriptor& list : lists_) {
      if (list.target_vertex_label != kInvalidLabel) target_label = list.target_vertex_label;
    }
    uint32_t i = bounds[pivot].first;
    const uint32_t pivot_end = bounds[pivot].second;
    std::vector<std::pair<uint32_t, uint32_t>> ranges(z);
    while (i < pivot_end) {
      vertex_id_t n = ps.NbrAt(i);
      uint32_t group_end = i + 1;
      while (group_end < pivot_end && ps.NbrAt(group_end) == n) ++group_end;
      vertex_id_t pivot_bound = lists_[pivot].target_bound;
      if (state->VertexAlreadyBound(n) || (pivot_bound != kInvalidVertex && n != pivot_bound) ||
          (target_label != kInvalidLabel && graph_->vertex_label(n) != target_label)) {
        i = group_end;
        continue;
      }
      bool all_present = true;
      for (size_t l = 0; l < z && all_present; ++l) {
        if (l == pivot) {
          ranges[l] = {i, group_end};
          continue;
        }
        ranges[l] = BinaryEqualRangeByNbr(slices[l], n, bounds[l].first, bounds[l].second);
        all_present = ranges[l].first < ranges[l].second;
      }
      if (all_present) {
        state->v[target_var_] = n;
        std::vector<uint32_t> idx(z);
        for (size_t l = 0; l < z; ++l) idx[l] = ranges[l].first;
        size_t depth = 0;
        while (true) {
          if (depth == z) {
            if (ReferenceEvalResiduals(*graph_, residual_, *state)) Emit(state);
            --depth;
            state->e[lists_[depth].target_edge_var] = kInvalidEdge;
            ++idx[depth];
          }
          if (idx[depth] >= ranges[depth].second) {
            idx[depth] = ranges[depth].first;
            if (depth == 0) break;
            --depth;
            state->e[lists_[depth].target_edge_var] = kInvalidEdge;
            ++idx[depth];
            continue;
          }
          edge_id_t e = slices[depth].EdgeAt(idx[depth]);
          if (state->EdgeAlreadyBound(e) ||
              (lists_[depth].edge_label_filter != kInvalidLabel &&
               graph_->edge_label(e) != lists_[depth].edge_label_filter)) {
            ++idx[depth];
            continue;
          }
          state->e[lists_[depth].target_edge_var] = e;
          ++depth;
        }
        state->v[target_var_] = kInvalidVertex;
      }
      i = group_end;
    }
  }

 private:
  const Graph* graph_;
  std::vector<ListDescriptor> lists_;
  int target_var_;
  std::vector<QueryComparison> residual_;
};

// Verbatim replica of the pre-optimization MultiExtendOp::Run (sort keys
// recomputed per comparison via ListDescriptor::SortKeyAt).
class ReferenceMultiExtendOp : public Operator {
 public:
  ReferenceMultiExtendOp(const Graph* graph, std::vector<ListDescriptor> lists)
      : graph_(graph), lists_(std::move(lists)) {}

  std::unique_ptr<Operator> Clone() const override {
    return std::make_unique<ReferenceMultiExtendOp>(graph_, lists_);
  }

  void Run(MatchState* state) override {
    size_t z = lists_.size();
    std::vector<AdjListSlice> slices(z);
    std::vector<uint32_t> pos(z);
    std::vector<uint32_t> ends(z);
    for (size_t l = 0; l < z; ++l) {
      slices[l] = lists_[l].Fetch(*state);
      auto [begin, end] = lists_[l].BoundedRange(slices[l]);
      pos[l] = begin;
      ends[l] = end;
      if (begin >= end) return;
    }
    std::vector<std::pair<uint32_t, uint32_t>> ranges(z);
    while (true) {
      int64_t max_key = INT64_MIN;
      for (size_t l = 0; l < z; ++l) {
        if (pos[l] >= ends[l]) return;
        int64_t key = lists_[l].SortKeyAt(slices[l], pos[l]);
        if (key > max_key) max_key = key;
      }
      bool all_equal = true;
      for (size_t l = 0; l < z; ++l) {
        while (pos[l] < ends[l] && lists_[l].SortKeyAt(slices[l], pos[l]) < max_key) ++pos[l];
        if (pos[l] >= ends[l]) return;
        if (lists_[l].SortKeyAt(slices[l], pos[l]) != max_key) all_equal = false;
      }
      if (!all_equal) continue;
      if (max_key == kNullSortKey) return;
      for (size_t l = 0; l < z; ++l) {
        uint32_t end = pos[l];
        while (end < ends[l] && lists_[l].SortKeyAt(slices[l], end) == max_key) ++end;
        ranges[l] = {pos[l], end};
      }
      EmitCombinations(state, slices, ranges, 0);
      for (size_t l = 0; l < z; ++l) pos[l] = ranges[l].second;
    }
  }

 private:
  void EmitCombinations(MatchState* state, const std::vector<AdjListSlice>& slices,
                        const std::vector<std::pair<uint32_t, uint32_t>>& ranges, size_t depth) {
    if (depth == lists_.size()) {
      if (ReferenceEvalResiduals(*graph_, residual_, *state)) Emit(state);
      return;
    }
    const ListDescriptor& list = lists_[depth];
    const AdjListSlice& slice = slices[depth];
    for (uint32_t i = ranges[depth].first; i < ranges[depth].second; ++i) {
      vertex_id_t n = slice.NbrAt(i);
      edge_id_t e = slice.EdgeAt(i);
      if (state->VertexAlreadyBound(n) || state->EdgeAlreadyBound(e)) continue;
      if (list.target_bound != kInvalidVertex && n != list.target_bound) continue;
      if (!list.EntryPassesLabels(*graph_, slice, i)) continue;
      state->v[list.target_vertex_var] = n;
      state->e[list.target_edge_var] = e;
      EmitCombinations(state, slices, ranges, depth + 1);
      state->v[list.target_vertex_var] = kInvalidVertex;
      state->e[list.target_edge_var] = kInvalidEdge;
    }
  }

  const Graph* graph_;
  std::vector<ListDescriptor> lists_;
  std::vector<QueryComparison> residual_;
};

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

struct CaseResult {
  std::string name;
  double seconds = 0.0;
  double ref_seconds = 0.0;
  uint64_t matches = 0;
  uint64_t tuples = 0;
  simd::Level simd = simd::Level::kScalar;  // dispatch level the case ran at

  double Speedup() const { return seconds > 0.0 ? ref_seconds / seconds : 0.0; }
};

// One intersection case: z source variables bound per tuple, one target.
struct IntersectCase {
  std::string name;
  std::vector<ListDescriptor> lists;
  std::vector<std::vector<vertex_id_t>> tuples;  // tuples[t][l] binds var l
  bool multi_extend = false;
  // Kernel-variant sweeps pin the dispatch level for this case; -1 keeps
  // whatever APLUS_SIMD resolved (the serving default).
  int forced_level = -1;
};

CaseResult RunCase(const Graph& graph, const IntersectCase& c, int reps) {
  size_t z = c.lists.size();
  int target_var = static_cast<int>(z);
  CaseResult result;
  result.name = c.name;
  result.tuples = c.tuples.size();
  simd::Level prev_level = simd::ActiveLevel();
  if (c.forced_level >= 0) {
    simd::SetLevel(static_cast<simd::Level>(c.forced_level));
  }
  result.simd = simd::ActiveLevel();

  // Optimized path: the real operators; reference path: the pre-PR
  // replicas. Both emit into the same counting sink.
  ProjectSinkOp sink(&graph, {}, 1, nullptr, /*row_budget=*/false);
  std::unique_ptr<Operator> op;
  std::unique_ptr<Operator> ref_op;
  if (c.multi_extend) {
    op = std::make_unique<MultiExtendOp>(&graph, c.lists, std::vector<QueryComparison>{});
    ref_op = std::make_unique<ReferenceMultiExtendOp>(&graph, c.lists);
  } else {
    op = std::make_unique<ExtendIntersectOp>(&graph, c.lists, target_var,
                                             std::vector<QueryComparison>{});
    ref_op = std::make_unique<ReferenceExtendIntersectOp>(&graph, c.lists, target_var);
  }
  op->set_next(&sink);
  ref_op->set_next(&sink);

  MatchState state;
  auto drive = [&](auto&& run_one) {
    state.Reset(static_cast<int>(z) + (c.multi_extend ? static_cast<int>(z) : 1),
                static_cast<int>(z));
    for (const std::vector<vertex_id_t>& tuple : c.tuples) {
      for (size_t l = 0; l < z; ++l) state.v[l] = tuple[l];
      run_one();
    }
    return state.count;
  };

  // In MULTI-EXTEND cases each list binds its own target vertex; the
  // bound source vars occupy [0, z) and the targets [z, 2z).
  double best = -1.0;
  uint64_t count = 0;
  for (int r = 0; r < reps + 1; ++r) {  // rep 0 is warm-up
    WallTimer timer;
    count = drive([&] { op->Run(&state); });
    double elapsed = timer.ElapsedSeconds();
    if (r > 0 && (best < 0.0 || elapsed < best)) best = elapsed;
  }
  result.seconds = best;
  result.matches = count;

  double ref_best = -1.0;
  uint64_t ref_count = 0;
  for (int r = 0; r < reps + 1; ++r) {
    WallTimer timer;
    ref_count = drive([&] { ref_op->Run(&state); });
    double elapsed = timer.ElapsedSeconds();
    if (r > 0 && (ref_best < 0.0 || elapsed < ref_best)) ref_best = elapsed;
  }
  result.ref_seconds = ref_best;
  APLUS_CHECK_EQ(count, ref_count) << "optimized and reference paths disagree on " << c.name;
  if (c.forced_level >= 0) simd::SetLevel(prev_level);
  return result;
}

}  // namespace

int main() {
  double scale = ScaleFromEnv(0.02);
  uint64_t num_tuples = IntFromEnv("APLUS_INTERSECT_TUPLES", 4000);
  int reps = static_cast<int>(IntFromEnv("APLUS_INTERSECT_REPS", 3));

  Graph graph;
  PowerLawParams params;
  params.num_vertices = std::max<uint64_t>(2000, static_cast<uint64_t>(1000000 * scale));
  params.avg_degree = 16.0;
  params.preferential_fraction = 0.85;  // heavy skew: hubs vs long tail
  GeneratePowerLawGraph(params, &graph);
  label_t elabel = graph.catalog().FindEdgeLabel("E");
  label_t vlabel = graph.catalog().FindVertexLabel("V");
  const uint64_t pool = graph.num_vertices();  // synthetic targets come from the base

  // Controlled-intersection source groups appended to the power-law
  // base: for each (z, ratio) shape, kGroups groups of z fresh source
  // vertices whose forward lists have the given length ratio and share
  // only a small planted set of common targets. Probing (frontier /
  // galloping / offset decoding) dominates the measured time instead of
  // result enumeration, which is identical code on both paths.
  constexpr size_t kGroups = 8;
  constexpr size_t kCommon = 16;
  const uint32_t pivot_len = static_cast<uint32_t>(std::min<uint64_t>(1024, pool / 16));
  Rng srng(23);
  std::vector<uint8_t> used(pool, 0);
  auto build_group_set = [&](size_t z, uint32_t ratio) {
    std::vector<std::vector<vertex_id_t>> groups;
    for (size_t g = 0; g < kGroups; ++g) {
      std::vector<vertex_id_t> commons;
      while (commons.size() < kCommon) {
        vertex_id_t t = static_cast<vertex_id_t>(srng.NextBounded(pool));
        if (!used[t]) {
          used[t] = 1;
          commons.push_back(t);
        }
      }
      for (vertex_id_t t : commons) used[t] = 0;
      std::vector<vertex_id_t> sources;
      for (size_t l = 0; l < z; ++l) {
        uint32_t len = l == 0 ? pivot_len
                              : static_cast<uint32_t>(std::min<uint64_t>(
                                    static_cast<uint64_t>(pivot_len) * ratio, pool / 2));
        vertex_id_t src = graph.AddVertex(vlabel);
        std::vector<vertex_id_t> targets = commons;
        for (vertex_id_t t : commons) used[t] = 1;
        while (targets.size() < len) {
          vertex_id_t t = static_cast<vertex_id_t>(srng.NextBounded(pool));
          if (!used[t]) {
            used[t] = 1;
            targets.push_back(t);
          }
        }
        for (vertex_id_t t : targets) {
          graph.AddEdge(src, t, elabel);
          used[t] = 0;
        }
        sources.push_back(src);
      }
      groups.push_back(std::move(sources));
    }
    return groups;
  };
  // groups[z - 2][skewed]: ratio 8 when skewed, 1 when balanced.
  std::vector<std::array<std::vector<std::vector<vertex_id_t>>, 2>> group_sets;
  for (size_t z : {2, 3, 4}) {
    std::array<std::vector<std::vector<vertex_id_t>>, 2> sets;
    sets[0] = build_group_set(z, 1);  // balanced
    sets[1] = build_group_set(z, 8);  // skewed lengths
    group_sets.push_back(std::move(sets));
  }

  // Small-domain edge weight for the MULTI-EXTEND merge cases.
  prop_key_t weight = graph.AddEdgeProperty("w", ValueType::kInt64);
  PropertyColumn* wcol = graph.edge_props().mutable_column(weight);
  Rng wrng(11);
  for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
    wcol->SetInt64(e, static_cast<int64_t>(wrng.NextBounded(64)));
  }

  PrimaryIndex primary(&graph, Direction::kFwd);
  primary.Build(IndexConfig::Default());
  // All-edges VP index: shares the primary partition levels and stores
  // permuted offset lists, the Section III-B3 representation.
  OneHopViewDef all_edges;
  all_edges.name = "all";
  VpIndex vp(&graph, &primary, all_edges, IndexConfig::Default());
  vp.Build();
  // Property-sorted variants driving the MULTI-EXTEND merge: a second
  // primary (direct lists) and a VP index (offset lists), both sorted on
  // the edge weight.
  IndexConfig weight_config = IndexConfig::Default();
  weight_config.sorts.clear();
  weight_config.sorts.push_back({SortSource::kEdgeProp, weight});
  PrimaryIndex primary_w(&graph, Direction::kFwd);
  primary_w.Build(weight_config);
  OneHopViewDef all_edges_w;
  all_edges_w.name = "all_w";
  VpIndex vp_w(&graph, &primary, all_edges_w, weight_config);
  vp_w.Build();

  // Degree-ranked vertices of the power-law base (synthetic sources
  // excluded): hubs give long lists, the mid band moderate ones, used by
  // the natural-graph cases.
  std::vector<uint32_t> degrees(pool);
  for (vertex_id_t v = 0; v < pool; ++v) degrees[v] = primary.GetFullList(v).len;
  std::vector<vertex_id_t> by_degree(pool);
  std::iota(by_degree.begin(), by_degree.end(), 0);
  std::sort(by_degree.begin(), by_degree.end(),
            [&degrees](vertex_id_t a, vertex_id_t b) { return degrees[a] > degrees[b]; });
  std::vector<vertex_id_t> hubs(by_degree.begin(),
                                by_degree.begin() + std::min<size_t>(16, by_degree.size()));
  // Mid-degree vertices with non-empty lists for the balanced cases.
  std::vector<vertex_id_t> mids;
  for (size_t i = by_degree.size() / 8; i < by_degree.size() && mids.size() < 4096; ++i) {
    if (primary.GetFullList(by_degree[i]).len > 0) mids.push_back(by_degree[i]);
  }
  APLUS_CHECK(!mids.empty());

  Rng rng(7);
  auto make_tuples = [&](size_t z, bool skewed) {
    std::vector<std::vector<vertex_id_t>> tuples;
    tuples.reserve(num_tuples);
    for (uint64_t t = 0; t < num_tuples; ++t) {
      std::vector<vertex_id_t> tuple;
      for (size_t l = 0; l < z; ++l) {
        // Skewed cases intersect hub lists with tail lists (the paper's
        // power-law graphs make this the common shape); balanced cases
        // draw every side from the mid-degree band.
        vertex_id_t v = skewed && l == 0 ? hubs[t % hubs.size()]
                                         : mids[rng.NextBounded(mids.size())];
        while (std::find(tuple.begin(), tuple.end(), v) != tuple.end()) {
          v = mids[rng.NextBounded(mids.size())];
        }
        tuple.push_back(v);
      }
      tuples.push_back(std::move(tuple));
    }
    return tuples;
  };

  auto make_list = [&](int bound_var, int target_var, int target_edge_var, bool offset) {
    ListDescriptor desc;
    if (offset) {
      desc.source = ListDescriptor::Source::kVp;
      desc.vp = &vp;
    } else {
      desc.source = ListDescriptor::Source::kPrimary;
      desc.primary = &primary;
    }
    desc.bound_var = bound_var;
    desc.cats = {elabel};
    desc.target_vertex_var = target_var;
    desc.target_edge_var = target_edge_var;
    desc.nbr_sorted = true;
    return desc;
  };
  auto make_weight_list = [&](int bound_var, int target_var, int target_edge_var, bool offset) {
    ListDescriptor desc;
    if (offset) {
      desc.source = ListDescriptor::Source::kVp;
      desc.vp = &vp_w;
    } else {
      desc.source = ListDescriptor::Source::kPrimary;
      desc.primary = &primary_w;
    }
    desc.bound_var = bound_var;
    desc.cats = {elabel};
    desc.target_vertex_var = target_var;
    desc.target_edge_var = target_edge_var;
    return desc;
  };

  auto make_group_tuples = [&](const std::vector<std::vector<vertex_id_t>>& groups) {
    std::vector<std::vector<vertex_id_t>> tuples;
    tuples.reserve(num_tuples);
    for (uint64_t t = 0; t < num_tuples; ++t) tuples.push_back(groups[t % groups.size()]);
    return tuples;
  };

  std::vector<IntersectCase> cases;
  // Controlled shapes: skew = 8x length ratio between the pivot and the
  // probed lists, balanced = equal lengths; both with a small planted
  // intersection.
  for (size_t z : {2, 3, 4}) {
    for (bool skewed : {true, false}) {
      if (!skewed && z == 4) continue;  // keep the matrix small
      for (bool offset : {false, true}) {
        if (!skewed && offset) continue;
        IntersectCase c;
        c.name = "z" + std::to_string(z) + (skewed ? "_skew" : "_balanced") +
                 (offset ? "_offset" : "_direct");
        for (size_t l = 0; l < z; ++l) {
          c.lists.push_back(
              make_list(static_cast<int>(l), static_cast<int>(z), static_cast<int>(l), offset));
        }
        c.tuples = make_group_tuples(group_sets[z - 2][skewed ? 1 : 0]);
        cases.push_back(std::move(c));
      }
    }
  }
  // Natural power-law cases (hub list x mid lists): result enumeration
  // dominates, so these track the end-to-end emission path instead.
  for (size_t z : {2, 3}) {
    IntersectCase c;
    c.name = "z" + std::to_string(z) + "_natural_direct";
    for (size_t l = 0; l < z; ++l) {
      c.lists.push_back(
          make_list(static_cast<int>(l), static_cast<int>(z), static_cast<int>(l), false));
    }
    c.tuples = make_tuples(z, /*skewed=*/true);
    cases.push_back(std::move(c));
  }
  // MULTI-EXTEND merge on the weight-sorted lists: z lists bound to z
  // distinct sources, each binding its own target for every combination
  // of entries agreeing on the weight.
  for (size_t z : {2, 3}) {
    for (bool offset : {false, true}) {
      IntersectCase c;
      c.name = "z" + std::to_string(z) + "_multiext" + (offset ? "_offset" : "_direct");
      c.multi_extend = true;
      for (size_t l = 0; l < z; ++l) {
        c.lists.push_back(make_weight_list(static_cast<int>(l), static_cast<int>(z + l),
                                           static_cast<int>(l), offset));
      }
      c.tuples = make_tuples(z, /*skewed=*/true);
      cases.push_back(std::move(c));
    }
  }
  // Kernel-variant A/B sweep: the representative skewed shape, direct
  // and offset, pinned to each dispatch level this host can execute
  // (z3_skew_scalar / z3_skew_sse / z3_skew_avx2, ...). Levels the host
  // lacks emit no case; scripts/bench_compare.py skips them via the
  // per-case "simd" field instead of failing the gate.
  for (bool offset : {false, true}) {
    for (simd::Level level : {simd::Level::kScalar, simd::Level::kSse, simd::Level::kAvx2}) {
      if (level > simd::HostMaxLevel()) continue;
      IntersectCase c;
      c.name = std::string("z3_skew") + (offset ? "_offset_" : "_") + simd::ToString(level);
      for (size_t l = 0; l < 3; ++l) {
        c.lists.push_back(make_list(static_cast<int>(l), 3, static_cast<int>(l), offset));
      }
      c.tuples = make_group_tuples(group_sets[1][1]);
      c.forced_level = static_cast<int>(level);
      cases.push_back(std::move(c));
    }
  }

  PrintBanner("Intersection hot path: optimized vs pre-optimization reference (" +
              TablePrinter::Count(graph.num_edges()) + " edges, " +
              TablePrinter::Count(num_tuples) + " tuples/case, simd=" +
              simd::ToString(simd::ActiveLevel()) + ", host max " +
              simd::ToString(simd::HostMaxLevel()) + ")");
  TablePrinter table({"Case", "simd", "optimized", "reference", "speedup", "matches"});
  std::vector<CaseResult> results;
  for (const IntersectCase& c : cases) {
    CaseResult r = RunCase(graph, c, reps);
    table.AddRow({r.name, simd::ToString(r.simd), TablePrinter::Seconds(r.seconds),
                  TablePrinter::Seconds(r.ref_seconds),
                  TablePrinter::Speedup(r.ref_seconds, r.seconds), TablePrinter::Count(r.matches)});
    results.push_back(r);
  }
  table.Print();
  std::printf(
      "\nShape: speedup grows with z and with list-length skew (monotone\n"
      "frontiers turn repeated binary-search restarts into short gallops),\n"
      "and offset-list cases gain from batch-decoding probed lists.\n");

  const char* json_path = std::getenv("APLUS_BENCH_JSON");
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    APLUS_CHECK(f != nullptr) << "cannot write " << json_path;
    std::fprintf(f, "{\n  \"bench\": \"bench_intersect\",\n  \"host_simd\": \"%s\",\n  \"cases\": {\n",
                 simd::ToString(simd::HostMaxLevel()));
    for (size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      std::fprintf(f,
                   "    \"%s\": {\"seconds\": %.6f, \"reference_seconds\": %.6f, "
                   "\"speedup\": %.3f, \"simd\": \"%s\", \"matches\": %llu}%s\n",
                   r.name.c_str(), r.seconds, r.ref_seconds, r.Speedup(),
                   simd::ToString(r.simd), static_cast<unsigned long long>(r.matches),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("Wrote per-case metrics to %s\n", json_path);
  }
  return 0;
}
