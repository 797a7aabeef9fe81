#include "query/operators.h"

#include <algorithm>

#include "query/intersect_kernels.h"
#include "util/logging.h"
#include "util/memory_tracker.h"

namespace aplus {

namespace {

// First position in [from, end) whose neighbour ID is >= n (kLower) or
// > n (kUpper), found by galloping (exponential) search: double the step
// from `from` until overshooting, then binary-search the bracketed
// window. Cost is O(log d) in the distance d actually advanced, so a
// sequence of k ascending probes over a list of length L costs
// O(k log(L/k)) total instead of k full O(log L) restarts.
enum class GallopBound { kLower, kUpper };

template <GallopBound kBound, typename NbrFn>
uint32_t GallopSearch(const NbrFn& nbr_at, uint32_t from, uint32_t end, vertex_id_t n) {
  auto below = [&](uint32_t i) {
    return kBound == GallopBound::kLower ? nbr_at(i) < n : nbr_at(i) <= n;
  };
  if (from >= end || !below(from)) return from;
  // Invariant: below(lo); widen until hi = lo + step overshoots.
  uint64_t lo = from;
  uint64_t step = 1;
  while (lo + step < end && below(static_cast<uint32_t>(lo + step))) {
    lo += step;
    step <<= 1;
  }
  uint64_t hi = lo + step < end ? lo + step : end;
  while (lo + 1 < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (below(static_cast<uint32_t>(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return static_cast<uint32_t>(hi);
}

// Equal range of neighbour `n` within [from, end) of a neighbour-ID
// sorted run, galloping from `from` (a monotone frontier or the range
// start).
template <typename NbrFn>
std::pair<uint32_t, uint32_t> GallopEqualRange(const NbrFn& nbr_at, uint32_t from, uint32_t end,
                                               vertex_id_t n) {
  uint32_t first = GallopSearch<GallopBound::kLower>(nbr_at, from, end, n);
  if (first == end || nbr_at(first) != n) return {first, first};
  uint32_t last = GallopSearch<GallopBound::kUpper>(nbr_at, first, end, n);
  return {first, last};
}

// Equal range of `n` within the bounded range of a slice. Direct lists
// expose a flat sorted array, so the dispatched SIMD kernel runs on it;
// offset and packed lists keep the lambda gallop (per-probe
// LoadFixedWidth reads / cursor-cached varint block decodes).
std::pair<uint32_t, uint32_t> EqualRangeByNbr(const AdjListSlice& slice, vertex_id_t n,
                                              uint32_t begin, uint32_t end) {
  if (slice.is_direct()) {
    return simd::EqualRange(simd::Active(), slice.nbrs, begin, end, n);
  }
  return GallopEqualRange([&slice](uint32_t i) { return slice.NbrAt(i); }, begin, end, n);
}

// True when a list of length `len` probed `probes` times should be
// batch-decoded out of its offset representation: galloping costs about
// log2(len) indirections per probe, so decoding (one pass over len
// entries) wins once probes * log2(len) exceeds len.
bool ShouldDecode(uint64_t probes, uint64_t len) {
  if (len == 0) return false;
  uint32_t log2_len = 1;
  while ((1ULL << log2_len) < len) ++log2_len;
  return probes * log2_len >= len;
}

// Slice-aware variant: a point probe into a packed (varint) list decodes
// a whole codec block per touched entry, roughly an order of magnitude
// more work than a fixed-width offset read, so packing tilts the
// heuristic decode-ward.
bool ShouldDecodeSlice(const AdjListSlice& slice, uint64_t probes, uint64_t len) {
  return ShouldDecode(slice.is_packed() ? probes * 8 : probes, len);
}

// Batch-decode dispatch over the two non-direct representations behind
// the chokepoint: fixed-width offset lists (decode_nbrs/decode_entries)
// and packed varint streams (decode_varint_block). Operators stay
// representation-agnostic; this is the single seam.
void DecodeSliceNbrs(const simd::Kernels& kern, const AdjListSlice& s, uint32_t begin,
                     uint32_t count, vertex_id_t* out) {
  if (s.is_packed()) {
    kern.decode_varint_block(s.packed, s.packed_base + begin, count, out, nullptr);
  } else {
    kern.decode_nbrs(s.nbrs, s.offsets, s.offset_width, begin, count, out);
  }
}

void DecodeSliceEntries(const simd::Kernels& kern, const AdjListSlice& s, uint32_t begin,
                        uint32_t count, vertex_id_t* out_nbrs, edge_id_t* out_edges) {
  if (s.is_packed()) {
    kern.decode_varint_block(s.packed, s.packed_base + begin, count, out_nbrs, out_edges);
  } else {
    kern.decode_entries(s.nbrs, s.edges, s.offsets, s.offset_width, begin, count, out_nbrs,
                        out_edges);
  }
}

bool EvalResiduals(const Graph& graph, const std::vector<QueryComparison>& preds,
                   const MatchState& state) {
  for (const QueryComparison& cmp : preds) {
    if (!EvalQueryComparison(graph, cmp, state)) return false;
  }
  return true;
}

// Shared CollectParamSlots pieces: a list's materialized target pin, its
// $param-backed sort-key bounds, and the $param constants of a
// residual-conjunct vector.
void CollectListPin(ListDescriptor* list, ParamSlots* slots) {
  if (list->target_bound != kInvalidVertex && list->target_vertex_var >= 0) {
    slots->pins.push_back({list->target_vertex_var, &list->target_bound});
  }
  if (list->upper_bound_param >= 0) {
    slots->ranges.push_back(
        {list->upper_bound_param, &list->upper_bound, list->bound_param_double});
  }
  if (list->lower_bound_param >= 0) {
    slots->ranges.push_back(
        {list->lower_bound_param, &list->lower_bound, list->bound_param_double});
  }
}

void CollectPredSlots(std::vector<QueryComparison>* preds, ParamSlots* slots) {
  for (QueryComparison& cmp : *preds) {
    if (cmp.rhs_param >= 0) slots->values.push_back({cmp.rhs_param, &cmp.rhs_const});
  }
}

}  // namespace

AdjListSlice ListDescriptor::Fetch(const MatchState& state) const {
  switch (source) {
    case Source::kPrimary:
      // Snapshot probe: merges the page's delta buffer into the view
      // when an ingest writer is active; degenerates to the zero-copy
      // run slice on a clean page. Secondary indexes have no delta
      // layer (concurrent ingest forbids them), so they read runs.
      return primary->GetListSnapshot(state.v[bound_var], cats, &merge_scratch);
    case Source::kVp:
      return vp->GetList(state.v[bound_var], cats);
    case Source::kEp:
      return ep->GetList(state.e[bound_var], cats);
  }
  APLUS_CHECK(false) << "corrupt ListDescriptor source " << static_cast<int>(source);
  __builtin_unreachable();
}

const std::vector<SortCriterion>& ListDescriptor::sorts() const {
  switch (source) {
    case Source::kPrimary:
      return primary->config().sorts;
    case Source::kVp:
      return vp->config().sorts;
    case Source::kEp:
      return ep->config().sorts;
  }
  APLUS_CHECK(false) << "corrupt ListDescriptor source " << static_cast<int>(source);
  __builtin_unreachable();
}

const Graph* ListDescriptor::graph() const {
  switch (source) {
    case Source::kPrimary:
      return primary->graph();
    case Source::kVp:
      return vp->primary()->graph();
    case Source::kEp:
      return ep->base_primary()->graph();
  }
  APLUS_CHECK(false) << "corrupt ListDescriptor source " << static_cast<int>(source);
  __builtin_unreachable();
}

int64_t ListDescriptor::SortKeyAt(const AdjListSlice& slice, uint32_t i) const {
  const std::vector<SortCriterion>& criteria = sorts();
  APLUS_DCHECK(!criteria.empty());
  return EntrySortKey(*graph(), criteria.front(), slice.EdgeAt(i), slice.NbrAt(i));
}

std::pair<uint32_t, uint32_t> ListDescriptor::BoundedRange(const AdjListSlice& slice) const {
  uint32_t begin = 0;
  uint32_t end = slice.len;
  if (has_lower_bound) {
    uint32_t lo = 0;
    uint32_t hi = slice.len;
    // First entry with key > bound (strict) or key >= bound.
    while (lo < hi) {
      uint32_t mid = lo + (hi - lo) / 2;
      int64_t key = SortKeyAt(slice, mid);
      bool below = lower_strict ? key <= lower_bound : key < lower_bound;
      if (below) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    begin = lo;
  }
  // A bound always comes from a range predicate on the sort key (or a
  // label pin, which installs both sides), and predicates on null
  // values compare false — so a lower-bound-only range must still stop
  // before the null tail (null keys sort last as kNullSortKey; a pure
  // `key > c` search would otherwise swallow them). An explicit upper
  // bound caps the range below the tail on its own — except a
  // non-strict bound AT kNullSortKey (`key <= INT64_MAX`), which
  // tightens to strict so the tail stays excluded.
  int64_t upper = has_upper_bound ? upper_bound : kNullSortKey;
  bool upper_is_strict = has_upper_bound ? upper_strict : true;
  if (upper == kNullSortKey) upper_is_strict = true;
  if (has_upper_bound || has_lower_bound) {
    uint32_t lo = begin;
    uint32_t hi = slice.len;
    // First entry with key >= bound (strict) or key > bound.
    while (lo < hi) {
      uint32_t mid = lo + (hi - lo) / 2;
      int64_t key = SortKeyAt(slice, mid);
      bool below = upper_is_strict ? key < upper : key <= upper;
      if (below) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    end = lo;
  }
  return {begin, end};
}

std::string ListDescriptor::Describe(const Catalog& catalog, const QueryGraph& query) const {
  std::string out;
  switch (source) {
    case Source::kPrimary:
      out = query.vertex(bound_var).name + "(" + ToString(primary->direction()) + " primary";
      break;
    case Source::kVp:
      out = query.vertex(bound_var).name + "(" + ToString(vp->direction()) + " VP:" + vp->name();
      break;
    case Source::kEp:
      out = query.edge(bound_var).name + "(EP:" + ep->name();
      break;
  }
  if (!cats.empty()) {
    out += " cats=[";
    for (size_t i = 0; i < cats.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(cats[i]);
    }
    out += "]";
  }
  out += ")->" + (target_vertex_var >= 0 ? query.vertex(target_vertex_var).name : "?");
  (void)catalog;
  return out;
}

bool ScanOp::Bind(MatchState* state, vertex_id_t v) const {
  state->v[var_] = v;
  if (label_ != kInvalidLabel && graph_->vertex_label(v) != label_) return false;
  return EvalResiduals(*graph_, preds_, *state);
}

void ScanOp::ScanRange(MatchState* state, uint64_t begin, uint64_t end) {
  for (uint64_t v = begin; v < end; ++v) {
    if (token_ != nullptr) {
      if (token_->stop_requested()) break;
      // Serial scans have no per-morsel clock check: sample the deadline
      // every 1024 source vertices instead.
      if (((v - begin) & 1023u) == 1023u && token_->PollClock()) break;
    }
    if (Bind(state, static_cast<vertex_id_t>(v))) Emit(state);
  }
  state->v[var_] = kInvalidVertex;
}

void ScanOp::Run(MatchState* state) {
  auto [begin, end] = ScanDomain();
  ScanRange(state, begin, end);
}

void ScanOp::RunMorsels(MatchState* state, MorselCursor* cursor) {
  uint64_t begin = 0;
  uint64_t end = 0;
  while (cursor->Next(&begin, &end)) {
    if (token_ != nullptr && token_->PollClock()) return;
    ScanRange(state, begin, end);
  }
}

void ScanOp::CollectParamSlots(ParamSlots* slots) {
  if (bound_ != kInvalidVertex) slots->pins.push_back({var_, &bound_});
  for (QueryComparison& cmp : preds_) {
    if (cmp.rhs_param >= 0) slots->values.push_back({cmp.rhs_param, &cmp.rhs_const});
  }
}

std::string ScanOp::Describe() const {
  std::string out = "Scan v" + std::to_string(var_);
  if (bound_ != kInvalidVertex) out += " id=" + std::to_string(bound_);
  if (label_ != kInvalidLabel) out += " label=" + std::to_string(label_);
  if (!preds_.empty()) out += " +" + std::to_string(preds_.size()) + " preds";
  return out;
}

bool ExtendOp::BindEntry(MatchState* state, const AdjListSlice& slice, uint32_t i) {
  edge_id_t e = slice.EdgeAt(i);
  if (state->EdgeAlreadyBound(e)) return false;
  if (!list_.EntryPassesLabels(*graph_, slice, i)) return false;
  vertex_id_t n = slice.NbrAt(i);
  if (list_.target_bound != kInvalidVertex && n != list_.target_bound) return false;
  if (!closing_) {
    if (state->VertexAlreadyBound(n)) return false;
    state->v[list_.target_vertex_var] = n;
  }
  state->e[list_.target_edge_var] = e;
  if (EvalResiduals(*graph_, residual_, *state)) return true;
  Unbind(state);
  return false;
}

void ExtendOp::Unbind(MatchState* state) const {
  state->e[list_.target_edge_var] = kInvalidEdge;
  if (!closing_) state->v[list_.target_vertex_var] = kInvalidVertex;
}

void ExtendOp::AcceptEntry(MatchState* state, const AdjListSlice& slice, uint32_t i) {
  if (!BindEntry(state, slice, i)) return;
  Emit(state);
  Unbind(state);
}

uint64_t ExtendOp::CountRange(const MatchState& state, const AdjListSlice& slice,
                              uint32_t begin, uint32_t end) const {
  uint64_t count = end - begin;
  for (vertex_id_t u : state.v) {
    if (u == kInvalidVertex) continue;
    auto [first, last] = EqualRangeByNbr(slice, u, begin, end);
    count -= last - first;
  }
  return count;
}

uint64_t ExtendOp::CountRangeByBinding(MatchState* state, const AdjListSlice& slice,
                                       uint32_t begin, uint32_t end) {
  uint64_t count = 0;
  for (uint32_t i = begin; i < end; ++i) {
    if (!BindEntry(state, slice, i)) continue;
    ++count;
    Unbind(state);
  }
  return count;
}

void ExtendOp::set_next(Operator* next) {
  Operator::set_next(next);
  prefetch_.clear();
  counting_ = next->counts_only() && !closing_ && residual_.empty() &&
              list_.edge_label_filter == kInvalidLabel &&
              list_.target_vertex_label == kInvalidLabel &&
              list_.target_bound == kInvalidVertex &&
              list_.source != ListDescriptor::Source::kEp && list_.nbr_sorted;
  if (closing_) return;
  auto [lists, count] = next->lists();
  for (size_t l = 0; l < count; ++l) {
    if (lists[l].source == ListDescriptor::Source::kPrimary &&
        lists[l].bound_var == list_.target_vertex_var) {
      prefetch_.push_back(&lists[l]);
    }
  }
}

void ExtendOp::EnumerateRange(MatchState* state, const AdjListSlice& slice, uint64_t begin,
                              uint64_t end) {
  if (counting_) {
    const uint64_t count =
        CountRange(*state, slice, static_cast<uint32_t>(begin), static_cast<uint32_t>(end));
    APLUS_DCHECK(count == CountRangeByBinding(state, slice, static_cast<uint32_t>(begin),
                                              static_cast<uint32_t>(end)))
        << "counting EXTEND disagrees with its entry loop";
    state->count += count;
    return;
  }
  if (prefetch_.empty()) {
    for (uint32_t i = static_cast<uint32_t>(begin); i < end; ++i) {
      if ((i & 63u) == 0 && token_ != nullptr && CheckStop()) return;
      AcceptEntry(state, slice, i);
    }
    return;
  }
  // Group prefetching: a first pass over a group of entries filters them,
  // then the next hop's lists of the entries that passed load in stages
  // (CSR bounds, then ID lines or skip entries, then packed blocks), each
  // stage over the whole group, so the misses of those lists overlap
  // instead of queueing behind each other inside the push-based
  // recursion; a last pass emits them. Filtering first keeps a selective
  // residual from prefetching lists no operator reads.
  const int var = list_.target_vertex_var;
  const int edge_var = list_.target_edge_var;
  for (uint64_t group = begin; group < end; group += kPrefetchGroup) {
    uint32_t group_end = static_cast<uint32_t>(std::min<uint64_t>(end, group + kPrefetchGroup));
    uint32_t passed = 0;
    for (uint32_t i = static_cast<uint32_t>(group); i < group_end; ++i) {
      if ((i & 63u) == 0 && token_ != nullptr && CheckStop()) return;
      if (!BindEntry(state, slice, i)) continue;
      group_[passed++] = {state->v[var], state->e[edge_var]};
      Unbind(state);
    }
    bool more = passed > 0;
    for (int stage = 0; more && stage < PrimaryIndex::kPrefetchStages; ++stage) {
      more = false;
      for (uint32_t k = 0; k < passed; ++k) {
        for (const ListDescriptor* list : prefetch_) more |= list->Prefetch(stage, group_[k].first);
      }
    }
    for (uint32_t k = 0; k < passed; ++k) {
      state->v[var] = group_[k].first;
      state->e[edge_var] = group_[k].second;
      Emit(state);
    }
    Unbind(state);
  }
}

void ExtendOp::Run(MatchState* state) {
  AdjListSlice slice = list_.Fetch(*state);
  auto [begin, end] = list_.BoundedRange(slice);
  if (!closing_) {
    EnumerateRange(state, slice, begin, end);
    return;
  }
  vertex_id_t target = state->v[list_.target_vertex_var];
  APLUS_DCHECK(target != kInvalidVertex);
  // Membership probe: binary search when the list is neighbour-sorted,
  // linear scan otherwise.
  if (list_.nbr_sorted) {
    auto [first, last] = EqualRangeByNbr(slice, target, begin, end);
    for (uint32_t i = first; i < last; ++i) AcceptEntry(state, slice, i);
  } else {
    for (uint32_t i = begin; i < end; ++i) {
      if (slice.NbrAt(i) == target) AcceptEntry(state, slice, i);
    }
  }
}

void ExtendOp::RunEntries(MatchState* state, AdjListSlice slice, MorselCursor* cursor) {
  // The PackedCursor one-block cache is single-threaded: every replica
  // decodes the shared stream through the cache of its own descriptor.
  if (slice.is_packed()) slice.cursor = &list_.merge_scratch.packed_cursor;
  uint64_t begin = 0;
  uint64_t end = 0;
  while (cursor->Next(&begin, &end)) {
    if (token_ != nullptr && token_->PollClock()) return;
    EnumerateRange(state, slice, begin, end);
  }
}

void ExtendOp::CollectParamSlots(ParamSlots* slots) {
  CollectListPin(&list_, slots);
  CollectPredSlots(&residual_, slots);
}

std::string ExtendOp::Describe() const {
  std::string out = closing_ ? "Extend(close) " : "Extend ";
  out += "list_src_var=" + std::to_string(list_.bound_var);
  out += " -> v" + std::to_string(list_.target_vertex_var);
  if (!residual_.empty()) out += " +" + std::to_string(residual_.size()) + " residual";
  return out;
}

ExtendIntersectOp::ExtendIntersectOp(const Graph* graph, std::vector<ListDescriptor> lists,
                                     int target_vertex_var,
                                     std::vector<QueryComparison> residual)
    : graph_(graph),
      lists_(std::move(lists)),
      target_var_(target_vertex_var),
      residual_(std::move(residual)) {
  APLUS_CHECK_GE(lists_.size(), 2u) << "E/I with z >= 2; use ExtendOp for one list";
  for (const ListDescriptor& list : lists_) {
    APLUS_CHECK(list.nbr_sorted)
        << "E/I requires (effectively) neighbour-ID sorted lists";
    if (list.target_vertex_label != kInvalidLabel) target_label_ = list.target_vertex_label;
    if (list.target_bound != kInvalidVertex) target_bound_ = list.target_bound;
  }
  probes_.resize(lists_.size());
  ranges_.resize(lists_.size());
  idx_.resize(lists_.size());
}

std::unique_ptr<Operator> ExtendIntersectOp::Clone() const {
  auto clone = std::make_unique<ExtendIntersectOp>(graph_, lists_, target_var_, residual_);
  for (size_t l = 0; l < probes_.size(); ++l) {
    clone->probes_[l].decode_buf.reserve(probes_[l].decode_buf.capacity());
  }
  return clone;
}

void ExtendIntersectOp::Run(MatchState* state) {
  const simd::Kernels& kern = simd::Active();
  size_t z = lists_.size();
  size_t pivot = 0;
  for (size_t l = 0; l < z; ++l) {
    ProbeList& pl = probes_[l];
    pl.slice = lists_[l].Fetch(*state);
    auto [begin, end] = lists_[l].BoundedRange(pl.slice);
    pl.begin = begin;
    pl.end = end;
    pl.frontier = begin;
    pl.decoded = nullptr;
    if (begin >= end) return;  // empty input: the intersection is empty
    if (pl.len() < probes_[pivot].len()) pivot = l;
  }
  // Probe-count estimate for the decode heuristic: with a pinned target
  // at most one candidate group is ever probed, so decoding would copy a
  // whole list for a single binary search.
  const uint32_t pivot_len = target_bound_ != kInvalidVertex ? 1 : probes_[pivot].len();
  for (size_t l = 0; l < z; ++l) {
    ProbeList& pl = probes_[l];
    if (l == pivot || pl.slice.is_direct() || !ShouldDecodeSlice(pl.slice, pivot_len, pl.len())) {
      continue;
    }
    // Batch-decode via the dispatched kernel (gathers under AVX2); the
    // buffer keeps its plan-lifetime capacity across executions. Growth
    // is plan scratch and charges the query's budget.
    if (pl.decode_buf.size() < pl.len()) {
      const uint64_t grow =
          static_cast<uint64_t>(pl.len() - pl.decode_buf.size()) * sizeof(vertex_id_t);
      if (budget_ != nullptr && !budget_->Charge(grow)) {
        if (token_ != nullptr) token_->RequestStop(StopReason::kResourceExhausted);
        return;
      }
      pl.decode_buf.resize(pl.len());
    }
    DecodeSliceNbrs(kern, pl.slice, pl.begin, pl.len(), pl.decode_buf.data());
    pl.decoded = pl.decode_buf.data();
  }
  const ProbeList& ps = probes_[pivot];

  uint32_t i = ps.begin;
  while (i < ps.end) {
    if (token_ != nullptr) {
      // Flag check per pivot group; clock check every 256 groups.
      if ((poll_tick_++ & 255u) == 0 ? token_->PollClock() : token_->stop_requested()) {
        return;
      }
    }
    vertex_id_t n = ps.NbrAt(i);
    uint32_t group_end = i + 1;
    while (group_end < ps.end && ps.NbrAt(group_end) == n) ++group_end;
    if (state->VertexAlreadyBound(n) ||
        (target_bound_ != kInvalidVertex && n != target_bound_) ||
        (target_label_ != kInvalidLabel && graph_->vertex_label(n) != target_label_)) {
      i = group_end;
      continue;
    }
    bool all_present = true;
    for (size_t l = 0; l < z && all_present; ++l) {
      if (l == pivot) {
        ranges_[l] = {i, group_end};
        continue;
      }
      // Candidates ascend, so resume from the frontier left by the
      // previous probe instead of restarting at the range start. Decoded
      // batches and direct lists are flat sorted arrays — probe them with
      // the dispatched SIMD kernel; undecoded offset lists gallop through
      // the per-entry indirection.
      ProbeList& pl = probes_[l];
      if (pl.decoded != nullptr) {
        auto [first, last] = simd::EqualRange(kern, pl.decoded, pl.frontier - pl.begin,
                                              pl.end - pl.begin, n);
        ranges_[l] = {first + pl.begin, last + pl.begin};
      } else if (pl.slice.is_direct()) {
        ranges_[l] = simd::EqualRange(kern, pl.slice.nbrs, pl.frontier, pl.end, n);
      } else {
        ranges_[l] =
            GallopEqualRange([&pl](uint32_t j) { return pl.NbrAt(j); }, pl.frontier, pl.end, n);
      }
      pl.frontier = ranges_[l].second;
      all_present = ranges_[l].first < ranges_[l].second;
    }
    if (all_present) {
      state->v[target_var_] = n;
      // Enumerate every combination of edges, one per list.
      for (size_t l = 0; l < z; ++l) idx_[l] = ranges_[l].first;
      // Depth-first product with edge-distinctness checks.
      size_t depth = 0;
      uint32_t dfs_tick = 0;
      while (true) {
        // Hub-heavy edge products can dwarf the pivot-group cadence:
        // honor a stop mid-product, unbinding before bailing out.
        if ((++dfs_tick & 255u) == 0 && token_ != nullptr && token_->stop_requested()) {
          for (size_t l = 0; l < z; ++l) state->e[lists_[l].target_edge_var] = kInvalidEdge;
          state->v[target_var_] = kInvalidVertex;
          return;
        }
        if (depth == z) {
          if (EvalResiduals(*graph_, residual_, *state)) Emit(state);
          // Backtrack.
          --depth;
          state->e[lists_[depth].target_edge_var] = kInvalidEdge;
          ++idx_[depth];
        }
        if (idx_[depth] >= ranges_[depth].second) {
          idx_[depth] = ranges_[depth].first;
          if (depth == 0) break;
          --depth;
          state->e[lists_[depth].target_edge_var] = kInvalidEdge;
          ++idx_[depth];
          continue;
        }
        edge_id_t e = probes_[depth].slice.EdgeAt(idx_[depth]);
        if (state->EdgeAlreadyBound(e) ||
            (lists_[depth].edge_label_filter != kInvalidLabel &&
             graph_->edge_label(e) != lists_[depth].edge_label_filter)) {
          ++idx_[depth];
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

void ExtendIntersectOp::CollectParamSlots(ParamSlots* slots) {
  for (ListDescriptor& list : lists_) CollectListPin(&list, slots);
  // The per-list pins folded into target_bound_ at construction must be
  // re-patched alongside them.
  if (target_bound_ != kInvalidVertex) slots->pins.push_back({target_var_, &target_bound_});
  CollectPredSlots(&residual_, slots);
}

std::string ExtendIntersectOp::Describe() const {
  return "Extend/Intersect z=" + std::to_string(lists_.size()) + " -> v" +
         std::to_string(target_var_);
}

MultiExtendOp::MultiExtendOp(const Graph* graph, std::vector<ListDescriptor> lists,
                             std::vector<QueryComparison> residual)
    : graph_(graph), lists_(std::move(lists)), residual_(std::move(residual)) {
  APLUS_CHECK_GE(lists_.size(), 2u);
  const SortCriterion& first = lists_.front().sorts().front();
  for (const ListDescriptor& list : lists_) {
    APLUS_CHECK(!list.sorts().empty() && list.sorts().front() == first)
        << "MULTI-EXTEND requires identical sort criteria on all lists";
    key_crits_.push_back(list.sorts().front());
    key_graphs_.push_back(list.graph());
  }
  size_t z = lists_.size();
  slices_.resize(z);
  pos_.resize(z);
  ends_.resize(z);
  cur_key_.resize(z);
  next_key_.resize(z);
  ranges_.resize(z);
  run_nbrs_.resize(z);
  run_edges_.resize(z);
  run_decoded_.resize(z);
}

std::unique_ptr<Operator> MultiExtendOp::Clone() const {
  auto clone = std::make_unique<MultiExtendOp>(graph_, lists_, residual_);
  for (size_t l = 0; l < lists_.size(); ++l) {
    clone->run_nbrs_[l].reserve(run_nbrs_[l].capacity());
    clone->run_edges_[l].reserve(run_edges_[l].capacity());
  }
  return clone;
}

void MultiExtendOp::EmitCombinations(MatchState* state, size_t depth) {
  if (depth == lists_.size()) {
    if (EvalResiduals(*graph_, residual_, *state)) Emit(state);
    return;
  }
  const ListDescriptor& list = lists_[depth];
  const AdjListSlice& slice = slices_[depth];
  const uint32_t first = ranges_[depth].first;
  const uint32_t last = ranges_[depth].second;
  const vertex_id_t* run_nbrs = run_decoded_[depth] != 0 ? run_nbrs_[depth].data() : nullptr;
  const edge_id_t* run_edges = run_nbrs != nullptr ? run_edges_[depth].data() : nullptr;
  for (uint32_t i = first; i < last; ++i) {
    // The combination product across runs can be enormous; honor a stop
    // between combinations (callers unbind on unwind).
    if ((i & 63u) == 0 && token_ != nullptr && token_->stop_requested()) return;
    vertex_id_t n = run_nbrs != nullptr ? run_nbrs[i - first] : slice.NbrAt(i);
    edge_id_t e = run_nbrs != nullptr ? run_edges[i - first] : slice.EdgeAt(i);
    if (state->VertexAlreadyBound(n) || state->EdgeAlreadyBound(e)) continue;
    if (list.target_bound != kInvalidVertex && n != list.target_bound) continue;
    if (list.edge_label_filter != kInvalidLabel &&
        graph_->edge_label(e) != list.edge_label_filter) {
      continue;
    }
    if (list.target_vertex_label != kInvalidLabel &&
        graph_->vertex_label(n) != list.target_vertex_label) {
      continue;
    }
    state->v[list.target_vertex_var] = n;
    state->e[list.target_edge_var] = e;
    EmitCombinations(state, depth + 1);
    state->v[list.target_vertex_var] = kInvalidVertex;
    state->e[list.target_edge_var] = kInvalidEdge;
  }
}

void MultiExtendOp::Run(MatchState* state) {
  size_t z = lists_.size();
  for (size_t l = 0; l < z; ++l) {
    slices_[l] = lists_[l].Fetch(*state);
    auto [begin, end] = lists_[l].BoundedRange(slices_[l]);
    pos_[l] = begin;
    ends_[l] = end;
    if (begin >= end) return;
    cur_key_[l] = KeyAt(l, begin);
  }
  while (true) {
    if (token_ != nullptr) {
      // Flag check per merge step; clock check every 256 steps.
      if ((poll_tick_++ & 255u) == 0 ? token_->PollClock() : token_->stop_requested()) {
        return;
      }
    }
    int64_t max_key = cur_key_[0];
    for (size_t l = 1; l < z; ++l) {
      if (cur_key_[l] > max_key) max_key = cur_key_[l];
    }
    // Advance lagging lists to >= max_key, computing each newly visited
    // entry's key exactly once (cur_key_ caches the key at pos_[l]).
    bool all_equal = true;
    for (size_t l = 0; l < z; ++l) {
      while (cur_key_[l] < max_key) {
        if (++pos_[l] >= ends_[l]) return;
        cur_key_[l] = KeyAt(l, pos_[l]);
      }
      if (cur_key_[l] != max_key) all_equal = false;
    }
    if (!all_equal) continue;
    if (max_key == kNullSortKey) return;  // null tails never join
    // Equal-key ranges; remember the first key past each range so the
    // boundary entry is not re-decoded when pos_ lands on it.
    for (size_t l = 0; l < z; ++l) {
      uint32_t end = pos_[l] + 1;
      next_key_[l] = kNullSortKey;
      while (end < ends_[l]) {
        int64_t key = KeyAt(l, end);
        if (key != max_key) {
          next_key_[l] = key;
          break;
        }
        ++end;
      }
      ranges_[l] = {pos_[l], end};
    }
    // Batch-decode the equal-key run of an offset list that
    // EmitCombinations will re-enumerate (once per combination of the
    // preceding lists' runs), so each entry pays the LoadFixedWidth
    // indirection once instead of once per enumeration. Short runs and
    // low enumeration counts are left alone: the copy plus the extra
    // indirection in the emit loop would cost more than it saves.
    uint64_t enumerations = 1;
    for (size_t l = 0; l < z; ++l) {
      run_decoded_[l] = 0;
      uint32_t run_len = ranges_[l].second - ranges_[l].first;
      if (enumerations >= 4 && run_len >= 8 && !slices_[l].is_direct()) {
        // Run-buffer growth is plan scratch and charges the budget.
        if (run_nbrs_[l].size() < run_len) {
          const uint64_t grow = static_cast<uint64_t>(run_len - run_nbrs_[l].size()) *
                                (sizeof(vertex_id_t) + sizeof(edge_id_t));
          if (budget_ != nullptr && !budget_->Charge(grow)) {
            if (token_ != nullptr) token_->RequestStop(StopReason::kResourceExhausted);
            return;
          }
          run_nbrs_[l].resize(run_len);
        }
        if (run_edges_[l].size() < run_len) run_edges_[l].resize(run_len);
        DecodeSliceEntries(simd::Active(), slices_[l], ranges_[l].first, run_len,
                           run_nbrs_[l].data(), run_edges_[l].data());
        run_decoded_[l] = 1;
      }
      enumerations *= run_len;
    }
    EmitCombinations(state, 0);
    for (size_t l = 0; l < z; ++l) {
      pos_[l] = ranges_[l].second;
      if (pos_[l] >= ends_[l]) return;
      cur_key_[l] = next_key_[l];
    }
  }
}

void MultiExtendOp::CollectParamSlots(ParamSlots* slots) {
  for (ListDescriptor& list : lists_) CollectListPin(&list, slots);
  CollectPredSlots(&residual_, slots);
}

std::string MultiExtendOp::Describe() const {
  std::string out = "Multi-Extend z=" + std::to_string(lists_.size()) + " ->";
  for (const ListDescriptor& list : lists_) {
    out += " v" + std::to_string(list.target_vertex_var);
  }
  return out;
}

void FilterOp::Run(MatchState* state) {
  if (EvalResiduals(*graph_, preds_, *state)) Emit(state);
}

void FilterOp::CollectParamSlots(ParamSlots* slots) { CollectPredSlots(&preds_, slots); }

std::string FilterOp::Describe() const {
  return "Filter (" + std::to_string(preds_.size()) + " preds)";
}

}  // namespace aplus
