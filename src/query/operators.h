#ifndef APLUS_QUERY_OPERATORS_H_
#define APLUS_QUERY_OPERATORS_H_

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/adj_list_slice.h"
#include "index/ep_index.h"
#include "index/primary_index.h"
#include "index/vp_index.h"
#include "query/morsel.h"
#include "query/query_graph.h"
#include "util/deadline.h"

namespace aplus {

class MemoryBudget;

// Which A+ index an extension reads its adjacency list from, and how the
// list is selected: the bound variable (a query vertex for primary/VP
// lists, a query edge for EP lists) plus a fixed prefix of partition
// categories resolved at plan time (e.g. the Wire label slot).
struct ListDescriptor {
  enum class Source : uint8_t { kPrimary, kVp, kEp };

  Source source = Source::kPrimary;
  const PrimaryIndex* primary = nullptr;
  const VpIndex* vp = nullptr;
  const EpIndex* ep = nullptr;
  int bound_var = -1;  // vertex var (kPrimary/kVp) or edge var (kEp)
  std::vector<category_t> cats;

  // Variables this list binds when its entries are consumed.
  int target_vertex_var = -1;
  int target_edge_var = -1;
  // When the target query vertex is pinned to a literal vertex (e.g.
  // a1.ID = v1), only entries pointing at it qualify.
  vertex_id_t target_bound = kInvalidVertex;
  // True when, within BoundedRange, entries are ordered by neighbour ID:
  // the slice is an innermost sublist whose (effective) sort starts with
  // vnbr.ID — possibly after equality bounds pin leading sort keys (the
  // Ds configuration sorts by neighbour label then ID; fixing the label
  // leaves a neighbour-ID-sorted run). Set by the index matcher;
  // required by EXTEND/INTERSECT.
  bool nbr_sorted = false;
  // Optional label filter on the bound neighbour (applied while
  // consuming entries when the list is not already partitioned on it).
  label_t target_vertex_label = kInvalidLabel;
  // Optional label filter on the consumed edge, for lists that are not
  // partitioned by edge label (e.g. a Flat-configured primary index).
  label_t edge_label_filter = kInvalidLabel;

  // True when the entry at position i passes this descriptor's label
  // filters.
  bool EntryPassesLabels(const Graph& graph, const AdjListSlice& slice, uint32_t i) const {
    if (edge_label_filter != kInvalidLabel &&
        graph.edge_label(slice.EdgeAt(i)) != edge_label_filter) {
      return false;
    }
    if (target_vertex_label != kInvalidLabel &&
        graph.vertex_label(slice.NbrAt(i)) != target_vertex_label) {
      return false;
    }
    return true;
  }

  // Optional range restriction on the list's first sort key: when the
  // list is sorted on a property and the query carries a range predicate
  // on it (e.g. e.time < alpha over a time-sorted VP index, the
  // MagicRecs pattern of Section V-C1), the operators binary-search the
  // qualifying prefix/suffix instead of filtering every entry.
  bool has_upper_bound = false;
  int64_t upper_bound = 0;
  bool upper_strict = true;  // key < bound vs key <= bound
  bool has_lower_bound = false;
  int64_t lower_bound = 0;
  bool lower_strict = true;  // key > bound vs key >= bound
  // >= 0 when the corresponding bound comes from a prepared-query $param
  // (a range conjunct on the list's first sort key folded at plan time):
  // the bound value is patched at Bind through ParamSlots::RangeSlot
  // instead of staying a residual per-entry predicate, so the sorted-
  // prefix binary search serves parameterized windows too (the MagicRecs
  // time-window pattern, Section V-C1).
  int upper_bound_param = -1;
  int lower_bound_param = -1;
  // True when the sort key is a double property: the bound value is
  // encoded via EncodeDoubleSortKey at Bind.
  bool bound_param_double = false;

  // (CandidateScratch::AssignAccessPath in optimizer/index_matcher.cc
  // copies every field above; a new field goes there too.)

  // Per-descriptor scratch for merged run+delta probes under concurrent
  // ingest (primary_index.h). Descriptors are cloned into each worker
  // replica along with their operator, so only its owner writes the
  // scratch. (A pinned-source split has every worker read the one slice
  // merged into the primary pipeline's scratch, which nothing rewrites
  // until the execution ends.) Mutable because Fetch is logically const.
  mutable ListMergeScratch merge_scratch;

  AdjListSlice Fetch(const MatchState& state) const;
  // One stage of loading the list Fetch would return once the bound
  // variable is `v` (PrimaryIndex::PrefetchList); returns whether a later
  // stage has work. VP and EP lists prefetch nothing: their lists stall
  // no workload measured so far.
  bool Prefetch(int stage, vertex_id_t v) const {
    return source == Source::kPrimary && primary->PrefetchList(stage, v, cats);
  }
  // First-sort-criterion key of entry i (used by MULTI-EXTEND merges).
  int64_t SortKeyAt(const AdjListSlice& slice, uint32_t i) const;
  // [begin, end) of entries satisfying the configured sort-key bounds
  // (whole list when no bounds are set).
  std::pair<uint32_t, uint32_t> BoundedRange(const AdjListSlice& slice) const;
  // The sort criteria this list is ordered by.
  const std::vector<SortCriterion>& sorts() const;
  std::string Describe(const Catalog& catalog, const QueryGraph& query) const;

  const Graph* graph() const;
};

// The patchable parameter slots of one physical pipeline, collected for
// prepared queries (core/session.h): pointers to predicate constants
// whose QueryComparison carries a $param, and to the vertex-pin sites
// (scan bounds, list target bounds) materialized from a query vertex so
// `<var>.ID = $param` pins can be re-bound without re-planning. The
// pointers stay valid for the plan's lifetime; pin slots are filtered by
// the collector to the vars that are actually param-pinned.
struct ParamSlots {
  struct ValueSlot {
    int param;     // parameter index (QueryComparison::rhs_param)
    Value* value;  // the rhs_const to patch
  };
  struct PinSlot {
    int var;           // query-vertex index the site was materialized from
    vertex_id_t* pin;  // the bound-vertex slot to patch
  };
  // A $param folded into a ListDescriptor sort-key bound: the raw int64
  // bound to patch, with doubles encoded via EncodeDoubleSortKey first.
  struct RangeSlot {
    int param;
    int64_t* bound;
    bool encode_double;
  };
  std::vector<ValueSlot> values;
  std::vector<PinSlot> pins;
  std::vector<RangeSlot> ranges;

  void Clear() {
    values.clear();
    pins.clear();
    ranges.clear();
  }
};

// Push-based physical operator. Each operator consumes one partial match
// and forwards zero or more extended matches to `next_`.
class Operator {
 public:
  virtual ~Operator() = default;
  // Wires the pipeline; operators that read the next operator's lists
  // resolve them here.
  virtual void set_next(Operator* next) { next_ = next; }
  virtual void Run(MatchState* state) = 0;
  // Deep copy with fresh (empty) scratch, used by Plan::Execute's
  // parallel path to build one pipeline replica per worker. Decode
  // buffers keep this operator's capacity (reserved, still empty): a
  // replica cloned after a serial run starts at the high-water mark of
  // every list it may draw, so its steady state does not depend on which
  // morsels it happens to claim. The clone's next_ is unset; the caller
  // rewires the replica chain.
  virtual std::unique_ptr<Operator> Clone() const = 0;
  // Appends this operator's patchable parameter slots (see ParamSlots).
  virtual void CollectParamSlots(ParamSlots* slots) { (void)slots; }
  // Installs the execution-wide stop token (deadline / cancel / LIMIT /
  // exhaustion) and memory budget. Operators that poll or charge
  // override this; the default ignores both. Called on the primary
  // pipeline and every worker replica before execution.
  virtual void SetExecContext(ExecToken* token, MemoryBudget* budget) {
    (void)token;
    (void)budget;
  }
  // The adjacency lists this operator reads, in plan order, as the first
  // descriptor and the count (the plan printer renders them); none by
  // default.
  virtual std::pair<const ListDescriptor*, size_t> lists() const { return {nullptr, 0}; }
  // The residual conjuncts this operator evaluates on each match it
  // binds, as the first conjunct and the count; none by default.
  virtual std::pair<const QueryComparison*, size_t> residuals() const { return {nullptr, 0}; }
  // True when this operator only counts the matches it receives: it
  // reads none of their bindings and forwards nothing. An EXTEND feeding
  // it may then count its list instead of emitting each entry.
  virtual bool counts_only() const { return false; }

 protected:
  void Emit(MatchState* state) { next_->Run(state); }
  Operator* next_ = nullptr;
};

// Pipeline driver: binds query vertex `var` to every graph vertex that
// passes the label filter / bound-ID constraint and the given predicates.
class ScanOp : public Operator {
 public:
  ScanOp(const Graph* graph, int var, label_t label, vertex_id_t bound,
         std::vector<QueryComparison> preds)
      : graph_(graph), var_(var), label_(label), bound_(bound), preds_(std::move(preds)) {}

  void Run(MatchState* state) override;
  std::unique_ptr<Operator> Clone() const override {
    return std::make_unique<ScanOp>(graph_, var_, label_, bound_, preds_);
  }
  void CollectParamSlots(ParamSlots* slots) override;
  std::pair<const QueryComparison*, size_t> residuals() const override {
    return {preds_.data(), preds_.size()};
  }

  // Scan domain [begin, end) in vertex-ID space — the whole graph, or a
  // single ID when the variable is pinned. The morsel dispatcher carves
  // this range across workers.
  std::pair<uint64_t, uint64_t> ScanDomain() const {
    if (bound_ != kInvalidVertex) return {bound_, static_cast<uint64_t>(bound_) + 1};
    return {0, graph_->num_vertices()};
  }
  // The vertex this scan is pinned to, or kInvalidVertex.
  vertex_id_t pinned() const { return bound_; }
  // Binds the scan variable to `v`; true when `v` passes the label
  // filter and the predicates.
  bool Bind(MatchState* state, vertex_id_t v) const;
  // Parallel execution: drains vertex-range morsels from `cursor`,
  // shared with the other workers' replicas.
  void RunMorsels(MatchState* state, MorselCursor* cursor);
  // Cooperative stop (LIMIT / deadline / cancel / exhaustion): the scan
  // re-checks the token per source vertex, checks the wall clock per
  // morsel (and periodically within a serial range), and stops driving
  // the pipeline once a stop is requested.
  void SetExecContext(ExecToken* token, MemoryBudget* budget) override {
    (void)budget;
    token_ = token;
  }

 private:
  void ScanRange(MatchState* state, uint64_t begin, uint64_t end);

  const Graph* graph_;
  int var_;
  label_t label_;
  vertex_id_t bound_;
  std::vector<QueryComparison> preds_;
  ExecToken* token_ = nullptr;
};

// Single-list EXTEND (the z = 1 case of E/I): extends the partial match
// along one adjacency list, binding one new query vertex and edge.
// When the target vertex is already bound (a cycle-closing edge) the
// operator verifies list membership instead of enumerating.
//
// Counting mode (list-based processing: the last list stays
// unflattened). When the next operator only counts (counts_only()) and
// nothing filters an entry — no residual, no label filter, no pinned
// target, not closing — every entry of a primary or VP list's bounded
// range is a match except those whose neighbour is already bound: the
// matches are isomorphic, and an already-bound edge joins two bound
// vertices, so excluding the bound neighbours also keeps edges
// distinct. The extend then adds (end - begin) minus the equal range of
// each bound vertex, found by binary search on the neighbour-sorted
// range, to MatchState::count, without binding or emitting an entry.
// set_next decides the mode once, from the plan alone.
class ExtendOp : public Operator {
 public:
  ExtendOp(const Graph* graph, ListDescriptor list, std::vector<QueryComparison> residual,
           bool target_already_bound = false)
      : graph_(graph),
        list_(std::move(list)),
        residual_(std::move(residual)),
        closing_(target_already_bound) {}

  void Run(MatchState* state) override;
  std::unique_ptr<Operator> Clone() const override {
    return std::make_unique<ExtendOp>(graph_, list_, residual_, closing_);
  }
  // Also resolves which of `next`'s primary lists are bound on this
  // extend's target vertex: the lists the entry loop prefetches.
  void set_next(Operator* next) override;
  void CollectParamSlots(ParamSlots* slots) override;
  std::pair<const ListDescriptor*, size_t> lists() const override { return {&list_, 1}; }
  std::pair<const QueryComparison*, size_t> residuals() const override {
    return {residual_.data(), residual_.size()};
  }

  // --- Pinned-source split (Plan::Execute) ---

  // False for a cycle-closing extend: it probes its list for the bound
  // target instead of enumerating it, so there are no entries to split.
  // (An EP extend is never a plan's second operator: its bound edge is
  // not bound yet.)
  bool enumerates() const { return !closing_; }
  // Enumerates the entry morsels drained from `cursor`, shared with the
  // other workers, of `slice`: the one fetch of this extend's list for
  // the source bound in `state`, made by the coordinating thread. A
  // packed slice decodes through this replica's own block cache.
  void RunEntries(MatchState* state, AdjListSlice slice, MorselCursor* cursor);
  // Cooperative stop, polled per morsel and every 64 entries so a long
  // entry loop below a one-vertex scan still stops early.
  void SetExecContext(ExecToken* token, MemoryBudget* budget) override {
    (void)budget;
    token_ = token;
  }

 private:
  // Entries per next-hop prefetch group: EnumerateRange starts loading
  // the next operator's lists for the entries of a group that pass, then
  // emits them.
  static constexpr uint32_t kPrefetchGroup = 16;

  // Binds entry i's edge (and neighbour, unless closing) into `state`
  // when it passes the list's filters and the residuals; leaves `state`
  // unbound and returns false otherwise.
  bool BindEntry(MatchState* state, const AdjListSlice& slice, uint32_t i);
  void Unbind(MatchState* state) const;
  // BindEntry, then Emit and Unbind on a pass.
  void AcceptEntry(MatchState* state, const AdjListSlice& slice, uint32_t i);
  // Counting mode: the entries of [begin, end) whose neighbour is not
  // bound in `state`.
  uint64_t CountRange(const MatchState& state, const AdjListSlice& slice, uint32_t begin,
                      uint32_t end) const;
  // The same count through BindEntry (the debug cross-check).
  uint64_t CountRangeByBinding(MatchState* state, const AdjListSlice& slice, uint32_t begin,
                               uint32_t end);
  void EnumerateRange(MatchState* state, const AdjListSlice& slice, uint64_t begin,
                      uint64_t end);
  // Flag check on most calls, a clock check every 64th: a serial chain
  // plan has no other PollClock site hot enough to notice a deadline
  // (the scan samples per 1024 source vertices, which a small or pinned
  // scan domain never reaches).
  bool CheckStop() {
    return (poll_tick_++ & 63u) == 0 ? token_->PollClock() : token_->stop_requested();
  }

  const Graph* graph_;
  ListDescriptor list_;
  std::vector<QueryComparison> residual_;
  bool closing_;
  bool counting_ = false;  // counting mode (set_next)
  // The next operator's lists bound on list_.target_vertex_var (set_next).
  std::vector<const ListDescriptor*> prefetch_;
  // (neighbour, edge) of each entry of the current group that passed.
  std::array<std::pair<vertex_id_t, edge_id_t>, kPrefetchGroup> group_;
  ExecToken* token_ = nullptr;
  uint32_t poll_tick_ = 0;  // clock-sampling cadence of the entry loop
};

// Per-list probe state of one EXTEND/INTERSECT input, reused across
// Run() calls (plan lifetime) so steady-state execution does not
// allocate. `frontier` is a monotone cursor: pivot candidates arrive in
// ascending neighbour order, so every probe resumes where the previous
// one ended instead of binary-searching from the range start.
struct ProbeList {
  AdjListSlice slice;
  uint32_t begin = 0;  // bounded range [begin, end)
  uint32_t end = 0;
  uint32_t frontier = 0;
  // Neighbour IDs of [begin, end), batch-decoded out of an offset list
  // when the list will be probed more than O(log n) times; probing a
  // flat sorted array avoids the per-access LoadFixedWidth indirection.
  // Null when reads go through the slice. Indexed by (i - begin).
  const vertex_id_t* decoded = nullptr;
  std::vector<vertex_id_t> decode_buf;

  vertex_id_t NbrAt(uint32_t i) const {
    return decoded != nullptr ? decoded[i - begin] : slice.NbrAt(i);
  }
  uint32_t len() const { return end - begin; }
};

// EXTEND/INTERSECT with z >= 2 (Section IV-A): intersects z adjacency
// lists sorted on neighbour IDs and binds the new query vertex to each
// vertex in the intersection (plus one query edge per list). This is the
// WCOJ building block.
class ExtendIntersectOp : public Operator {
 public:
  ExtendIntersectOp(const Graph* graph, std::vector<ListDescriptor> lists, int target_vertex_var,
                    std::vector<QueryComparison> residual);

  void Run(MatchState* state) override;
  std::unique_ptr<Operator> Clone() const override;
  void CollectParamSlots(ParamSlots* slots) override;
  // Polled per pivot-candidate group (with a periodic clock check) and
  // within the edge-combination product loop; decode-buffer growth is
  // charged against the budget.
  void SetExecContext(ExecToken* token, MemoryBudget* budget) override {
    token_ = token;
    budget_ = budget;
  }
  std::pair<const ListDescriptor*, size_t> lists() const override {
    return {lists_.data(), lists_.size()};
  }
  std::pair<const QueryComparison*, size_t> residuals() const override {
    return {residual_.data(), residual_.size()};
  }

 private:
  const Graph* graph_;
  std::vector<ListDescriptor> lists_;
  int target_var_;
  std::vector<QueryComparison> residual_;
  // Target-vertex constraints folded over all z lists at plan time.
  label_t target_label_ = kInvalidLabel;
  vertex_id_t target_bound_ = kInvalidVertex;
  // Plan-lifetime scratch, sized to z once in the constructor.
  std::vector<ProbeList> probes_;
  std::vector<std::pair<uint32_t, uint32_t>> ranges_;
  std::vector<uint32_t> idx_;
  ExecToken* token_ = nullptr;
  MemoryBudget* budget_ = nullptr;
  uint32_t poll_tick_ = 0;  // coarsens the clock checks
};

// MULTI-EXTEND (Section IV-A): intersects z lists sorted on a property
// other than the neighbour ID (all lists must share the sort criterion)
// and extends the partial match by up to z new query vertices at once —
// one per list — for every combination of entries agreeing on the sort
// key. Used by the money-flow plans (Figure 6).
class MultiExtendOp : public Operator {
 public:
  MultiExtendOp(const Graph* graph, std::vector<ListDescriptor> lists,
                std::vector<QueryComparison> residual);

  void Run(MatchState* state) override;
  std::unique_ptr<Operator> Clone() const override;
  void CollectParamSlots(ParamSlots* slots) override;
  // Polled in the z-way merge loop and inside the per-combination
  // emission; run-decode buffer growth is charged against the budget.
  void SetExecContext(ExecToken* token, MemoryBudget* budget) override {
    token_ = token;
    budget_ = budget;
  }
  std::pair<const ListDescriptor*, size_t> lists() const override {
    return {lists_.data(), lists_.size()};
  }
  std::pair<const QueryComparison*, size_t> residuals() const override {
    return {residual_.data(), residual_.size()};
  }

 private:
  // Sort key of entry i of list l under the list's first sort criterion,
  // via the criterion/graph pair cached at plan time (skips the
  // ListDescriptor::sorts() dispatch of the old per-comparison path).
  int64_t KeyAt(size_t l, uint32_t i) const {
    return EntrySortKey(*key_graphs_[l], key_crits_[l], slices_[l].EdgeAt(i),
                        slices_[l].NbrAt(i));
  }
  void EmitCombinations(MatchState* state, size_t depth);

  const Graph* graph_;
  std::vector<ListDescriptor> lists_;
  std::vector<QueryComparison> residual_;
  // First sort criterion + backing graph per list, resolved once.
  std::vector<SortCriterion> key_crits_;
  std::vector<const Graph*> key_graphs_;
  // Plan-lifetime scratch, sized to z once in the constructor. `cur_key_`
  // caches the sort key at pos_[l] so the merge computes each entry's
  // property-backed key once per visit instead of once per comparison.
  std::vector<AdjListSlice> slices_;
  std::vector<uint32_t> pos_;
  std::vector<uint32_t> ends_;
  std::vector<int64_t> cur_key_;
  std::vector<int64_t> next_key_;
  std::vector<std::pair<uint32_t, uint32_t>> ranges_;
  // Current equal-key run of each offset list, batch-decoded to flat
  // arrays before EmitCombinations re-enumerates it per combination of
  // the preceding lists. Indexed by (i - ranges_[l].first); empty when
  // the run is read through the slice.
  std::vector<std::vector<vertex_id_t>> run_nbrs_;
  std::vector<std::vector<edge_id_t>> run_edges_;
  std::vector<uint8_t> run_decoded_;
  ExecToken* token_ = nullptr;
  MemoryBudget* budget_ = nullptr;
  uint32_t poll_tick_ = 0;  // coarsens the clock checks
};

}  // namespace aplus

#endif  // APLUS_QUERY_OPERATORS_H_
