#ifndef APLUS_OPTIMIZER_INDEX_MATCHER_H_
#define APLUS_OPTIMIZER_INDEX_MATCHER_H_

#include <vector>

#include "index/index_store.h"
#include "optimizer/catalog_stats.h"
#include "query/operators.h"
#include "view/subsumption.h"

namespace aplus {

// The predicate of one extension step in view-site form: conjuncts over
// the adjacent edge (eadj), the neighbour to be bound (vnbr), and — for
// edge-bound extensions — the bound edge (eb). `query_conjunct_ids` maps
// each conjunct back to the query's WHERE-clause conjunct it came from so
// the optimizer can mark covered conjuncts as applied.
struct ExtensionPredicate {
  Predicate pred;
  std::vector<int> query_conjunct_ids;
};

// One usable adjacency-list access path for an extension, as returned by
// the INDEX STORE lookup of Section IV-A.
struct CandidateList {
  ListDescriptor desc;  // index + partition-category prefix (targets unset)
  // Query conjuncts guaranteed by the index view predicate and/or the
  // bound partition categories; everything else stays residual.
  std::vector<int> covered_conjuncts;
  // Estimated number of entries the operator reads from the list (the
  // i-cost contribution).
  double est_len = 0.0;
  // Estimated number of entries surviving the descriptor's label filters
  // (the cardinality contribution); est_out <= est_len.
  double est_out = 0.0;
  // True when the bound category prefix reaches the innermost sublists,
  // where the configured sort order holds.
  bool innermost = false;
  // True when the list's first sort criterion holds within BoundedRange
  // (innermost sublist, no neighbour-label pin in the way). An access
  // path with no sort requirement may then turn range conjuncts on the
  // sort key into descriptor bounds: literal ones (ApplySortKeyBounds)
  // and $param ones, patched at bind time (ParamSlots::RangeSlot). A
  // sorted requirement takes the unbounded list.
  bool allow_range_bounds = false;
};

// Caller-owned candidate pool: the IndexMatcher lookups append to it, and
// Clear() retires every candidate at once. Retired slots keep their
// vectors' capacity, so a pool reused across lookups and calls (the
// optimizer keeps one) allocates only while it grows.
class CandidateScratch {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  CandidateList& operator[](size_t i) { return lists_[i]; }
  const CandidateList& operator[](size_t i) const { return lists_[i]; }
  const CandidateList* begin() const { return lists_.data(); }
  const CandidateList* end() const { return lists_.data() + size_; }

  void Clear() { size_ = 0; }
  // Appends a default-initialized candidate; the reference is valid
  // until the next Add.
  CandidateList& Add();
  // Appends candidate `i`'s access path (everything but the descriptor's
  // merge scratch, which stays empty) and returns it.
  CandidateList& AddAccessPathOf(size_t i);

 private:
  // Assigns every field of `from` but the descriptor's merge scratch,
  // which pool candidates never use (they are never fetched).
  static void AssignAccessPath(const CandidateList& from, CandidateList* to);

  std::vector<CandidateList> lists_;
  size_t size_ = 0;
};

// Matches extension requirements against the INDEX STORE: verifies
// view-predicate subsumption, binds partition-category prefixes from
// equality predicates / labels, and resolves which sort orders each list
// holds (Section IV-A). One lookup serves every sort requirement of an
// extension: ServesSort tells which candidates qualify for which.
class IndexMatcher {
 public:
  IndexMatcher(const IndexStore* store, const GraphStats* stats)
      : store_(store), stats_(stats) {}

  // Appends to `out` one candidate per index usable for a vertex-bound
  // extension in direction `dir` matching a query edge with label
  // `edge_label` towards a vertex with label `nbr_label` (either may be
  // kInvalidLabel): the primary index, then every VP index in creation
  // order whose view predicate subsumes `ext_pred`. Sort-key bounds are
  // not applied (see ApplySortKeyBounds).
  void FindVertexLists(Direction dir, label_t edge_label, label_t nbr_label,
                       const ExtensionPredicate& ext_pred, CandidateScratch* out) const;

  // Appends the candidates for an edge-bound extension of kind `kind`
  // (EP indexes only, in creation order). ext_pred may contain
  // cross-edge conjuncts (eb vs eadj).
  void FindEdgeLists(EpKind kind, label_t edge_label, label_t nbr_label,
                     const ExtensionPredicate& ext_pred, CandidateScratch* out) const;

  // True when `candidate` can serve `required_sort` (nullptr: no
  // requirement): a neighbour-ID requirement takes effectively
  // neighbour-ID-sorted lists, a property requirement takes innermost
  // sublists whose first sort criterion equals it. Partially
  // materialized EP indexes serve no sorted requirement: unmaterialized
  // lists are derived at run time in base-list order.
  static bool ServesSort(const CandidateList& candidate, const SortCriterion* required_sort);

  // Turns constant range conjuncts of `ext_pred` on the candidate's first
  // sort key into binary-searchable descriptor bounds (Section III-A2 /
  // V-C1: sorted lists replace per-edge predicate evaluation) and marks
  // them covered. Only for candidates with allow_range_bounds, under no
  // sort requirement.
  static void ApplySortKeyBounds(const ExtensionPredicate& ext_pred, CandidateList* candidate);
  // True when ApplySortKeyBounds would bound `candidate`.
  static bool HasSortKeyBound(const ExtensionPredicate& ext_pred, const CandidateList& candidate);

 private:
  // Tries to bind a category prefix for `config.partitions` from labels
  // and equality conjuncts into candidate->desc.cats; the query
  // conjuncts of the consumed equalities go to
  // candidate->covered_conjuncts.
  void BindPartitionPrefix(const IndexConfig& config, label_t edge_label, label_t nbr_label,
                           const ExtensionPredicate& ext_pred, CandidateList* candidate) const;
  // Sort resolution and label coverage shared by both lookups, after
  // BindPartitionPrefix: sets the candidate's neighbour-ID order, Ds
  // label pin, leftover label filters and range-bound eligibility.
  struct ListShape {
    bool edge_label_covered = false;
    bool label_pinned = false;  // Ds case: leading nbr-label key pinned
  };
  static ListShape ResolveListShape(const IndexConfig& config, label_t edge_label,
                                    label_t nbr_label, CandidateList* candidate);

  const IndexStore* store_;
  const GraphStats* stats_;
};

}  // namespace aplus

#endif  // APLUS_OPTIMIZER_INDEX_MATCHER_H_
