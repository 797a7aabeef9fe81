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
  // True when the list's first sort criterion holds within BoundedRange
  // (innermost sublist, no neighbour-ID/label pin in the way): the
  // optimizer may fold $param range conjuncts on the sort key into
  // bind-time-patched descriptor bounds (ParamSlots::RangeSlot).
  bool allow_param_range_bounds = false;
};

// Caller-owned output of the IndexMatcher lookups: [begin, end) are the
// last lookup's candidates. Slots past the end keep their vectors'
// capacity, so a scratch reused across lookups (the optimizer keeps one
// per Optimize call) allocates only while it grows.
class CandidateScratch {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  CandidateList& operator[](size_t i) { return lists_[i]; }
  const CandidateList* begin() const { return lists_.data(); }
  const CandidateList* end() const { return lists_.data() + size_; }

  void Clear() { size_ = 0; }
  // Appends a default-initialized candidate; the reference is valid
  // until the next Add.
  CandidateList& Add();
  // Drops the candidate the last Add returned.
  void PopBack() { --size_; }

 private:
  std::vector<CandidateList> lists_;
  size_t size_ = 0;
};

// Matches extension requirements against the INDEX STORE: checks sort
// compatibility, binds partition-category prefixes from equality
// predicates / labels, and verifies view-predicate subsumption
// (Section IV-A).
class IndexMatcher {
 public:
  IndexMatcher(const IndexStore* store, const GraphStats* stats)
      : store_(store), stats_(stats) {}

  // Lists for a vertex-bound extension in direction `dir` matching a
  // query edge with label `edge_label` towards a vertex with label
  // `nbr_label` (either may be kInvalidLabel). If `required_sort` is
  // non-null, only lists whose first sort criterion equals it qualify.
  // Replaces the contents of `out`.
  void FindVertexLists(Direction dir, label_t edge_label, label_t nbr_label,
                       const ExtensionPredicate& ext_pred, const SortCriterion* required_sort,
                       CandidateScratch* out) const;

  // Lists for an edge-bound extension of kind `kind` (EP indexes only).
  // ext_pred may contain cross-edge conjuncts (eb vs eadj). Replaces the
  // contents of `out`.
  void FindEdgeLists(EpKind kind, label_t edge_label, label_t nbr_label,
                     const ExtensionPredicate& ext_pred, const SortCriterion* required_sort,
                     CandidateScratch* out) const;

 private:
  // Tries to bind a category prefix for `config.partitions` from labels
  // and equality conjuncts into candidate->desc.cats; the query
  // conjuncts of the consumed equalities go to
  // candidate->covered_conjuncts.
  void BindPartitionPrefix(const IndexConfig& config, label_t edge_label, label_t nbr_label,
                           const ExtensionPredicate& ext_pred, CandidateList* candidate) const;

  const IndexStore* store_;
  const GraphStats* stats_;
};

}  // namespace aplus

#endif  // APLUS_OPTIMIZER_INDEX_MATCHER_H_
