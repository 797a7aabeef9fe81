#include "optimizer/index_matcher.h"

#include "util/logging.h"

namespace aplus {

namespace {

// If the candidate list is sorted on a property and the extension
// predicate contains a constant range comparison on that property, turn
// it into a binary-searchable bound on the descriptor (Section III-A2 /
// V-C1: sorted lists replace per-edge predicate evaluation). Marks the
// consumed conjuncts as covered. Only valid on innermost sublists, where
// the sort order actually holds.
void ApplySortKeyBounds(const IndexConfig& config, const ExtensionPredicate& ext_pred,
                        CandidateList* candidate) {
  if (config.sorts.empty()) return;
  const SortCriterion& sort = config.sorts.front();
  PropSite site;
  prop_key_t key = sort.key;
  bool is_id = false;
  switch (sort.source) {
    case SortSource::kEdgeProp:
      site = PropSite::kAdjEdge;
      break;
    case SortSource::kNbrProp:
      site = PropSite::kNbrVertex;
      break;
    case SortSource::kNbrId:
      site = PropSite::kNbrVertex;
      is_id = true;
      break;
    default:
      return;
  }
  const auto& conjuncts = ext_pred.pred.conjuncts();
  for (size_t q = 0; q < conjuncts.size(); ++q) {
    const Comparison& cmp = conjuncts[q];
    if (!cmp.rhs_is_const || cmp.lhs.site != site || cmp.lhs.is_label) continue;
    if (is_id != cmp.lhs.is_id) continue;
    if (!is_id && cmp.lhs.key != key) continue;
    if (cmp.rhs_const.is_null()) continue;
    int64_t bound;
    switch (cmp.rhs_const.type()) {
      case ValueType::kInt64:
      case ValueType::kCategory:
      case ValueType::kBool:
        bound = cmp.rhs_const.AsInt64();
        break;
      case ValueType::kDouble:
        bound = EncodeDoubleSortKey(cmp.rhs_const.AsDouble());
        break;
      default:
        continue;
    }
    bool consumed = true;
    switch (cmp.op) {
      case CmpOp::kLt:
        candidate->desc.has_upper_bound = true;
        candidate->desc.upper_bound = bound;
        candidate->desc.upper_strict = true;
        break;
      case CmpOp::kLe:
        candidate->desc.has_upper_bound = true;
        candidate->desc.upper_bound = bound;
        candidate->desc.upper_strict = false;
        break;
      case CmpOp::kGt:
        candidate->desc.has_lower_bound = true;
        candidate->desc.lower_bound = bound;
        candidate->desc.lower_strict = true;
        break;
      case CmpOp::kGe:
        candidate->desc.has_lower_bound = true;
        candidate->desc.lower_bound = bound;
        candidate->desc.lower_strict = false;
        break;
      case CmpOp::kEq:
        candidate->desc.has_lower_bound = true;
        candidate->desc.lower_bound = bound;
        candidate->desc.lower_strict = false;
        candidate->desc.has_upper_bound = true;
        candidate->desc.upper_bound = bound;
        candidate->desc.upper_strict = false;
        break;
      default:
        consumed = false;
        break;
    }
    if (consumed) {
      candidate->covered_conjuncts.push_back(ext_pred.query_conjunct_ids[q]);
      candidate->est_len *= 0.3;  // rough range selectivity
      candidate->est_out *= 0.3;
    }
  }
}

// Conjuncts of ext_pred guaranteed by the index view predicate, i.e.
// implied back by some index conjunct.
void CollectGuaranteed(const Predicate& index_pred, const ExtensionPredicate& ext_pred,
                       std::vector<int>* covered) {
  const auto& conjuncts = ext_pred.pred.conjuncts();
  for (size_t q = 0; q < conjuncts.size(); ++q) {
    for (const Comparison& ic : index_pred.conjuncts()) {
      if (ConjunctImplies(ic, conjuncts[q])) {
        covered->push_back(ext_pred.query_conjunct_ids[q]);
        break;
      }
    }
  }
}

// Sort compatibility outcome for one candidate.
struct SortResolution {
  bool usable = false;
  bool nbr_sorted = false;
  bool label_pinned = false;  // Ds case: leading nbr-label key pinned
  bool allow_range_bounds = false;
};

// Determines whether the list (given the bound category prefix) can
// serve the required sort, and whether it is effectively neighbour-ID
// sorted. Sort orders only hold within innermost sublists.
SortResolution ResolveSort(const IndexConfig& config, bool innermost, label_t nbr_label,
                           const SortCriterion* required_sort) {
  SortResolution out;
  if (innermost && !config.sorts.empty()) {
    if (config.sorts.front().source == SortSource::kNbrId) {
      out.nbr_sorted = true;
    } else if (config.sorts.front().source == SortSource::kNbrLabel &&
               nbr_label != kInvalidLabel && config.sorts.size() >= 2 &&
               config.sorts[1].source == SortSource::kNbrId) {
      // The Ds configuration: pinning the neighbour label with an
      // equality bound leaves a neighbour-ID-sorted run ("binary
      // searches inside lists", Section V-B).
      out.nbr_sorted = true;
      out.label_pinned = true;
    }
  }
  if (required_sort == nullptr) {
    out.usable = true;
    out.allow_range_bounds = innermost && !out.label_pinned;
    return out;
  }
  if (required_sort->source == SortSource::kNbrId) {
    out.usable = out.nbr_sorted;
    out.allow_range_bounds = false;  // bounds would clash with the pin
    return out;
  }
  // Property-sorted requirement (MULTI-EXTEND): first criterion must
  // match exactly on an innermost sublist.
  out.usable = innermost && !config.sorts.empty() && config.sorts.front() == *required_sort;
  out.allow_range_bounds = false;
  return out;
}

}  // namespace

CandidateList& CandidateScratch::Add() {
  if (size_ == lists_.size()) {
    ++size_;
    return lists_.emplace_back();
  }
  // Reset a retired slot, keeping its vectors' capacity.
  CandidateList& candidate = lists_[size_++];
  std::vector<category_t> cats = std::move(candidate.desc.cats);
  std::vector<int> covered = std::move(candidate.covered_conjuncts);
  cats.clear();
  covered.clear();
  candidate = CandidateList();
  candidate.desc.cats = std::move(cats);
  candidate.covered_conjuncts = std::move(covered);
  return candidate;
}

void IndexMatcher::BindPartitionPrefix(const IndexConfig& config, label_t edge_label,
                                       label_t nbr_label, const ExtensionPredicate& ext_pred,
                                       CandidateList* candidate) const {
  std::vector<category_t>* cats = &candidate->desc.cats;
  const auto& conjuncts = ext_pred.pred.conjuncts();
  for (const PartitionCriterion& criterion : config.partitions) {
    switch (criterion.source) {
      case PartitionSource::kEdgeLabel:
        if (edge_label == kInvalidLabel) return;
        cats->push_back(edge_label);
        break;
      case PartitionSource::kNbrLabel:
        if (nbr_label == kInvalidLabel) return;
        cats->push_back(nbr_label);
        break;
      case PartitionSource::kEdgeProp:
      case PartitionSource::kNbrProp: {
        PropSite site = criterion.source == PartitionSource::kEdgeProp ? PropSite::kAdjEdge
                                                                       : PropSite::kNbrVertex;
        // Only a literal inside the domain names a partition; any other
        // (the null slot's index, past the fanout, negative, non-integer)
        // stays a residual filter.
        const int64_t domain_size =
            store_->graph()->catalog().property(criterion.key).domain_size;
        int found = -1;
        for (size_t q = 0; q < conjuncts.size(); ++q) {
          const Comparison& cmp = conjuncts[q];
          if (cmp.op == CmpOp::kEq && cmp.rhs_is_const && cmp.lhs.site == site &&
              !cmp.lhs.is_label && !cmp.lhs.is_id && cmp.lhs.key == criterion.key &&
              (cmp.rhs_const.type() == ValueType::kInt64 ||
               cmp.rhs_const.type() == ValueType::kCategory) &&
              cmp.rhs_const.AsInt64() >= 0 && cmp.rhs_const.AsInt64() < domain_size) {
            found = static_cast<int>(q);
            break;
          }
        }
        if (found < 0) return;
        cats->push_back(static_cast<category_t>(conjuncts[found].rhs_const.AsInt64()));
        candidate->covered_conjuncts.push_back(ext_pred.query_conjunct_ids[found]);
        break;
      }
    }
  }
}

void IndexMatcher::FindVertexLists(Direction dir, label_t edge_label, label_t nbr_label,
                                   const ExtensionPredicate& ext_pred,
                                   const SortCriterion* required_sort,
                                   CandidateScratch* out) const {
  out->Clear();
  const Catalog& catalog = store_->graph()->catalog();

  auto consider = [&](ListDescriptor::Source source, const PrimaryIndex* primary,
                      const VpIndex* vp) {
    const IndexConfig& config = source == ListDescriptor::Source::kVp ? vp->config()
                                                                      : primary->config();
    // View-predicate subsumption (primary indexes have an empty view).
    const Predicate empty;
    const Predicate& index_pred =
        source == ListDescriptor::Source::kVp ? vp->view().pred : empty;
    if (!PredicateSubsumes(index_pred, ext_pred.pred, nullptr)) return;

    CandidateList& candidate = out->Add();
    candidate.desc.source = source;
    candidate.desc.primary = primary;
    candidate.desc.vp = vp;

    BindPartitionPrefix(config, edge_label, nbr_label, ext_pred, &candidate);
    bool innermost = candidate.desc.cats.size() == config.partitions.size();

    SortResolution sort = ResolveSort(config, innermost, nbr_label, required_sort);
    if (!sort.usable) {
      out->PopBack();
      return;
    }
    candidate.desc.nbr_sorted = sort.nbr_sorted;
    if (sort.label_pinned) {
      candidate.desc.has_lower_bound = true;
      candidate.desc.lower_bound = nbr_label;
      candidate.desc.lower_strict = false;
      candidate.desc.has_upper_bound = true;
      candidate.desc.upper_bound = nbr_label;
      candidate.desc.upper_strict = false;
    }

    // Which label filters remain for the operator to apply.
    bool edge_label_covered = false;
    bool nbr_label_covered = sort.label_pinned;
    for (size_t i = 0; i < candidate.desc.cats.size(); ++i) {
      if (config.partitions[i].source == PartitionSource::kEdgeLabel) edge_label_covered = true;
      if (config.partitions[i].source == PartitionSource::kNbrLabel) nbr_label_covered = true;
    }
    if (!edge_label_covered && edge_label != kInvalidLabel) {
      candidate.desc.edge_label_filter = edge_label;
    }
    if (!nbr_label_covered && nbr_label != kInvalidLabel) {
      candidate.desc.target_vertex_label = nbr_label;
    }

    // Covered conjuncts: those consumed by partition binding (already
    // recorded) plus those guaranteed by the view predicate.
    CollectGuaranteed(index_pred, ext_pred, &candidate.covered_conjuncts);

    // Estimated list length.
    double est = stats_->AvgListLen(edge_label_covered || edge_label == kInvalidLabel
                                        ? edge_label
                                        : kInvalidLabel);
    for (size_t i = 0; i < candidate.desc.cats.size(); ++i) {
      const PartitionCriterion& criterion = config.partitions[i];
      if (criterion.source == PartitionSource::kNbrLabel) {
        est *= stats_->VertexLabelFraction(nbr_label);
      } else if (criterion.source == PartitionSource::kEdgeProp ||
                 criterion.source == PartitionSource::kNbrProp) {
        uint32_t fanout = PartitionFanout(catalog, criterion);
        if (fanout > 1) est /= static_cast<double>(fanout - 1);
      }
    }
    if (sort.label_pinned) est *= stats_->VertexLabelFraction(nbr_label);
    if (source == ListDescriptor::Source::kVp) {
      uint64_t base = primary->num_edges_indexed();
      if (base > 0 && !vp->view().pred.IsTrue()) {
        est *= static_cast<double>(vp->num_edges_indexed()) / static_cast<double>(base);
      }
    }
    candidate.est_len = est;
    // Label filters applied while consuming entries reduce the output
    // but not the list-read cost.
    double out = est;
    if (candidate.desc.target_vertex_label != kInvalidLabel) {
      out *= stats_->VertexLabelFraction(nbr_label);
    }
    if (candidate.desc.edge_label_filter != kInvalidLabel && stats_->num_edges > 0) {
      out *= stats_->AvgListLen(edge_label) / std::max(stats_->AvgListLen(kInvalidLabel), 1e-9);
    }
    candidate.est_out = out;
    candidate.allow_param_range_bounds = sort.allow_range_bounds;
    if (sort.allow_range_bounds) ApplySortKeyBounds(config, ext_pred, &candidate);
  };

  const PrimaryIndex* primary = store_->primary(dir);
  consider(ListDescriptor::Source::kPrimary, primary, nullptr);
  for (const auto& vp : store_->vp_indexes()) {
    if (vp->direction() != dir) continue;
    consider(ListDescriptor::Source::kVp, vp->primary(), vp.get());
  }
}

void IndexMatcher::FindEdgeLists(EpKind kind, label_t edge_label, label_t nbr_label,
                                 const ExtensionPredicate& ext_pred,
                                 const SortCriterion* required_sort,
                                 CandidateScratch* out) const {
  out->Clear();
  const Catalog& catalog = store_->graph()->catalog();
  for (const auto& ep : store_->ep_indexes()) {
    if (ep->kind() != kind) continue;
    // Partially materialized EP indexes cannot serve sorted
    // intersections: unmaterialized lists are derived at run time in
    // base-list order.
    if (required_sort != nullptr && !ep->fully_materialized()) continue;
    const IndexConfig& config = ep->config();
    if (!PredicateSubsumes(ep->view().pred, ext_pred.pred, nullptr)) continue;

    CandidateList& candidate = out->Add();
    candidate.desc.source = ListDescriptor::Source::kEp;
    candidate.desc.ep = ep.get();
    BindPartitionPrefix(config, edge_label, nbr_label, ext_pred, &candidate);
    bool innermost = candidate.desc.cats.size() == config.partitions.size();
    SortResolution sort = ResolveSort(config, innermost, nbr_label, required_sort);
    if (!sort.usable) {
      out->PopBack();
      continue;
    }
    candidate.desc.nbr_sorted = sort.nbr_sorted;
    if (sort.label_pinned) {
      candidate.desc.has_lower_bound = true;
      candidate.desc.lower_bound = nbr_label;
      candidate.desc.lower_strict = false;
      candidate.desc.has_upper_bound = true;
      candidate.desc.upper_bound = nbr_label;
      candidate.desc.upper_strict = false;
    }
    bool edge_label_covered = false;
    bool nbr_label_covered = sort.label_pinned;
    for (size_t i = 0; i < candidate.desc.cats.size(); ++i) {
      if (config.partitions[i].source == PartitionSource::kEdgeLabel) edge_label_covered = true;
      if (config.partitions[i].source == PartitionSource::kNbrLabel) nbr_label_covered = true;
    }
    if (!edge_label_covered && edge_label != kInvalidLabel) {
      candidate.desc.edge_label_filter = edge_label;
    }
    if (!nbr_label_covered && nbr_label != kInvalidLabel) {
      candidate.desc.target_vertex_label = nbr_label;
    }
    CollectGuaranteed(ep->view().pred, ext_pred, &candidate.covered_conjuncts);

    double est = stats_->num_edges == 0
                     ? 0.0
                     : static_cast<double>(ep->num_edges_indexed()) /
                           static_cast<double>(stats_->num_edges);
    for (size_t i = 0; i < candidate.desc.cats.size(); ++i) {
      const PartitionCriterion& criterion = config.partitions[i];
      uint32_t fanout = PartitionFanout(catalog, criterion);
      if (fanout > 1) est /= static_cast<double>(fanout);
    }
    candidate.est_len = est;
    double out = est;
    if (candidate.desc.target_vertex_label != kInvalidLabel) {
      out *= stats_->VertexLabelFraction(nbr_label);
    }
    candidate.est_out = out;
    candidate.allow_param_range_bounds = sort.allow_range_bounds;
    if (sort.allow_range_bounds) ApplySortKeyBounds(config, ext_pred, &candidate);
  }
}

}  // namespace aplus
