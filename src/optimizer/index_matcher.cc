#include "optimizer/index_matcher.h"

#include "util/logging.h"

namespace aplus {

namespace {

// The descriptor bound `cmp` puts on a list whose first sort criterion is
// `sort`: true, with the encoded bound value, when `cmp` is a constant
// range comparison (<, <=, >, >=, =) on the sort key.
bool SortKeyBound(const SortCriterion& sort, const Comparison& cmp, int64_t* bound) {
  PropSite site;
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
      return false;
  }
  if (!cmp.rhs_is_const || cmp.lhs.site != site || cmp.lhs.is_label) return false;
  if (is_id != cmp.lhs.is_id) return false;
  if (!is_id && cmp.lhs.key != sort.key) return false;
  if (cmp.rhs_const.is_null()) return false;
  switch (cmp.op) {
    case CmpOp::kLt:
    case CmpOp::kLe:
    case CmpOp::kGt:
    case CmpOp::kGe:
    case CmpOp::kEq:
      break;
    default:
      return false;
  }
  switch (cmp.rhs_const.type()) {
    case ValueType::kInt64:
    case ValueType::kCategory:
    case ValueType::kBool:
      *bound = cmp.rhs_const.AsInt64();
      return true;
    case ValueType::kDouble:
      *bound = EncodeDoubleSortKey(cmp.rhs_const.AsDouble());
      return true;
    default:
      return false;
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

}  // namespace

void CandidateScratch::AssignAccessPath(const CandidateList& from, CandidateList* to) {
  ListDescriptor& desc = to->desc;
  const ListDescriptor& src = from.desc;
  desc.source = src.source;
  desc.primary = src.primary;
  desc.vp = src.vp;
  desc.ep = src.ep;
  desc.bound_var = src.bound_var;
  desc.cats.assign(src.cats.begin(), src.cats.end());
  desc.target_vertex_var = src.target_vertex_var;
  desc.target_edge_var = src.target_edge_var;
  desc.target_bound = src.target_bound;
  desc.nbr_sorted = src.nbr_sorted;
  desc.target_vertex_label = src.target_vertex_label;
  desc.edge_label_filter = src.edge_label_filter;
  desc.has_upper_bound = src.has_upper_bound;
  desc.upper_bound = src.upper_bound;
  desc.upper_strict = src.upper_strict;
  desc.has_lower_bound = src.has_lower_bound;
  desc.lower_bound = src.lower_bound;
  desc.lower_strict = src.lower_strict;
  desc.upper_bound_param = src.upper_bound_param;
  desc.lower_bound_param = src.lower_bound_param;
  desc.bound_param_double = src.bound_param_double;
  to->covered_conjuncts.assign(from.covered_conjuncts.begin(), from.covered_conjuncts.end());
  to->est_len = from.est_len;
  to->est_out = from.est_out;
  to->innermost = from.innermost;
  to->allow_range_bounds = from.allow_range_bounds;
}

CandidateList& CandidateScratch::Add() {
  if (size_ == lists_.size()) {
    ++size_;
    return lists_.emplace_back();
  }
  // Reset a retired slot in place, keeping its vectors' capacity.
  static const CandidateList kDefault{};
  CandidateList& candidate = lists_[size_++];
  AssignAccessPath(kDefault, &candidate);
  return candidate;
}

CandidateList& CandidateScratch::AddAccessPathOf(size_t i) {
  CandidateList& copy = Add();  // may grow lists_: index `i` only after
  AssignAccessPath(lists_[i], &copy);
  return copy;
}

bool IndexMatcher::ServesSort(const CandidateList& candidate,
                              const SortCriterion* required_sort) {
  if (required_sort == nullptr) return true;
  const ListDescriptor& desc = candidate.desc;
  if (required_sort->source == SortSource::kNbrId) return desc.nbr_sorted;
  // Property-sorted requirement (MULTI-EXTEND): the first criterion must
  // match exactly on an innermost sublist.
  const std::vector<SortCriterion>& sorts = desc.sorts();
  return candidate.innermost && !sorts.empty() && sorts.front() == *required_sort;
}

bool IndexMatcher::HasSortKeyBound(const ExtensionPredicate& ext_pred,
                                   const CandidateList& candidate) {
  const std::vector<SortCriterion>& sorts = candidate.desc.sorts();
  if (sorts.empty()) return false;
  int64_t bound;
  for (const Comparison& cmp : ext_pred.pred.conjuncts()) {
    if (SortKeyBound(sorts.front(), cmp, &bound)) return true;
  }
  return false;
}

void IndexMatcher::ApplySortKeyBounds(const ExtensionPredicate& ext_pred,
                                      CandidateList* candidate) {
  const std::vector<SortCriterion>& sorts = candidate->desc.sorts();
  if (sorts.empty()) return;
  const auto& conjuncts = ext_pred.pred.conjuncts();
  for (size_t q = 0; q < conjuncts.size(); ++q) {
    const Comparison& cmp = conjuncts[q];
    int64_t bound;
    if (!SortKeyBound(sorts.front(), cmp, &bound)) continue;
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
        break;
    }
    candidate->covered_conjuncts.push_back(ext_pred.query_conjunct_ids[q]);
    candidate->est_len *= 0.3;  // rough range selectivity
    candidate->est_out *= 0.3;
  }
}

IndexMatcher::ListShape IndexMatcher::ResolveListShape(const IndexConfig& config,
                                                       label_t edge_label, label_t nbr_label,
                                                       CandidateList* candidate) {
  ListDescriptor& desc = candidate->desc;
  ListShape shape;
  // Sort orders only hold within innermost sublists.
  candidate->innermost = desc.cats.size() == config.partitions.size();
  if (candidate->innermost && !config.sorts.empty()) {
    if (config.sorts.front().source == SortSource::kNbrId) {
      desc.nbr_sorted = true;
    } else if (config.sorts.front().source == SortSource::kNbrLabel &&
               nbr_label != kInvalidLabel && config.sorts.size() >= 2 &&
               config.sorts[1].source == SortSource::kNbrId) {
      // The Ds configuration: pinning the neighbour label with an
      // equality bound leaves a neighbour-ID-sorted run ("binary
      // searches inside lists", Section V-B).
      desc.nbr_sorted = true;
      shape.label_pinned = true;
      desc.has_lower_bound = true;
      desc.lower_bound = nbr_label;
      desc.lower_strict = false;
      desc.has_upper_bound = true;
      desc.upper_bound = nbr_label;
      desc.upper_strict = false;
    }
  }
  candidate->allow_range_bounds = candidate->innermost && !shape.label_pinned;

  // Which label filters remain for the operator to apply.
  bool nbr_label_covered = shape.label_pinned;
  for (size_t i = 0; i < desc.cats.size(); ++i) {
    if (config.partitions[i].source == PartitionSource::kEdgeLabel) {
      shape.edge_label_covered = true;
    }
    if (config.partitions[i].source == PartitionSource::kNbrLabel) nbr_label_covered = true;
  }
  if (!shape.edge_label_covered && edge_label != kInvalidLabel) {
    desc.edge_label_filter = edge_label;
  }
  if (!nbr_label_covered && nbr_label != kInvalidLabel) desc.target_vertex_label = nbr_label;
  return shape;
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
                                   CandidateScratch* out) const {
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
    const ListShape shape = ResolveListShape(config, edge_label, nbr_label, &candidate);

    // Covered conjuncts: those consumed by partition binding (already
    // recorded) plus those guaranteed by the view predicate.
    CollectGuaranteed(index_pred, ext_pred, &candidate.covered_conjuncts);

    // Estimated list length.
    double est = stats_->AvgListLen(shape.edge_label_covered || edge_label == kInvalidLabel
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
    if (shape.label_pinned) est *= stats_->VertexLabelFraction(nbr_label);
    if (source == ListDescriptor::Source::kVp) {
      uint64_t base = primary->num_edges_indexed();
      if (base > 0 && !vp->view().pred.IsTrue()) {
        est *= static_cast<double>(vp->num_edges_indexed()) / static_cast<double>(base);
      }
    }
    candidate.est_len = est;
    // Label filters applied while consuming entries reduce the output
    // but not the list-read cost.
    double out_est = est;
    if (candidate.desc.target_vertex_label != kInvalidLabel) {
      out_est *= stats_->VertexLabelFraction(nbr_label);
    }
    if (candidate.desc.edge_label_filter != kInvalidLabel && stats_->num_edges > 0) {
      out_est *=
          stats_->AvgListLen(edge_label) / std::max(stats_->AvgListLen(kInvalidLabel), 1e-9);
    }
    candidate.est_out = out_est;
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
                                 CandidateScratch* out) const {
  const Catalog& catalog = store_->graph()->catalog();
  for (const auto& ep : store_->ep_indexes()) {
    if (ep->kind() != kind) continue;
    const IndexConfig& config = ep->config();
    if (!PredicateSubsumes(ep->view().pred, ext_pred.pred, nullptr)) continue;

    CandidateList& candidate = out->Add();
    candidate.desc.source = ListDescriptor::Source::kEp;
    candidate.desc.ep = ep.get();
    BindPartitionPrefix(config, edge_label, nbr_label, ext_pred, &candidate);
    ResolveListShape(config, edge_label, nbr_label, &candidate);
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
    double out_est = est;
    if (candidate.desc.target_vertex_label != kInvalidLabel) {
      out_est *= stats_->VertexLabelFraction(nbr_label);
    }
    candidate.est_out = out_est;
  }
}

}  // namespace aplus
