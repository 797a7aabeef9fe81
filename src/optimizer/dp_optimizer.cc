#include "optimizer/dp_optimizer.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/logging.h"

namespace aplus {

namespace {

// Per-conjunct metadata: which query vertices must be bound before the
// conjunct can be evaluated (edge variables imply both endpoints).
uint32_t ConjunctVertexMask(const QueryGraph& query, const QueryComparison& cmp) {
  uint32_t mask = 0;
  auto add = [&](const QueryPropRef& ref) {
    if (ref.var < 0) return;
    if (ref.is_edge) {
      const QueryEdge& qe = query.edge(ref.var);
      mask |= 1u << qe.from;
      mask |= 1u << qe.to;
    } else {
      mask |= 1u << ref.var;
    }
  };
  add(cmp.lhs);
  if (!cmp.rhs_is_const) add(cmp.rhs_ref);
  return mask;
}

// A vertex-ID range against a constant (a3.ID < 10000): selectivities of
// such conjuncts on one variable intersect as a window instead of
// multiplying.
bool IsVertexIdRange(const QueryComparison& cmp) {
  return !cmp.lhs.is_edge && cmp.lhs.is_id && cmp.rhs_is_const && !cmp.rhs_const.is_null() &&
         (cmp.op == CmpOp::kLt || cmp.op == CmpOp::kLe || cmp.op == CmpOp::kGt ||
          cmp.op == CmpOp::kGe);
}

// A vertex-property equality between two query vertices (a2.city =
// a4.city): the relation a MULTI-EXTEND group merge-joins on.
bool IsVertexPropEquality(const QueryComparison& cmp) {
  return !cmp.rhs_is_const && cmp.op == CmpOp::kEq && !cmp.lhs.is_edge &&
         !cmp.rhs_ref.is_edge && cmp.lhs.key != kInvalidPropKey &&
         cmp.lhs.key == cmp.rhs_ref.key && cmp.rhs_addend == 0;
}

// What the DP needs of one WHERE conjunct, computed once per Optimize.
struct ConjunctInfo {
  uint32_t mask = 0;         // query vertices that must be bound to evaluate it
  bool id_range = false;     // IsVertexIdRange
  double selectivity = 1.0;  // EstimateSelectivity, unless id_range
};

// One DP table slot: the cheapest known plan for a set of bound query
// vertices, as its last step plus a link to the slot it extended.
struct DpEntry {
  double icost = 0.0;
  double card = 0.0;
  uint32_t parent = 0;  // bound set before the last step (0 for a scan)
  int step = -1;        // index of the last step's StepRecord; -1 = no plan yet
};

// One step of a DP transition that improved its slot; its lists and
// residual conjuncts are index ranges into per-call pools.
struct StepRecord {
  PlanStep::Kind kind = PlanStep::Kind::kScan;
  int scan_var = -1;
  int target_var = -1;
  uint32_t lists_begin = 0;
  uint32_t lists_end = 0;
  uint32_t residual_begin = 0;
  uint32_t residual_end = 0;
};

}  // namespace

double EstimateSelectivity(const Graph& graph, const QueryComparison& cmp) {
  auto domain_of = [&graph](const QueryPropRef& ref) -> uint32_t {
    if (ref.is_id || ref.key == kInvalidPropKey) return 0;
    const PropertyMeta& meta = graph.catalog().property(ref.key);
    return meta.type == ValueType::kCategory ? meta.domain_size : 0;
  };
  // Vertex-ID ranges against constants are exact: IDs are dense in
  // [0, num_vertices).
  if (!cmp.lhs.is_edge && cmp.lhs.is_id && cmp.rhs_is_const &&
      !cmp.rhs_const.is_null()) {
    double nv = std::max<double>(1.0, static_cast<double>(graph.num_vertices()));
    double bound = static_cast<double>(cmp.rhs_const.AsInt64());
    double frac;
    switch (cmp.op) {
      case CmpOp::kLt:
        frac = bound / nv;
        break;
      case CmpOp::kLe:
        frac = (bound + 1.0) / nv;
        break;
      case CmpOp::kGt:
        frac = (nv - bound - 1.0) / nv;
        break;
      case CmpOp::kGe:
        frac = (nv - bound) / nv;
        break;
      case CmpOp::kEq:
        frac = 1.0 / nv;
        break;
      case CmpOp::kNe:
        frac = (nv - 1.0) / nv;
        break;
      default:
        frac = 0.3;
    }
    return std::min(1.0, std::max(frac, 1.0 / nv));
  }
  switch (cmp.op) {
    case CmpOp::kEq: {
      uint32_t domain = domain_of(cmp.lhs);
      if (domain == 0 && !cmp.rhs_is_const) domain = domain_of(cmp.rhs_ref);
      if (domain > 0) return 1.0 / static_cast<double>(domain);
      return 0.1;
    }
    case CmpOp::kNe:
      return 0.9;
    default:
      return 0.3;
  }
}

double EstimateCombinedSelectivity(const Graph& graph,
                                   const std::vector<QueryComparison>& conjuncts) {
  double nv = std::max<double>(1.0, static_cast<double>(graph.num_vertices()));
  // Per-variable ID windows [lo, hi).
  struct Window {
    double lo = 0.0;
    double hi = -1.0;  // -1 = unset (defaults to nv)
  };
  std::unordered_map<int, Window> windows;
  double selectivity = 1.0;
  for (const QueryComparison& cmp : conjuncts) {
    if (!IsVertexIdRange(cmp)) {
      selectivity *= EstimateSelectivity(graph, cmp);
      continue;
    }
    Window& w = windows[cmp.lhs.var];
    if (w.hi < 0.0) w.hi = nv;
    double bound = static_cast<double>(cmp.rhs_const.AsInt64());
    switch (cmp.op) {
      case CmpOp::kLt:
        w.hi = std::min(w.hi, bound);
        break;
      case CmpOp::kLe:
        w.hi = std::min(w.hi, bound + 1.0);
        break;
      case CmpOp::kGt:
        w.lo = std::max(w.lo, bound + 1.0);
        break;
      case CmpOp::kGe:
        w.lo = std::max(w.lo, bound);
        break;
      default:
        break;
    }
  }
  for (const auto& [var, w] : windows) {
    (void)var;
    double width = std::max(0.0, w.hi - w.lo);
    selectivity *= std::min(1.0, std::max(width / nv, 1.0 / nv));
  }
  return selectivity;
}

DpOptimizer::DpOptimizer(const Graph* graph, const IndexStore* store)
    : graph_(graph), store_(store), stats_(GraphStats::Compute(*graph)) {}

std::unique_ptr<Plan> DpOptimizer::Optimize(const QueryGraph& query,
                                            std::unique_ptr<Operator> sink) {
  const int n = query.num_vertices();
  const int num_edges = query.num_edges();
  APLUS_CHECK_GT(n, 0);
  APLUS_CHECK_LE(n, kMaxQueryVertices) << "query too large for the subset DP";
  IndexMatcher matcher(store_, &stats_);
  const auto& conjuncts = query.predicates();
  const int num_conjuncts = static_cast<int>(conjuncts.size());
  std::vector<ConjunctInfo> info;
  info.reserve(conjuncts.size());
  for (const QueryComparison& cmp : conjuncts) {
    ConjunctInfo ci;
    ci.mask = ConjunctVertexMask(query, cmp);
    ci.id_range = IsVertexIdRange(cmp);
    if (!ci.id_range) ci.selectivity = EstimateSelectivity(*graph_, cmp);
    info.push_back(ci);
  }
  const uint32_t full = (1u << n) - 1;
  std::vector<DpEntry> table(static_cast<size_t>(full) + 1);

  // Access-path sort requirements, by slot: none, neighbour ID (E/I
  // intersections), then one per MULTI-EXTEND key.
  constexpr int kNoSort = 0;
  constexpr int kNbrIdSort = 1;
  std::vector<SortCriterion> sorts(2);
  sorts[kNbrIdSort] = SortCriterion{SortSource::kNbrId, kInvalidPropKey};

  // MULTI-EXTEND keys: vertex properties related by an equality between
  // two query vertices, ascending. Per key, the union-find over ALL query
  // vertices is computed once: chained equalities (a1.city = a2.city =
  // a3.city, MF2) transitively connect eligible members even when the
  // middle vertex is already bound.
  std::vector<prop_key_t> keys;
  for (const QueryComparison& cmp : conjuncts) {
    if (IsVertexPropEquality(cmp)) keys.push_back(cmp.lhs.key);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<int> comp(keys.size() * n);  // comp[k * n + v]: v's component under keys[k]
  for (size_t k = 0; k < keys.size(); ++k) {
    int* root = &comp[k * n];
    for (int v = 0; v < n; ++v) root[v] = v;
    auto find = [root](int v) {
      while (root[v] != v) v = root[v] = root[root[v]];
      return v;
    };
    for (const QueryComparison& cmp : conjuncts) {
      if (IsVertexPropEquality(cmp) && cmp.lhs.key == keys[k]) {
        root[find(cmp.lhs.var)] = find(cmp.rhs_ref.var);
      }
    }
    for (int v = 0; v < n; ++v) root[v] = find(v);
    sorts.push_back(SortCriterion{SortSource::kNbrProp, keys[k]});
  }

  // Per-call step arena: the DP table stores only costs and parent
  // links; each improving transition appends one record whose lists and
  // residual conjuncts are ranges of `step_lists` / `step_residual`.
  std::vector<StepRecord> records;
  std::vector<int> step_lists;     // indices into `cands`
  std::vector<int> step_residual;  // conjunct ids
  // Scratch of the transition under evaluation.
  std::vector<int> picked;    // chosen access path per extended edge
  std::vector<int> covered;   // conjunct ids the chosen lists guarantee
  std::vector<int> residual;  // conjunct ids left to filter
  std::vector<int> conn;      // query edges from the bound set to a target

  // Conjuncts that become evaluable when moving prev -> now, excluding
  // those in `covered`: a conjunct is applied exactly once, at the first
  // state where it became evaluable. Because we always extend by
  // consuming all connecting edges, "first evaluable" is deterministic
  // per mask.
  auto collect_residual = [&](uint32_t prev, uint32_t now) {
    residual.clear();
    for (int c = 0; c < num_conjuncts; ++c) {
      uint32_t need = info[c].mask;
      if ((need & now) != need) continue;                              // not yet evaluable
      if (prev != 0 && (need & ~prev) == 0 && prev != now) continue;  // already applied earlier
      if (prev == now && prev != 0) continue;
      if (std::find(covered.begin(), covered.end(), c) != covered.end()) continue;
      residual.push_back(c);
    }
  };
  // EstimateCombinedSelectivity of the residual conjuncts: the product of
  // the precomputed per-conjunct selectivities, in the same order, unless
  // a vertex-ID window needs the exact intersection.
  auto residual_selectivity = [&]() {
    for (int c : residual) {
      if (!info[c].id_range) continue;
      std::vector<QueryComparison> preds;
      for (int r : residual) preds.push_back(conjuncts[r]);
      return EstimateCombinedSelectivity(*graph_, preds);
    }
    double selectivity = 1.0;
    for (int c : residual) selectivity *= info[c].selectivity;
    return selectivity;
  };
  // Keeps the transition mask -> now if it beats table[now]: lower
  // i-cost, then lower cardinality; the first of equals wins.
  auto try_update = [&](uint32_t mask, uint32_t now, double icost, double card,
                        PlanStep::Kind kind, int scan_var, int target_var) {
    DpEntry& slot = table[now];
    if (slot.step >= 0 &&
        !(icost < slot.icost || (icost == slot.icost && card < slot.card))) {
      return;
    }
    slot = DpEntry{icost, card, mask, static_cast<int>(records.size())};
    StepRecord record;
    record.kind = kind;
    record.scan_var = scan_var;
    record.target_var = target_var;
    record.lists_begin = static_cast<uint32_t>(step_lists.size());
    step_lists.insert(step_lists.end(), picked.begin(), picked.end());
    record.lists_end = static_cast<uint32_t>(step_lists.size());
    record.residual_begin = static_cast<uint32_t>(step_residual.size());
    step_residual.insert(step_residual.end(), residual.begin(), residual.end());
    record.residual_end = static_cast<uint32_t>(step_residual.size());
    records.push_back(record);
  };

  // Seeds: every query vertex as a scan.
  picked.clear();
  covered.clear();
  for (int v = 0; v < n; ++v) {
    uint32_t mask = 1u << v;
    const QueryVertex& qv = query.vertex(v);
    double card = qv.bound != kInvalidVertex
                      ? 1.0
                      : static_cast<double>(stats_.VertexLabelCount(qv.label));
    collect_residual(0, mask);
    card *= residual_selectivity();
    if (card < 1.0) card = 1.0;
    double icost = qv.bound != kInvalidVertex ? 0.0 : static_cast<double>(stats_.num_vertices);
    try_update(0, mask, icost, card, PlanStep::Kind::kScan, v, -1);
  }

  // Builds the ExtensionPredicate for extending along query edge `qe_id`
  // towards vertex `target`, optionally pairing with bound edge `eb_id`
  // (for EP lists; -1 otherwise).
  auto build_ext_pred = [&](int qe_id, int target, int eb_id) -> ExtensionPredicate {
    ExtensionPredicate ext;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      const QueryComparison& cmp = conjuncts[c];
      // A $param conjunct has no constant until bind time: it can never
      // certify subsumption by a predicate-filtered index (a null
      // rhs_const would compare as +infinity and wrongly imply upper
      // bounds), so it stays a residual.
      if (cmp.rhs_param >= 0) continue;
      // Translate into view-site form when every reference maps.
      auto translate = [&](const QueryPropRef& ref, PropRef* out) -> bool {
        if (ref.is_edge) {
          if (ref.var == qe_id) {
            out->site = PropSite::kAdjEdge;
          } else if (ref.var == eb_id && eb_id >= 0) {
            out->site = PropSite::kBoundEdge;
          } else {
            return false;
          }
        } else {
          if (ref.var == target) {
            out->site = PropSite::kNbrVertex;
          } else {
            return false;
          }
        }
        out->key = ref.key;
        out->is_id = ref.is_id;
        out->is_label = false;
        return true;
      };
      Comparison translated;
      if (!translate(cmp.lhs, &translated.lhs)) continue;
      translated.op = cmp.op;
      translated.rhs_is_const = cmp.rhs_is_const;
      translated.rhs_const = cmp.rhs_const;
      translated.rhs_addend = cmp.rhs_addend;
      if (!cmp.rhs_is_const) {
        if (!translate(cmp.rhs_ref, &translated.rhs_ref)) continue;
      }
      ext.pred.Add(std::move(translated));
      ext.query_conjunct_ids.push_back(static_cast<int>(c));
    }
    return ext;
  };

  // Folds $param range conjuncts on the candidate's first sort key into
  // bind-time-patched descriptor bounds (ParamSlots::RangeSlot). A
  // $param has no constant at plan time, so it can never certify
  // subsumption or a literal bound — but when the list is sorted on the
  // conjunct's property, the *bound value* is the only missing piece,
  // and patching it at Bind re-enables the sorted-prefix binary search
  // (the MagicRecs time-window parameter, Section V-C1). The folded
  // conjunct is marked covered and leaves the residual set.
  auto fold_param_range_bounds = [&](CandidateList* c) {
    if (!c->allow_param_range_bounds) return;
    const std::vector<SortCriterion>& sorts = c->desc.sorts();
    if (sorts.empty()) return;
    const SortCriterion& sort = sorts.front();
    for (size_t qc = 0; qc < conjuncts.size(); ++qc) {
      const QueryComparison& cmp = conjuncts[qc];
      if (cmp.rhs_param < 0 || !cmp.rhs_is_const) continue;
      bool matches = false;
      switch (sort.source) {
        case SortSource::kEdgeProp:
          matches = cmp.lhs.is_edge && cmp.lhs.var == c->desc.target_edge_var &&
                    !cmp.lhs.is_id && cmp.lhs.key == sort.key;
          break;
        case SortSource::kNbrProp:
          matches = !cmp.lhs.is_edge && cmp.lhs.var == c->desc.target_vertex_var &&
                    !cmp.lhs.is_id && cmp.lhs.key == sort.key;
          break;
        case SortSource::kNbrId:
          matches = !cmp.lhs.is_edge && cmp.lhs.var == c->desc.target_vertex_var &&
                    cmp.lhs.is_id;
          break;
        default:
          break;
      }
      if (!matches) continue;
      // One param bound per side; literal bounds installed by the
      // matcher keep priority (the extra conjunct stays residual).
      bool folded = false;
      switch (cmp.op) {
        case CmpOp::kLt:
        case CmpOp::kLe:
          if (!c->desc.has_upper_bound) {
            c->desc.has_upper_bound = true;
            c->desc.upper_strict = cmp.op == CmpOp::kLt;
            c->desc.upper_bound_param = cmp.rhs_param;
            folded = true;
          }
          break;
        case CmpOp::kGt:
        case CmpOp::kGe:
          if (!c->desc.has_lower_bound) {
            c->desc.has_lower_bound = true;
            c->desc.lower_strict = cmp.op == CmpOp::kGt;
            c->desc.lower_bound_param = cmp.rhs_param;
            folded = true;
          }
          break;
        case CmpOp::kEq:
          if (!c->desc.has_lower_bound && !c->desc.has_upper_bound) {
            c->desc.has_lower_bound = true;
            c->desc.lower_strict = false;
            c->desc.lower_bound_param = cmp.rhs_param;
            c->desc.has_upper_bound = true;
            c->desc.upper_strict = false;
            c->desc.upper_bound_param = cmp.rhs_param;
            folded = true;
          }
          break;
        default:
          break;
      }
      if (folded) {
        c->desc.bound_param_double = sort.source != SortSource::kNbrId &&
                                     sort.key != kInvalidPropKey &&
                                     graph_->catalog().property(sort.key).type ==
                                         ValueType::kDouble;
        c->covered_conjuncts.push_back(static_cast<int>(qc));
        c->est_len *= 0.3;  // rough range selectivity, as for literal bounds
        c->est_out *= 0.3;
      }
    }
  };

  // Candidate memo. The cheapest access path for extending along query
  // edge `qe_id` to `target` under a sort requirement depends on the
  // bound set only through which EP bound edge `eb_id` it pairs with
  // (-1: vertex-bound lists), so each (qe_id, target, eb_id, sort)
  // group is matched against the INDEX STORE once per call; `memo`
  // holds its first strictly cheapest candidate's index in `cands`, or
  // kNoCandidate.
  constexpr int kUnmatched = -2;
  constexpr int kNoCandidate = -1;
  std::vector<CandidateList> cands;
  std::vector<int> memo(static_cast<size_t>(num_edges) * 2 * (num_edges + 1) * sorts.size(),
                        kUnmatched);
  auto match_group = [&](int qe_id, int target, int eb_id, int sort) -> int {
    const QueryEdge& qe = query.edge(qe_id);
    int& slot = memo[((static_cast<size_t>(qe_id) * 2 + (qe.to == target)) * (num_edges + 1) +
                      (eb_id + 1)) *
                         sorts.size() +
                     sort];
    if (slot != kUnmatched) return slot;
    int pivot = qe.from == target ? qe.to : qe.from;
    Direction dir = qe.from == pivot ? Direction::kFwd : Direction::kBwd;
    label_t nbr_label = query.vertex(target).label;
    const SortCriterion* required_sort = sort == kNoSort ? nullptr : &sorts[sort];
    ExtensionPredicate ext = build_ext_pred(qe_id, target, eb_id);
    std::vector<CandidateList> found;
    if (eb_id < 0) {
      found = matcher.FindVertexLists(dir, qe.label, nbr_label, ext, required_sort);
    } else {
      const QueryEdge& eb = query.edge(eb_id);
      EpKind kind;
      if (eb.to == pivot) {
        kind = dir == Direction::kFwd ? EpKind::kDstFwd : EpKind::kDstBwd;
      } else {
        kind = dir == Direction::kFwd ? EpKind::kSrcBwd : EpKind::kSrcFwd;
      }
      found = matcher.FindEdgeLists(kind, qe.label, nbr_label, ext, required_sort);
    }
    vertex_id_t target_bound = query.vertex(target).bound;
    size_t best = 0;
    for (size_t i = 0; i < found.size(); ++i) {
      CandidateList& c = found[i];
      c.desc.bound_var = eb_id < 0 ? pivot : eb_id;
      c.desc.target_vertex_var = target;
      c.desc.target_edge_var = qe_id;
      c.desc.target_bound = target_bound;
      if (target_bound != kInvalidVertex) c.est_out = std::min(c.est_out, 1.0);
      fold_param_range_bounds(&c);
      if (c.est_len < found[best].est_len) best = i;
    }
    if (found.empty()) return slot = kNoCandidate;
    cands.push_back(std::move(found[best]));
    return slot = static_cast<int>(cands.size()) - 1;
  };
  // The cheapest access path for extending along `qe_id` from bound set
  // `mask` to `target`: vertex-bound lists first, then the EP lists of
  // every bound query edge incident to the pivot by ascending id; the
  // first strict minimum of est_len wins. kNoCandidate when none exists.
  auto best_candidate = [&](uint32_t mask, int qe_id, int target, int sort) -> int {
    const QueryEdge& qe = query.edge(qe_id);
    int pivot = qe.from == target ? qe.to : qe.from;
    int best = match_group(qe_id, target, -1, sort);
    for (int eb_id = 0; eb_id < num_edges; ++eb_id) {
      if (eb_id == qe_id) continue;
      const QueryEdge& eb = query.edge(eb_id);
      bool bound = ((mask >> eb.from) & 1) && ((mask >> eb.to) & 1);
      if (!bound) continue;
      if (eb.from != pivot && eb.to != pivot) continue;
      int c = match_group(qe_id, target, eb_id, sort);
      if (c != kNoCandidate && (best == kNoCandidate || cands[c].est_len < cands[best].est_len)) {
        best = c;
      }
    }
    return best;
  };
  // Picks one access path per (edge, target) pair into `picked`,
  // accumulating covered conjuncts, the summed list length (i-cost) and
  // the product of the lists' output estimates. False if some edge has
  // no access path under `sort`.
  double sum_len = 0.0;
  double prod_len = 1.0;
  auto start_pick = [&] {
    picked.clear();
    covered.clear();
    sum_len = 0.0;
    prod_len = 1.0;
  };
  auto pick = [&](uint32_t mask, int qe_id, int target, int sort) {
    int c = best_candidate(mask, qe_id, target, sort);
    if (c == kNoCandidate) return false;
    const CandidateList& best = cands[c];
    picked.push_back(c);
    covered.insert(covered.end(), best.covered_conjuncts.begin(), best.covered_conjuncts.end());
    sum_len += best.est_len;
    prod_len *= std::max(best.est_out, 1e-9);
    return true;
  };

  // Subset DP in order of increasing popcount, masks ascending within
  // each size (Gosper's hack enumerates them without materializing the
  // groups). A mask's entry is final once its size is reached: every
  // transition into it comes from a strictly smaller mask.
  const double nv = std::max<double>(1.0, static_cast<double>(stats_.num_vertices));
  for (int size = 1; size < n; ++size) {
    for (uint32_t mask = (1u << size) - 1; mask <= full;) {
      const DpEntry base = table[mask];
      if (base.step >= 0) {
        // --- E/I extensions by one vertex ---
        for (int target = 0; target < n; ++target) {
          if ((mask >> target) & 1) continue;
          conn.clear();
          for (int qe_id = 0; qe_id < num_edges; ++qe_id) {
            const QueryEdge& qe = query.edge(qe_id);
            int other = -1;
            if (qe.from == target) other = qe.to;
            if (qe.to == target) other = qe.from;
            if (other < 0 || other == target) continue;
            if ((mask >> other) & 1) conn.push_back(qe_id);
          }
          if (conn.empty()) continue;
          uint32_t now = mask | (1u << target);
          auto gather = [&](int sort) {
            start_pick();
            for (int qe_id : conn) {
              if (!pick(mask, qe_id, target, sort)) return false;
            }
            return true;
          };
          bool verify_fallback = false;
          bool ok = gather(conn.size() >= 2 ? kNbrIdSort : kNoSort);
          if (!ok && conn.size() >= 2) {
            // No sorted lists for an intersection (e.g. the Ds config
            // with an unlabelled target): fall back to extend + verify.
            ok = gather(kNoSort);
            verify_fallback = ok;
          }
          if (!ok) continue;

          double icost = base.icost + base.card * sum_len;
          double est_out;
          if (conn.size() == 1) {
            est_out = base.card * std::max(prod_len, 1e-9);
          } else {
            est_out = base.card * prod_len / std::pow(nv, static_cast<double>(conn.size() - 1));
          }
          collect_residual(mask, now);
          est_out *= residual_selectivity();
          PlanStep::Kind kind = conn.size() == 1
                                    ? PlanStep::Kind::kExtend
                                    : (verify_fallback ? PlanStep::Kind::kExtendVerify
                                                       : PlanStep::Kind::kExtendIntersect);
          try_update(mask, now, icost, std::max(est_out, 1e-9), kind, -1, target);
        }

        // --- MULTI-EXTEND extensions by a group of vertices related by
        // a shared-property equality (Section IV-A). ---
        // Eligible member: unbound, exactly one edge into `mask`.
        uint32_t eligible = 0;
        int conn_edge_of[kMaxQueryVertices] = {};
        for (int v = 0; v < n && !keys.empty(); ++v) {
          if ((mask >> v) & 1) continue;
          int count = 0;
          for (int qe_id = 0; qe_id < num_edges; ++qe_id) {
            const QueryEdge& qe = query.edge(qe_id);
            int other = -1;
            if (qe.from == v) other = qe.to;
            if (qe.to == v) other = qe.from;
            if (other >= 0 && ((mask >> other) & 1)) {
              ++count;
              conn_edge_of[v] = qe_id;
            }
          }
          if (count == 1) eligible |= 1u << v;
        }
        // Per key, each component with >= 2 eligible members can
        // merge-join on the shared key; members stay in ascending order.
        for (size_t k = 0; k < keys.size() && __builtin_popcount(eligible) >= 2; ++k) {
          const int* root = &comp[k * n];
          const int slot = static_cast<int>(2 + k);
          for (uint32_t rest = eligible; rest != 0;) {
            int r = root[__builtin_ctz(rest)];
            uint32_t members = 0;
            for (uint32_t bits = rest; bits != 0; bits &= bits - 1) {
              int v = __builtin_ctz(bits);
              if (root[v] == r) members |= 1u << v;
            }
            rest &= ~members;
            if (__builtin_popcount(members) < 2) continue;
            start_pick();
            bool ok = true;
            for (uint32_t bits = members; bits != 0 && ok; bits &= bits - 1) {
              int v = __builtin_ctz(bits);
              ok = pick(mask, conn_edge_of[v], v, slot);
            }
            if (!ok) continue;
            // The merge guarantees the pairwise equalities within the
            // group on the key; mark those conjuncts covered. An offset
            // equality (a2.city = a4.city + 1) is not implied and stays
            // residual.
            for (int c = 0; c < num_conjuncts; ++c) {
              const QueryComparison& cmp = conjuncts[c];
              if (!IsVertexPropEquality(cmp) || cmp.lhs.key != keys[k]) continue;
              if (((members >> cmp.lhs.var) & 1) && ((members >> cmp.rhs_ref.var) & 1)) {
                covered.push_back(c);
              }
            }
            uint32_t now = mask | members;
            double icost = base.icost + base.card * sum_len;
            const PropertyMeta& meta = graph_->catalog().property(keys[k]);
            double domain = meta.type == ValueType::kCategory
                                ? static_cast<double>(meta.domain_size)
                                : 1000.0;
            double est_out =
                base.card * prod_len /
                std::pow(domain, static_cast<double>(__builtin_popcount(members) - 1));
            collect_residual(mask, now);
            est_out *= residual_selectivity();
            try_update(mask, now, icost, std::max(est_out, 1e-9), PlanStep::Kind::kMultiExtend,
                       -1, -1);
          }
        }
      }
      // Next mask with the same popcount (Gosper's hack).
      uint32_t low = mask & -mask;
      uint32_t ripple = mask + low;
      mask = (((ripple ^ mask) >> 2) / low) | ripple;
    }
  }

  const DpEntry& winner = table[full];
  if (winner.step < 0) return nullptr;
  last_cost_ = winner.icost;
  // Rebuild the winning step chain from the parent links.
  int chain[kMaxQueryVertices] = {};
  int chain_len = 0;
  for (uint32_t mask = full; mask != 0; mask = table[mask].parent) {
    chain[chain_len++] = table[mask].step;
  }
  last_steps_.clear();
  last_steps_.reserve(chain_len);
  for (int i = chain_len - 1; i >= 0; --i) {
    const StepRecord& record = records[chain[i]];
    PlanStep step;
    step.kind = record.kind;
    step.scan_var = record.scan_var;
    step.target_var = record.target_var;
    for (uint32_t j = record.lists_begin; j < record.lists_end; ++j) {
      step.lists.push_back(cands[step_lists[j]].desc);
    }
    for (uint32_t j = record.residual_begin; j < record.residual_end; ++j) {
      step.residual.push_back(conjuncts[step_residual[j]]);
    }
    last_steps_.push_back(std::move(step));
  }

  PlanBuilder builder(graph_, &query);
  for (const PlanStep& step : last_steps_) {
    switch (step.kind) {
      case PlanStep::Kind::kScan:
        builder.Scan(step.scan_var, step.residual);
        break;
      case PlanStep::Kind::kExtend:
        builder.Extend(step.lists.front(), step.residual);
        break;
      case PlanStep::Kind::kExtendVerify: {
        // Residuals run on the last probe, when every edge is bound.
        builder.Extend(step.lists.front(), {});
        for (size_t i = 1; i < step.lists.size(); ++i) {
          bool last = i + 1 == step.lists.size();
          builder.Extend(step.lists[i], last ? step.residual : std::vector<QueryComparison>{},
                         /*closing=*/true);
        }
        if (step.lists.size() == 1) builder.Filter(step.residual);
        break;
      }
      case PlanStep::Kind::kExtendIntersect:
        builder.ExtendIntersect(step.lists, step.target_var, step.residual);
        break;
      case PlanStep::Kind::kMultiExtend:
        builder.MultiExtend(step.lists, step.residual);
        break;
    }
  }
  return sink != nullptr ? builder.BuildWithSink(std::move(sink)) : builder.Build();
}

std::string DpOptimizer::DescribeSteps(const QueryGraph& query) const {
  std::string out;
  const Catalog& catalog = graph_->catalog();
  for (const PlanStep& step : last_steps_) {
    switch (step.kind) {
      case PlanStep::Kind::kScan:
        out += "Scan " + query.vertex(step.scan_var).name;
        break;
      case PlanStep::Kind::kExtend:
        out += "Extend " + step.lists.front().Describe(catalog, query);
        break;
      case PlanStep::Kind::kExtendVerify:
        out += "Extend+Verify -> " + query.vertex(step.target_var).name + " [";
        for (size_t i = 0; i < step.lists.size(); ++i) {
          if (i > 0) out += " ? ";
          out += step.lists[i].Describe(catalog, query);
        }
        out += "]";
        break;
      case PlanStep::Kind::kExtendIntersect:
        out += "Extend/Intersect -> " + query.vertex(step.target_var).name + " [";
        for (size_t i = 0; i < step.lists.size(); ++i) {
          if (i > 0) out += " n ";
          out += step.lists[i].Describe(catalog, query);
        }
        out += "]";
        break;
      case PlanStep::Kind::kMultiExtend:
        out += "Multi-Extend [";
        for (size_t i = 0; i < step.lists.size(); ++i) {
          if (i > 0) out += " n ";
          out += step.lists[i].Describe(catalog, query);
        }
        out += "]";
        break;
    }
    if (!step.residual.empty()) {
      out += " +" + std::to_string(step.residual.size()) + " residual";
    }
    out += "\n";
  }
  return out;
}

}  // namespace aplus
