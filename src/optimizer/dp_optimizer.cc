#include "optimizer/dp_optimizer.h"

#include <algorithm>
#include <cmath>

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
  StepOutline::Kind kind = StepOutline::Kind::kScan;
  int scan_var = -1;
  int target_var = -1;
  uint32_t lists_begin = 0;
  uint32_t lists_end = 0;
  uint32_t residual_begin = 0;
  uint32_t residual_end = 0;
};

// A query edge at a vertex, with the edge's other end.
struct IncidentEdge {
  int edge = -1;
  int other = -1;
};

// One WHERE conjunct translated for extending along one query edge to
// one target, valid in the EP group of bound edge `bound_edge` only.
struct BoundTerm {
  int conjunct = -1;
  int bound_edge = -1;
  Comparison cmp;
};

// The combined selectivity of the conjuncts `ids`. Vertex-ID ranges
// against constants on one variable intersect as a window [lo, hi) of
// selectivity (hi - lo) / |V|; every other conjunct multiplies its
// precomputed selectivity, in order. The windows multiply last, the
// variable that appears first multiplied last.
double CombinedSelectivity(const Graph& graph, const std::vector<QueryComparison>& conjuncts,
                           const std::vector<ConjunctInfo>& info, const std::vector<int>& ids) {
  double selectivity = 1.0;
  for (int c : ids) {
    if (!info[c].id_range) selectivity *= info[c].selectivity;
  }
  const double nv = std::max<double>(1.0, static_cast<double>(graph.num_vertices()));
  auto in_window = [&](size_t j, int var) {
    return info[ids[j]].id_range && conjuncts[ids[j]].lhs.var == var;
  };
  for (size_t i = ids.size(); i-- > 0;) {
    if (!info[ids[i]].id_range) continue;
    const int var = conjuncts[ids[i]].lhs.var;
    bool seen_before = false;
    for (size_t j = 0; j < i && !seen_before; ++j) seen_before = in_window(j, var);
    if (seen_before) continue;
    double lo = 0.0;
    double hi = nv;
    for (size_t j = i; j < ids.size(); ++j) {
      if (!in_window(j, var)) continue;
      const QueryComparison& cmp = conjuncts[ids[j]];
      double bound = static_cast<double>(cmp.rhs_const.AsInt64());
      switch (cmp.op) {
        case CmpOp::kLt:
          hi = std::min(hi, bound);
          break;
        case CmpOp::kLe:
          hi = std::min(hi, bound + 1.0);
          break;
        case CmpOp::kGt:
          lo = std::max(lo, bound + 1.0);
          break;
        case CmpOp::kGe:
          lo = std::max(lo, bound);
          break;
        default:
          break;
      }
    }
    double width = std::max(0.0, hi - lo);
    selectivity *= std::min(1.0, std::max(width / nv, 1.0 / nv));
  }
  return selectivity;
}

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

// The per-call working state of Optimize. Every vector keeps its
// capacity across calls, so a warm optimizer plans without growing them.
struct DpOptimizer::Scratch {
  std::vector<ConjunctInfo> info;
  // Per query vertex v (the first n entries are live; the inner vectors
  // keep their capacity across calls):
  //   by_vertex[v]  ascending ids of the conjuncts whose mask holds v. An
  //                 E/I step binding v applies exactly those whose whole
  //                 mask is then bound.
  //   incident[v]   the edges at v, ascending, each with its other end (v
  //                 itself for a self-loop).
  //   adjacent[v]   the vertices an edge joins to v (never v itself).
  std::vector<std::vector<int>> by_vertex;
  std::vector<std::vector<IncidentEdge>> incident;
  std::vector<uint32_t> adjacent;
  // $param conjuncts, ascending: the only ones that may fold into
  // bind-time range bounds.
  std::vector<int> param_conjuncts;
  std::vector<DpEntry> table;
  // Access-path sort requirements, by slot: none, neighbour ID (E/I
  // intersections), then one per MULTI-EXTEND key.
  std::vector<SortCriterion> sorts;
  // MULTI-EXTEND keys, and per key the union-find components of every
  // query vertex: comp[k * n + v] is v's component under keys[k].
  std::vector<prop_key_t> keys;
  std::vector<int> comp;
  // Step arena: the DP table stores only costs and parent links; each
  // improving transition appends one record whose lists and residual
  // conjuncts are ranges of `step_lists` / `step_residual`.
  std::vector<StepRecord> records;
  std::vector<int> step_lists;     // indices into `pool`
  std::vector<int> step_residual;  // conjunct ids
  // The transition under evaluation.
  std::vector<int> picked;    // chosen access path per extended edge
  // covered_mark[c] == covered_epoch when the chosen lists guarantee
  // conjunct c; each transition takes a fresh epoch.
  std::vector<uint32_t> covered_mark;
  uint32_t covered_epoch = 0;
  std::vector<int> residual;  // conjunct ids left to filter
  std::vector<int> conn;      // query edges from the bound set to a target
  // The WHERE conjuncts in view-site form, translated once per (edge,
  // target) pair p = 2 * edge + (target is the edge's head), when the pair
  // is first matched (pair_done[p]). pair_ext[p] holds the terms that
  // need no bound edge: the vertex-bound group's extension predicate.
  // `bound_terms[bound_begin[p]..bound_end[p])` holds, in conjunct order,
  // the ones that need one bound edge; an EP group's extension predicate
  // (`ext`) merges in those of its own bound edge.
  std::vector<uint8_t> pair_done;
  std::vector<ExtensionPredicate> pair_ext;
  std::vector<BoundTerm> bound_terms;
  std::vector<int> bound_begin;
  std::vector<int> bound_end;
  ExtensionPredicate ext;
  // Candidate memo. The cheapest access path for extending along query
  // edge `qe_id` to `target` depends on the bound set only through which
  // EP bound edge `eb_id` it pairs with (-1: vertex-bound lists), so each
  // (qe_id, target, eb_id) group is matched against the INDEX STORE once
  // per call. `group_of` maps a group to its offset in `best`, which
  // holds one `pool` index per sort slot (or kNoCandidate).
  CandidateScratch pool;
  std::vector<int> group_of;
  std::vector<int> best;
  // The winning plan's step records, scan first.
  std::vector<int> chain;
};

DpOptimizer::DpOptimizer(const Graph* graph, const IndexStore* store)
    : graph_(graph),
      store_(store),
      stats_(GraphStats::Compute(*graph)),
      scratch_(std::make_unique<Scratch>()) {}

DpOptimizer::~DpOptimizer() = default;

std::unique_ptr<Plan> DpOptimizer::Optimize(const QueryGraph& query,
                                            std::unique_ptr<Operator> sink) {
  const int n = query.num_vertices();
  const int num_edges = query.num_edges();
  APLUS_CHECK_GT(n, 0);
  APLUS_CHECK_LE(n, kMaxQueryVertices) << "query too large for the subset DP";
  APLUS_CHECK_LE(num_edges, kMaxQueryEdges) << "query too large for the subset DP";
  Scratch& s = *scratch_;
  s.chain.clear();
  last_outline_.clear();
  last_match_lookups_ = 0;
  IndexMatcher matcher(store_, &stats_);
  const auto& conjuncts = query.predicates();
  const int num_conjuncts = static_cast<int>(conjuncts.size());
  std::vector<ConjunctInfo>& info = s.info;
  info.clear();
  for (const QueryComparison& cmp : conjuncts) {
    ConjunctInfo ci;
    ci.mask = ConjunctVertexMask(query, cmp);
    ci.id_range = IsVertexIdRange(cmp);
    if (!ci.id_range) ci.selectivity = EstimateSelectivity(*graph_, cmp);
    info.push_back(ci);
  }
  // Conjuncts by needed vertex, edges by endpoint, and the $param
  // conjuncts.
  if (s.by_vertex.size() < static_cast<size_t>(n)) {
    s.by_vertex.resize(n);
    s.incident.resize(n);
  }
  s.adjacent.assign(n, 0);
  for (int v = 0; v < n; ++v) {
    s.by_vertex[v].clear();
    s.incident[v].clear();
  }
  s.param_conjuncts.clear();
  for (int c = 0; c < num_conjuncts; ++c) {
    for (uint32_t bits = info[c].mask; bits != 0; bits &= bits - 1) {
      s.by_vertex[__builtin_ctz(bits)].push_back(c);
    }
    if (conjuncts[c].rhs_param >= 0) s.param_conjuncts.push_back(c);
  }
  for (int e = 0; e < num_edges; ++e) {
    const QueryEdge& qe = query.edge(e);
    s.incident[qe.from].push_back(IncidentEdge{e, qe.to});
    if (qe.to == qe.from) continue;
    s.incident[qe.to].push_back(IncidentEdge{e, qe.from});
    s.adjacent[qe.from] |= 1u << qe.to;
    s.adjacent[qe.to] |= 1u << qe.from;
  }
  const uint32_t full = (1u << n) - 1;
  std::vector<DpEntry>& table = s.table;
  table.assign(static_cast<size_t>(full) + 1, DpEntry());

  constexpr int kNoSort = 0;
  constexpr int kNbrIdSort = 1;
  std::vector<SortCriterion>& sorts = s.sorts;
  sorts.assign(2, SortCriterion{});
  sorts[kNbrIdSort] = SortCriterion{SortSource::kNbrId, kInvalidPropKey};

  // MULTI-EXTEND keys: vertex properties related by an equality between
  // two query vertices, ascending. Per key, the union-find over ALL query
  // vertices is computed once: chained equalities (a1.city = a2.city =
  // a3.city, MF2) transitively connect eligible members even when the
  // middle vertex is already bound.
  std::vector<prop_key_t>& keys = s.keys;
  keys.clear();
  for (const QueryComparison& cmp : conjuncts) {
    if (IsVertexPropEquality(cmp)) keys.push_back(cmp.lhs.key);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<int>& comp = s.comp;
  comp.assign(keys.size() * n, 0);
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
  const int num_slots = static_cast<int>(sorts.size());

  std::vector<StepRecord>& records = s.records;
  std::vector<int>& step_lists = s.step_lists;
  std::vector<int>& step_residual = s.step_residual;
  std::vector<int>& picked = s.picked;
  std::vector<uint32_t>& covered_mark = s.covered_mark;
  std::vector<int>& residual = s.residual;
  std::vector<int>& conn = s.conn;
  records.clear();
  step_lists.clear();
  step_residual.clear();
  covered_mark.assign(num_conjuncts, 0);
  s.covered_epoch = 0;
  auto covered = [&](int c) { return covered_mark[c] == s.covered_epoch; };

  // Conjuncts that become evaluable when moving prev -> now (prev != now),
  // excluding covered ones: a conjunct is applied exactly once, at the
  // first state where it became evaluable. Because we always extend by
  // consuming all connecting edges, "first evaluable" is deterministic
  // per mask.
  auto collect_residual = [&](uint32_t prev, uint32_t now) {
    residual.clear();
    for (int c = 0; c < num_conjuncts; ++c) {
      uint32_t need = info[c].mask;
      if ((need & now) != need) continue;                  // not yet evaluable
      if (prev != 0 && (need & ~prev) == 0) continue;     // already applied earlier
      if (!covered(c)) residual.push_back(c);
    }
  };
  // The same for an E/I step binding `target`: exactly the conjuncts that
  // need target and nothing unbound in `now`.
  auto collect_target_residual = [&](uint32_t now, int target) {
    residual.clear();
    for (int c : s.by_vertex[target]) {
      if ((info[c].mask & ~now) == 0 && !covered(c)) residual.push_back(c);
    }
  };
  auto residual_selectivity = [&]() {
    return CombinedSelectivity(*graph_, conjuncts, info, residual);
  };
  // Keeps the transition mask -> now if it beats table[now]: lower
  // i-cost, then lower cardinality; the first of equals wins.
  auto try_update = [&](uint32_t mask, uint32_t now, double icost, double card,
                        StepOutline::Kind kind, int scan_var, int target_var) {
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
  ++s.covered_epoch;
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
    try_update(0, mask, icost, card, StepOutline::Kind::kScan, v, -1);
  }

  // Translates the conjuncts for extending along query edge `qe_id`
  // towards vertex `target` into pair `pair`'s terms: those whose every
  // reference maps to the adjacent edge, the neighbour or one other
  // (bound) edge.
  const size_t num_pairs = static_cast<size_t>(num_edges) * 2;
  s.pair_done.assign(num_pairs, 0);
  if (s.pair_ext.size() < num_pairs) s.pair_ext.resize(num_pairs);
  s.bound_begin.resize(num_pairs);
  s.bound_end.resize(num_pairs);
  std::vector<BoundTerm>& bound_terms = s.bound_terms;
  bound_terms.clear();
  auto translate_pair = [&](int pair, int qe_id, int target) {
    ExtensionPredicate& base = s.pair_ext[pair];
    base.pred.Clear();
    base.query_conjunct_ids.clear();
    s.bound_begin[pair] = static_cast<int>(bound_terms.size());
    for (int c = 0; c < num_conjuncts; ++c) {
      const QueryComparison& cmp = conjuncts[c];
      // A $param conjunct has no constant until bind time: it can never
      // certify subsumption by a predicate-filtered index (a null
      // rhs_const would compare as +infinity and wrongly imply upper
      // bounds), so it stays a residual.
      if (cmp.rhs_param >= 0) continue;
      int bound_edge = -1;
      auto translate = [&](const QueryPropRef& ref, PropRef* out) -> bool {
        if (ref.var < 0) return false;
        if (!ref.is_edge) {
          if (ref.var != target) return false;
          out->site = PropSite::kNbrVertex;
        } else if (ref.var == qe_id) {
          out->site = PropSite::kAdjEdge;
        } else {
          if (bound_edge >= 0 && bound_edge != ref.var) return false;
          bound_edge = ref.var;
          out->site = PropSite::kBoundEdge;
        }
        out->key = ref.key;
        out->is_id = ref.is_id;
        out->is_label = false;
        return true;
      };
      PropRef lhs;
      PropRef rhs_ref;
      if (!translate(cmp.lhs, &lhs)) continue;
      if (!cmp.rhs_is_const && !translate(cmp.rhs_ref, &rhs_ref)) continue;
      Comparison translated{lhs, cmp.op, cmp.rhs_is_const, cmp.rhs_const, rhs_ref, cmp.rhs_addend};
      if (bound_edge < 0) {
        base.pred.Add(std::move(translated));
        base.query_conjunct_ids.push_back(c);
      } else {
        bound_terms.push_back(BoundTerm{c, bound_edge, std::move(translated)});
      }
    }
    s.bound_end[pair] = static_cast<int>(bound_terms.size());
    s.pair_done[pair] = 1;
  };
  // The ExtensionPredicate of group (qe_id, target, eb_id): the pair's
  // terms that need no bound edge, merged in conjunct order with those
  // that need eb_id (-1: the vertex-bound group, which needs none).
  auto group_ext = [&](int qe_id, int target, int eb_id) -> const ExtensionPredicate& {
    const int pair = qe_id * 2 + (query.edge(qe_id).to == target);
    if (!s.pair_done[pair]) translate_pair(pair, qe_id, target);
    const ExtensionPredicate& base = s.pair_ext[pair];
    if (eb_id < 0) return base;
    ExtensionPredicate& ext = s.ext;
    ext.pred.Clear();
    ext.query_conjunct_ids.clear();
    const std::vector<Comparison>& base_terms = base.pred.conjuncts();
    size_t next = 0;
    auto take_base_before = [&](int conjunct) {
      for (; next < base_terms.size() && base.query_conjunct_ids[next] < conjunct; ++next) {
        ext.pred.Add(base_terms[next]);
        ext.query_conjunct_ids.push_back(base.query_conjunct_ids[next]);
      }
    };
    for (int i = s.bound_begin[pair]; i < s.bound_end[pair]; ++i) {
      const BoundTerm& term = bound_terms[i];
      if (term.bound_edge != eb_id) continue;
      take_base_before(term.conjunct);
      ext.pred.Add(term.cmp);
      ext.query_conjunct_ids.push_back(term.conjunct);
    }
    take_base_before(num_conjuncts);
    return ext;
  };

  // A $param range conjunct (<, <=, >, >=, =) on the first sort key of a
  // list whose targets are set: the conjuncts fold_param_range_bounds
  // may turn into bounds.
  auto param_range_on_sort_key = [&](const QueryComparison& cmp, const CandidateList& c,
                                     const SortCriterion& sort) {
    if (cmp.rhs_param < 0 || !cmp.rhs_is_const) return false;
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
    switch (sort.source) {
      case SortSource::kEdgeProp:
        return cmp.lhs.is_edge && cmp.lhs.var == c.desc.target_edge_var && !cmp.lhs.is_id &&
               cmp.lhs.key == sort.key;
      case SortSource::kNbrProp:
        return !cmp.lhs.is_edge && cmp.lhs.var == c.desc.target_vertex_var && !cmp.lhs.is_id &&
               cmp.lhs.key == sort.key;
      case SortSource::kNbrId:
        return !cmp.lhs.is_edge && cmp.lhs.var == c.desc.target_vertex_var && cmp.lhs.is_id;
      default:
        return false;
    }
  };
  // True when a literal or $param range conjunct bounds the candidate
  // under no sort requirement.
  auto has_range_bound = [&](const ExtensionPredicate& ext, const CandidateList& c) {
    if (!c.allow_range_bounds) return false;
    if (IndexMatcher::HasSortKeyBound(ext, c)) return true;
    const std::vector<SortCriterion>& list_sorts = c.desc.sorts();
    if (list_sorts.empty()) return false;
    for (int qc : s.param_conjuncts) {
      if (param_range_on_sort_key(conjuncts[qc], c, list_sorts.front())) return true;
    }
    return false;
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
    if (!c->allow_range_bounds) return;
    const std::vector<SortCriterion>& list_sorts = c->desc.sorts();
    if (list_sorts.empty()) return;
    const SortCriterion& sort = list_sorts.front();
    for (int qc : s.param_conjuncts) {
      const QueryComparison& cmp = conjuncts[qc];
      if (!param_range_on_sort_key(cmp, *c, sort)) continue;
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
        c->covered_conjuncts.push_back(qc);
        c->est_len *= 0.3;  // rough range selectivity, as for literal bounds
        c->est_out *= 0.3;
      }
    }
  };

  // Matches group (qe_id, target, eb_id) on its first use: one lookup
  // returns every usable list, and each sort slot keeps its first strict
  // minimum of est_len among the lists that serve it. A list sorted on
  // its first key also serves the no-sort slot with its range conjuncts
  // turned into bounds; when a sorted slot took the unbounded list, the
  // bounded one is a second pool entry. Returns the group's offset in
  // `best`.
  constexpr int kUnmatched = -2;
  constexpr int kNoCandidate = -1;
  CandidateScratch& pool = s.pool;
  std::vector<int>& best = s.best;
  pool.Clear();
  best.clear();
  s.group_of.assign(static_cast<size_t>(num_edges) * 2 * (num_edges + 1), kUnmatched);
  auto match_group = [&](int qe_id, int target, int eb_id) -> int {
    const QueryEdge& qe = query.edge(qe_id);
    int& group = s.group_of[(static_cast<size_t>(qe_id) * 2 + (qe.to == target)) *
                                (num_edges + 1) +
                            (eb_id + 1)];
    if (group != kUnmatched) return group;
    group = static_cast<int>(best.size());
    best.resize(best.size() + num_slots, kNoCandidate);
    int* slot_best = &best[group];
    const int pivot = qe.from == target ? qe.to : qe.from;
    const Direction dir = qe.from == pivot ? Direction::kFwd : Direction::kBwd;
    const label_t nbr_label = query.vertex(target).label;
    const size_t first = pool.size();
    ++last_match_lookups_;
    // The group's extension predicate; built only when some index can
    // serve the group (the candidates below read it).
    const ExtensionPredicate* ext = nullptr;
    if (eb_id < 0) {
      ext = &group_ext(qe_id, target, eb_id);
      matcher.FindVertexLists(dir, qe.label, nbr_label, *ext, &pool);
    } else {
      const QueryEdge& eb = query.edge(eb_id);
      EpKind kind;
      if (eb.to == pivot) {
        kind = dir == Direction::kFwd ? EpKind::kDstFwd : EpKind::kDstBwd;
      } else {
        kind = dir == Direction::kFwd ? EpKind::kSrcBwd : EpKind::kSrcFwd;
      }
      const auto& eps = store_->ep_indexes();
      if (std::any_of(eps.begin(), eps.end(),
                      [kind](const auto& ep) { return ep->kind() == kind; })) {
        ext = &group_ext(qe_id, target, eb_id);
        matcher.FindEdgeLists(kind, qe.label, nbr_label, *ext, &pool);
      }
    }
    const size_t end = pool.size();
    const vertex_id_t target_bound = query.vertex(target).bound;
    // A pinned target passes at most one entry of any list.
    auto clamp_to_pin = [&](CandidateList* c) {
      if (target_bound != kInvalidVertex) c->est_out = std::min(c->est_out, 1.0);
    };
    auto keep_if_cheaper = [&](int slot, size_t i) {
      if (slot_best[slot] == kNoCandidate || pool[i].est_len < pool[slot_best[slot]].est_len) {
        slot_best[slot] = static_cast<int>(i);
        return true;
      }
      return false;
    };
    for (size_t i = first; i < end; ++i) {
      ListDescriptor& desc = pool[i].desc;
      desc.bound_var = eb_id < 0 ? pivot : eb_id;
      desc.target_vertex_var = target;
      desc.target_edge_var = qe_id;
      desc.target_bound = target_bound;
      bool taken = false;
      for (int slot = kNoSort + 1; slot < num_slots; ++slot) {
        if (IndexMatcher::ServesSort(pool[i], &sorts[slot])) taken |= keep_if_cheaper(slot, i);
      }
      if (!has_range_bound(*ext, pool[i])) {
        clamp_to_pin(&pool[i]);
        keep_if_cheaper(kNoSort, i);
        continue;
      }
      // The no-sort slot takes the list with its range conjuncts as
      // bounds: in place, unless a sorted slot took the unbounded list.
      size_t bounded = i;
      if (taken) {
        bounded = pool.size();
        pool.AddAccessPathOf(i);
      }
      IndexMatcher::ApplySortKeyBounds(*ext, &pool[bounded]);
      clamp_to_pin(&pool[bounded]);
      if (bounded != i) clamp_to_pin(&pool[i]);
      fold_param_range_bounds(&pool[bounded]);
      keep_if_cheaper(kNoSort, bounded);
    }
    return group;
  };
  // The cheapest access path for extending along `qe_id` from bound set
  // `mask` to `target` under sort slot `sort`: vertex-bound lists first,
  // then the EP lists of every bound query edge incident to the pivot by
  // ascending id; the first strict minimum of est_len wins. kNoCandidate
  // when none exists.
  auto best_candidate = [&](uint32_t mask, int qe_id, int target, int sort) -> int {
    const QueryEdge& qe = query.edge(qe_id);
    const int pivot = qe.from == target ? qe.to : qe.from;
    int winner = best[match_group(qe_id, target, -1) + sort];
    // The pivot is bound, so an edge at it is bound when its other end is.
    for (const IncidentEdge& at_pivot : s.incident[pivot]) {
      const int eb_id = at_pivot.edge;
      if (eb_id == qe_id || !((mask >> at_pivot.other) & 1)) continue;
      int c = best[match_group(qe_id, target, eb_id) + sort];
      if (c != kNoCandidate &&
          (winner == kNoCandidate || pool[c].est_len < pool[winner].est_len)) {
        winner = c;
      }
    }
    return winner;
  };
  // Picks one access path per (edge, target) pair into `picked`,
  // accumulating covered conjuncts, the summed list length (i-cost) and
  // the product of the lists' output estimates. False if some edge has
  // no access path under `sort`.
  double sum_len = 0.0;
  double prod_len = 1.0;
  auto start_pick = [&] {
    picked.clear();
    ++s.covered_epoch;
    sum_len = 0.0;
    prod_len = 1.0;
  };
  auto pick = [&](uint32_t mask, int qe_id, int target, int sort) {
    int c = best_candidate(mask, qe_id, target, sort);
    if (c == kNoCandidate) return false;
    const CandidateList& chosen = pool[c];
    picked.push_back(c);
    for (int covered_id : chosen.covered_conjuncts) covered_mark[covered_id] = s.covered_epoch;
    sum_len += chosen.est_len;
    prod_len *= std::max(chosen.est_out, 1e-9);
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
        // MULTI-EXTEND members found on the way: unbound vertices with
        // exactly one edge into `mask`.
        uint32_t eligible = 0;
        int conn_edge_of[kMaxQueryVertices] = {};
        // --- E/I extensions by one vertex: only to the unbound
        // neighbours of `mask`, the transitions that can connect. ---
        uint32_t frontier = 0;
        for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
          frontier |= s.adjacent[__builtin_ctz(bits)];
        }
        for (uint32_t targets = frontier & ~mask; targets != 0; targets &= targets - 1) {
          const int target = __builtin_ctz(targets);
          conn.clear();
          for (const IncidentEdge& at_target : s.incident[target]) {
            const int other = at_target.other;
            if (other != target && ((mask >> other) & 1)) conn.push_back(at_target.edge);
          }
          if (conn.size() == 1) {
            eligible |= 1u << target;
            conn_edge_of[target] = conn[0];
          }
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
          collect_target_residual(now, target);
          est_out *= residual_selectivity();
          StepOutline::Kind kind = conn.size() == 1
                                       ? StepOutline::Kind::kExtend
                                       : (verify_fallback ? StepOutline::Kind::kExtendVerify
                                                          : StepOutline::Kind::kExtendIntersect);
          try_update(mask, now, icost, std::max(est_out, 1e-9), kind, -1, target);
        }

        // --- MULTI-EXTEND extensions by a group of vertices related by
        // a shared-property equality (Section IV-A). ---
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
                covered_mark[c] = s.covered_epoch;
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
            try_update(mask, now, icost, std::max(est_out, 1e-9), StepOutline::Kind::kMultiExtend,
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
  last_match_groups_ = static_cast<int>(best.size()) / num_slots;
  if (winner.step < 0) return nullptr;
  last_cost_ = winner.icost;
  // The winning step chain from the parent links, scan first; each
  // chosen descriptor is copied once, into its operator.
  for (uint32_t mask = full; mask != 0; mask = table[mask].parent) {
    s.chain.push_back(table[mask].step);
  }
  std::reverse(s.chain.begin(), s.chain.end());
  PlanBuilder builder(graph_, &query);
  for (int step : s.chain) {
    const StepRecord& record = records[step];
    const uint32_t num_lists = record.lists_end - record.lists_begin;
    std::vector<QueryComparison> step_residuals;
    step_residuals.reserve(record.residual_end - record.residual_begin);
    for (uint32_t j = record.residual_begin; j < record.residual_end; ++j) {
      step_residuals.push_back(conjuncts[step_residual[j]]);
    }
    last_outline_.push_back(StepOutline{record.kind, record.scan_var, num_lists,
                                        static_cast<uint32_t>(step_residuals.size())});
    auto list = [&](uint32_t j) -> const ListDescriptor& {
      return pool[step_lists[record.lists_begin + j]].desc;
    };
    auto list_vector = [&] {
      std::vector<ListDescriptor> lists;
      lists.reserve(num_lists);
      for (uint32_t j = 0; j < num_lists; ++j) lists.push_back(list(j));
      return lists;
    };
    switch (record.kind) {
      case StepOutline::Kind::kScan:
        builder.Scan(record.scan_var, std::move(step_residuals));
        break;
      case StepOutline::Kind::kExtend:
        builder.Extend(list(0), std::move(step_residuals));
        break;
      case StepOutline::Kind::kExtendVerify:
        // Residuals run on the last probe, when every edge is bound.
        builder.Extend(list(0), {});
        for (uint32_t j = 1; j < num_lists; ++j) {
          bool last = j + 1 == num_lists;
          builder.Extend(list(j),
                         last ? std::move(step_residuals) : std::vector<QueryComparison>{},
                         /*closing=*/true);
        }
        break;
      case StepOutline::Kind::kExtendIntersect:
        builder.ExtendIntersect(list_vector(), record.target_var, std::move(step_residuals));
        break;
      case StepOutline::Kind::kMultiExtend:
        builder.MultiExtend(list_vector(), std::move(step_residuals));
        break;
    }
  }
  return sink != nullptr ? builder.BuildWithSink(std::move(sink)) : builder.Build();
}

}  // namespace aplus
