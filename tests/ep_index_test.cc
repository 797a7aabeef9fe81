#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "datagen/example_graph.h"
#include "datagen/financial_props.h"
#include "datagen/label_assigner.h"
#include "datagen/power_law_generator.h"
#include "index/ep_index.h"

namespace aplus {
namespace {

std::set<edge_id_t> SliceEdges(const AdjListSlice& slice) {
  std::set<edge_id_t> edges;
  for (uint32_t i = 0; i < slice.size(); ++i) edges.insert(slice.EdgeAt(i));
  return edges;
}

class EpIndexTest : public ::testing::Test {
 protected:
  EpIndexTest()
      : ex_(BuildExampleGraph()),
        fwd_(&ex_.graph, Direction::kFwd),
        bwd_(&ex_.graph, Direction::kBwd) {
    fwd_.Build(IndexConfig::Default());
    bwd_.Build(IndexConfig::Default());
  }

  // The MoneyFlow view of Example 7: Destination-FW with
  // eb.date < eadj.date and eb.amt > eadj.amt.
  TwoHopViewDef MoneyFlowView() const {
    TwoHopViewDef view;
    view.name = "MoneyFlow";
    view.kind = EpKind::kDstFwd;
    view.pred.AddRef(PropRef{PropSite::kBoundEdge, ex_.date_key, false, false}, CmpOp::kLt,
                     PropRef{PropSite::kAdjEdge, ex_.date_key, false, false});
    view.pred.AddRef(PropRef{PropSite::kBoundEdge, ex_.amount_key, false, false}, CmpOp::kGt,
                     PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false});
    return view;
  }

  edge_id_t T(int i) const { return ex_.transfers[i - 1]; }

  ExampleGraph ex_;
  PrimaryIndex fwd_;
  PrimaryIndex bwd_;
};

TEST_F(EpIndexTest, RequiresCrossEdgePredicate) {
  TwoHopViewDef bad;
  bad.name = "redundant";
  bad.kind = EpKind::kDstFwd;
  bad.pred.AddConst(PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false}, CmpOp::kLt,
                    Value::Int64(10000));
  EXPECT_DEATH(EpIndex(&ex_.graph, &fwd_, &bwd_, bad, IndexConfig::Default()), "both edges");
}

TEST_F(EpIndexTest, MoneyFlowListOfT13IsT19) {
  // Example 7's headline behaviour.
  EpIndex ep(&ex_.graph, &fwd_, &bwd_, MoneyFlowView(), IndexConfig::Default());
  ep.Build();
  EXPECT_EQ(SliceEdges(ep.GetFullList(T(13))), std::set<edge_id_t>{T(19)});
}

TEST_F(EpIndexTest, T17InListsOfT1AndT16) {
  EpIndex ep(&ex_.graph, &fwd_, &bwd_, MoneyFlowView(), IndexConfig::Default());
  ep.Build();
  EXPECT_TRUE(SliceEdges(ep.GetFullList(T(1))).count(T(17)) > 0);
  EXPECT_TRUE(SliceEdges(ep.GetFullList(T(16))).count(T(17)) > 0);
}

TEST_F(EpIndexTest, MatchesReferenceComputation) {
  EpIndex ep(&ex_.graph, &fwd_, &bwd_, MoneyFlowView(), IndexConfig::Default());
  ep.Build();
  const PropertyColumn* date = ex_.graph.edge_props().column(ex_.date_key);
  const PropertyColumn* amount = ex_.graph.edge_props().column(ex_.amount_key);
  uint64_t total = 0;
  for (edge_id_t eb = 0; eb < ex_.graph.num_edges(); ++eb) {
    std::set<edge_id_t> expected;
    vertex_id_t anchor = ex_.graph.edge_dst(eb);
    for (edge_id_t e = 0; e < ex_.graph.num_edges(); ++e) {
      if (e == eb || ex_.graph.edge_src(e) != anchor) continue;
      if (date->IsNull(eb) || date->IsNull(e) || amount->IsNull(eb) || amount->IsNull(e)) {
        continue;
      }
      if (date->GetInt64(eb) < date->GetInt64(e) &&
          amount->GetInt64(eb) > amount->GetInt64(e)) {
        expected.insert(e);
      }
    }
    EXPECT_EQ(SliceEdges(ep.GetFullList(eb)), expected) << "eb=" << eb;
    total += expected.size();
  }
  EXPECT_EQ(ep.num_edges_indexed(), total);
}

TEST_F(EpIndexTest, PartitionedByAdjEdgeLabel) {
  EpIndex ep(&ex_.graph, &fwd_, &bwd_, MoneyFlowView(), IndexConfig::Default());
  ep.Build();
  // t16's list partitioned by label: {t17, t20} are Wire, {t18} is DD.
  std::set<edge_id_t> wires = SliceEdges(ep.GetList(T(16), {ex_.wire_label}));
  std::set<edge_id_t> dds = SliceEdges(ep.GetList(T(16), {ex_.dd_label}));
  for (edge_id_t e : wires) EXPECT_EQ(ex_.graph.edge_label(e), ex_.wire_label);
  for (edge_id_t e : dds) EXPECT_EQ(ex_.graph.edge_label(e), ex_.dd_label);
  std::set<edge_id_t> both;
  both.insert(wires.begin(), wires.end());
  both.insert(dds.begin(), dds.end());
  EXPECT_EQ(both, SliceEdges(ep.GetFullList(T(16))));
}

TEST_F(EpIndexTest, SortOnNeighbourCity) {
  IndexConfig config = IndexConfig::Default();
  config.sorts.clear();
  config.sorts.push_back({SortSource::kNbrProp, ex_.city_key});
  EpIndex ep(&ex_.graph, &fwd_, &bwd_, MoneyFlowView(), config);
  ep.Build();
  const PropertyColumn* city = ex_.graph.vertex_props().column(ex_.city_key);
  for (edge_id_t eb = 0; eb < ex_.graph.num_edges(); ++eb) {
    for (label_t label = 0; label < ex_.graph.catalog().num_edge_labels(); ++label) {
      AdjListSlice slice = ep.GetList(eb, {label});
      for (uint32_t i = 1; i < slice.size(); ++i) {
        EXPECT_LE(city->GetCategoryOrNullSlot(slice.NbrAt(i - 1)),
                  city->GetCategoryOrNullSlot(slice.NbrAt(i)));
      }
    }
  }
}

TEST_F(EpIndexTest, DestinationBwKind) {
  // Adjacency = in-edges of vd with a cross-edge date predicate.
  TwoHopViewDef view;
  view.name = "dstbw";
  view.kind = EpKind::kDstBwd;
  view.pred.AddRef(PropRef{PropSite::kBoundEdge, ex_.date_key, false, false}, CmpOp::kLt,
                   PropRef{PropSite::kAdjEdge, ex_.date_key, false, false});
  EpIndex ep(&ex_.graph, &fwd_, &bwd_, view, IndexConfig::Default());
  ep.Build();
  // t13 = v2 -> v5; in-edges of v5 with a later date: t18 (date 18) and
  // t3/t9 have dates 3/9 < 13 so excluded.
  std::set<edge_id_t> list = SliceEdges(ep.GetFullList(T(13)));
  EXPECT_TRUE(list.count(T(18)) > 0);
  EXPECT_EQ(list.count(T(3)), 0u);
  EXPECT_EQ(list.count(T(9)), 0u);
  for (edge_id_t e : list) EXPECT_EQ(ex_.graph.edge_dst(e), ex_.graph.edge_dst(T(13)));
}

TEST_F(EpIndexTest, SourceKindsAnchorAtVs) {
  TwoHopViewDef view;
  view.name = "srcfw";
  view.kind = EpKind::kSrcFwd;  // vnbr -[eadj]-> vs -[eb]-> vd
  view.pred.AddRef(PropRef{PropSite::kAdjEdge, ex_.date_key, false, false}, CmpOp::kLt,
                   PropRef{PropSite::kBoundEdge, ex_.date_key, false, false});
  EpIndex ep(&ex_.graph, &fwd_, &bwd_, view, IndexConfig::Default());
  ep.Build();
  // For t13 (v2 -> v5): eadj are in-edges of v2 with earlier dates:
  // t5 (5), t6 (6) — but not t15 (15) or t17 (17).
  std::set<edge_id_t> expected{T(5), T(6)};
  EXPECT_EQ(SliceEdges(ep.GetFullList(T(13))), expected);
}

TEST_F(EpIndexTest, EdgesCanAppearInManyLists) {
  // |E_indexed| of an EP index can exceed the graph's edge count.
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 2000;
  params.avg_degree = 10.0;
  GeneratePowerLawGraph(params, &graph);
  AddFinancialProperties(17, &graph, 50);
  prop_key_t date = graph.catalog().FindProperty("date", PropTargetKind::kEdge);
  prop_key_t amount = graph.catalog().FindProperty("amount", PropTargetKind::kEdge);
  PrimaryIndex fwd(&graph, Direction::kFwd);
  PrimaryIndex bwd(&graph, Direction::kBwd);
  fwd.Build(IndexConfig::Default());
  bwd.Build(IndexConfig::Default());
  TwoHopViewDef view;
  view.name = "flow";
  view.kind = EpKind::kDstFwd;
  view.pred.AddRef(PropRef{PropSite::kBoundEdge, date, false, false}, CmpOp::kLt,
                   PropRef{PropSite::kAdjEdge, date, false, false});
  view.pred.AddRef(PropRef{PropSite::kBoundEdge, amount, false, false}, CmpOp::kGt,
                   PropRef{PropSite::kAdjEdge, amount, false, false});
  EpIndex ep(&graph, &fwd, &bwd, view, IndexConfig::Default());
  ep.Build();
  EXPECT_GT(ep.num_edges_indexed(), 0u);
  // Offset-list storage: bytes per indexed edge should be small compared
  // to an (edge ID, neighbour ID) pair (12 bytes), excluding the CSR.
  double csr_bytes = 0;
  (void)csr_bytes;
  EXPECT_LT(static_cast<double>(ep.MemoryBytes()),
            static_cast<double>(fwd.MemoryBytes()) +
                12.0 * static_cast<double>(ep.num_edges_indexed()));
}

// The anchor-major Build(), the page-by-page RebuildGroup() and the
// budget-limited sequential build must produce the same pages, and those
// pages must hold exactly the brute-force lists: every entry of the
// anchor's base list other than eb that satisfies Predicate::Eval,
// ordered by (partition bucket, sort key).
class EpBuildIdentityTest : public ::testing::Test {
 protected:
  EpBuildIdentityTest() {
    PowerLawParams params;
    params.num_vertices = 700;
    params.avg_degree = 7.0;
    params.seed = 23;
    GeneratePowerLawGraph(params, &graph_);
    // Self-loops put eb into its own anchor's base list.
    const label_t label = graph_.edge_label(0);
    for (vertex_id_t v = 0; v < 40; v += 3) graph_.AddEdge(v, v, label);
    AssignRandomLabels(2, 3, 29, &graph_);
    keys_ = AddFinancialProperties(31, &graph_, /*num_cities=*/9);
    // Nulls on every property the view and the config read.
    for (vertex_id_t v = 0; v < graph_.num_vertices(); v += 5) {
      graph_.vertex_props().mutable_column(keys_.acc)->SetNull(v);
    }
    for (vertex_id_t v = 2; v < graph_.num_vertices(); v += 6) {
      graph_.vertex_props().mutable_column(keys_.city)->SetNull(v);
    }
    for (edge_id_t e = 0; e < graph_.num_edges(); e += 7) {
      graph_.edge_props().mutable_column(keys_.amount)->SetNull(e);
    }
    for (edge_id_t e = 3; e < graph_.num_edges(); e += 11) {
      graph_.edge_props().mutable_column(keys_.date)->SetNull(e);
    }
    fwd_ = std::make_unique<PrimaryIndex>(&graph_, Direction::kFwd);
    bwd_ = std::make_unique<PrimaryIndex>(&graph_, Direction::kBwd);
    fwd_->Build(IndexConfig::Default());
    bwd_->Build(IndexConfig::Default());
  }

  // Cross, adjacent-side and bound-side conjuncts, an addend included.
  TwoHopViewDef View(EpKind kind) const {
    TwoHopViewDef view;
    view.name = "flow";
    view.kind = kind;
    auto edge = [](PropSite site, prop_key_t key) { return PropRef{site, key, false, false}; };
    view.pred.AddRef(edge(PropSite::kBoundEdge, keys_.date), CmpOp::kLe,
                     edge(PropSite::kAdjEdge, keys_.date));
    view.pred.AddRef(edge(PropSite::kAdjEdge, keys_.amount), CmpOp::kLt,
                     edge(PropSite::kBoundEdge, keys_.amount), 300);
    view.pred.AddRef(edge(PropSite::kBoundEdge, keys_.amount), CmpOp::kGe,
                     edge(PropSite::kAdjEdge, keys_.amount), -400);
    view.pred.AddConst(PropRef{PropSite::kNbrVertex, keys_.city, false, false}, CmpOp::kGe,
                       Value::Category(1));
    view.pred.AddConst(PropRef{PropSite::kSrcVertex, keys_.acc, false, false}, CmpOp::kNe,
                       Value::Category(1));
    return view;
  }

  std::vector<IndexConfig> Configs() const {
    IndexConfig tuned = IndexConfig::Default();
    tuned.partitions.push_back({PartitionSource::kNbrProp, keys_.acc});
    tuned.sorts.clear();
    tuned.sorts.push_back({SortSource::kNbrProp, keys_.city});
    return {IndexConfig::Default(), tuned};
  }

  static bool SamePage(const OffsetListPage& a, const OffsetListPage& b) {
    return a.csr == b.csr && a.width == b.width && a.bytes == b.bytes;
  }

  // Brute-force list of eb: base offsets in (bucket, key) order.
  std::vector<uint32_t> ReferenceList(const EpIndex& ep, edge_id_t eb) const {
    const PrimaryIndex* base = ep.base_primary();
    std::vector<uint32_t> fanouts;
    for (const PartitionCriterion& p : ep.config().partitions) {
      fanouts.push_back(PartitionFanout(graph_.catalog(), p));
    }
    const vertex_id_t* nbrs;
    const edge_id_t* eids;
    uint32_t len;
    base->GetListBase(ep.AnchorOf(eb), &nbrs, &eids, &len);
    struct Ref {
      uint32_t bucket;
      SortKey key;
      uint32_t offset;
    };
    std::vector<Ref> refs;
    for (uint32_t i = 0; i < len; ++i) {
      if (eids[i] == eb) continue;
      EvalContext ctx;
      ctx.graph = &graph_;
      ctx.bound_edge = eb;
      ctx.adj_edge = eids[i];
      ctx.nbr = nbrs[i];
      ctx.src = graph_.edge_src(eb);
      ctx.dst = graph_.edge_dst(eb);
      if (!ep.view().pred.Eval(ctx)) continue;
      refs.push_back({base->BucketOf(ep.config(), fanouts, eids[i], nbrs[i]),
                      base->ComputeSortKey(ep.config(), eids[i], nbrs[i]), i});
    }
    std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
      if (a.bucket != b.bucket) return a.bucket < b.bucket;
      return a.key < b.key;
    });
    std::vector<uint32_t> offsets;
    for (const Ref& r : refs) offsets.push_back(r.offset);
    return offsets;
  }

  Graph graph_;
  FinancialPropKeys keys_;
  std::unique_ptr<PrimaryIndex> fwd_;
  std::unique_ptr<PrimaryIndex> bwd_;
};

TEST_F(EpBuildIdentityTest, BulkAndRebuildBuildsAgree) {
  for (EpKind kind : {EpKind::kDstFwd, EpKind::kDstBwd, EpKind::kSrcFwd, EpKind::kSrcBwd}) {
    for (const IndexConfig& config : Configs()) {
      SCOPED_TRACE(std::string(ToString(kind)) + " partitions=" +
                   std::to_string(config.partitions.size()));
      EpIndex ep(&graph_, fwd_.get(), bwd_.get(), View(kind), config);
      ep.Build();
      ASSERT_EQ(ep.num_pages(), (graph_.num_edges() + kGroupSize - 1) / kGroupSize);

      // Lists and the indexed-edge count against the brute force.
      uint64_t expected_total = 0;
      for (edge_id_t eb = 0; eb < graph_.num_edges(); ++eb) {
        std::vector<uint32_t> expected = ReferenceList(ep, eb);
        expected_total += expected.size();
        AdjListSlice slice = ep.GetFullList(eb);
        std::vector<uint32_t> got;
        for (uint32_t i = 0; i < slice.size(); ++i) {
          got.push_back(static_cast<uint32_t>(slice.BaseOffsetAt(i)));
        }
        ASSERT_EQ(got, expected) << "eb " << eb;
      }
      EXPECT_EQ(ep.num_edges_indexed(), expected_total);
      EXPECT_GT(expected_total, 0u);

      // Single-page rebuilds re-derive byte-identical pages.
      std::vector<OffsetListPage> built;
      for (uint32_t p = 0; p < ep.num_pages(); ++p) built.push_back(ep.page(p));
      for (uint32_t p = 0; p < ep.num_pages(); ++p) {
        ep.RebuildGroup(p);
        ASSERT_TRUE(SamePage(ep.page(p), built[p])) << "page " << p;
      }
      EXPECT_EQ(ep.num_edges_indexed(), expected_total);
    }
  }
}

}  // namespace
}  // namespace aplus
