#include <gtest/gtest.h>

#include <set>

#include "datagen/example_graph.h"
#include "datagen/financial_props.h"
#include "datagen/power_law_generator.h"
#include "index/vp_index.h"
#include "page_reference.h"
#include "util/rng.h"

namespace aplus {
namespace {

std::set<edge_id_t> SliceEdges(const AdjListSlice& slice) {
  std::set<edge_id_t> edges;
  for (uint32_t i = 0; i < slice.size(); ++i) edges.insert(slice.EdgeAt(i));
  return edges;
}

class VpIndexTest : public ::testing::Test {
 protected:
  VpIndexTest() : ex_(BuildExampleGraph()), fwd_(&ex_.graph, Direction::kFwd) {
    fwd_.Build(IndexConfig::Default());
  }

  ExampleGraph ex_;
  PrimaryIndex fwd_;
};

TEST_F(VpIndexTest, SharedLevelsModeDetection) {
  // No predicate + same partitioning as primary -> shared levels.
  OneHopViewDef view;
  view.name = "resorted";
  IndexConfig config = IndexConfig::Default();
  config.sorts.clear();
  config.sorts.push_back({SortSource::kEdgeProp, ex_.date_key});
  VpIndex vp(&ex_.graph, &fwd_, view, config);
  EXPECT_TRUE(vp.shares_partition_levels());

  OneHopViewDef filtered;
  filtered.name = "filtered";
  filtered.pred.AddConst(PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false}, CmpOp::kGt,
                         Value::Int64(50));
  VpIndex vp2(&ex_.graph, &fwd_, filtered, config);
  EXPECT_FALSE(vp2.shares_partition_levels());
}

TEST_F(VpIndexTest, SharedLevelsReSortsWithinPrimarySublists) {
  // Same partitioning, sort on edge date instead of neighbour ID (the
  // D+VPt configuration of Table III).
  OneHopViewDef view;
  view.name = "VPt";
  IndexConfig config = IndexConfig::Default();
  config.sorts.clear();
  config.sorts.push_back({SortSource::kEdgeProp, ex_.date_key});
  VpIndex vp(&ex_.graph, &fwd_, view, config);
  vp.Build();
  EXPECT_EQ(vp.num_edges_indexed(), ex_.graph.num_edges());
  const PropertyColumn* date = ex_.graph.edge_props().column(ex_.date_key);
  for (vertex_id_t v = 0; v < ex_.graph.num_vertices(); ++v) {
    for (label_t label = 0; label < ex_.graph.catalog().num_edge_labels(); ++label) {
      AdjListSlice primary = fwd_.GetList(v, {label});
      AdjListSlice sorted = vp.GetList(v, {label});
      ASSERT_EQ(primary.size(), sorted.size());
      EXPECT_EQ(SliceEdges(primary), SliceEdges(sorted));
      for (uint32_t i = 1; i < sorted.size(); ++i) {
        int64_t a = date->IsNull(sorted.EdgeAt(i - 1)) ? INT64_MAX
                                                       : date->GetInt64(sorted.EdgeAt(i - 1));
        int64_t b =
            date->IsNull(sorted.EdgeAt(i)) ? INT64_MAX : date->GetInt64(sorted.EdgeAt(i));
        EXPECT_LE(a, b);
      }
    }
  }
}

TEST_F(VpIndexTest, PredicateFiltersEdges) {
  // Example 6 analogue: amount > 50 (USD omitted for coverage).
  OneHopViewDef view;
  view.name = "LargeTrnx";
  view.pred.AddConst(PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false}, CmpOp::kGt,
                     Value::Int64(50));
  VpIndex vp(&ex_.graph, &fwd_, view, IndexConfig::Default());
  vp.Build();
  const PropertyColumn* amount = ex_.graph.edge_props().column(ex_.amount_key);
  uint64_t expected = 0;
  for (edge_id_t e = 0; e < ex_.graph.num_edges(); ++e) {
    if (!amount->IsNull(e) && amount->GetInt64(e) > 50) ++expected;
  }
  EXPECT_EQ(vp.num_edges_indexed(), expected);
  // Per-vertex lists match a reference filter of the primary lists.
  for (vertex_id_t v = 0; v < ex_.graph.num_vertices(); ++v) {
    std::set<edge_id_t> expected_list;
    AdjListSlice primary = fwd_.GetFullList(v);
    for (uint32_t i = 0; i < primary.size(); ++i) {
      edge_id_t e = primary.EdgeAt(i);
      if (!amount->IsNull(e) && amount->GetInt64(e) > 50) expected_list.insert(e);
    }
    EXPECT_EQ(SliceEdges(vp.GetFullList(v)), expected_list) << "v=" << v;
  }
}

TEST_F(VpIndexTest, OffsetsResolveToPrimaryEntries) {
  OneHopViewDef view;
  view.name = "wires";
  PropRef label_ref;
  label_ref.site = PropSite::kAdjEdge;
  label_ref.is_label = true;
  view.pred.AddConst(label_ref, CmpOp::kEq, Value::Int64(ex_.wire_label));
  VpIndex vp(&ex_.graph, &fwd_, view, IndexConfig::Flat());
  vp.Build();
  AdjListSlice slice = vp.GetFullList(ex_.accounts[0]);
  EXPECT_TRUE(slice.is_offset_list());
  for (uint32_t i = 0; i < slice.size(); ++i) {
    EXPECT_EQ(ex_.graph.edge_label(slice.EdgeAt(i)), ex_.wire_label);
    EXPECT_EQ(ex_.graph.edge_src(slice.EdgeAt(i)), ex_.accounts[0]);
  }
  EXPECT_EQ(slice.size(), 3u);  // t4, t17, t20
}

TEST_F(VpIndexTest, DifferentPartitioningBuildsOwnLevels) {
  // Partition the view by currency while the primary partitions by label.
  OneHopViewDef view;
  view.name = "bycur";
  view.pred.AddConst(PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false}, CmpOp::kGe,
                     Value::Int64(0));
  IndexConfig config;
  config.partitions.push_back({PartitionSource::kEdgeProp, ex_.currency_key});
  config.sorts.push_back({SortSource::kNbrId, kInvalidPropKey});
  VpIndex vp(&ex_.graph, &fwd_, view, config);
  EXPECT_FALSE(vp.shares_partition_levels());
  vp.Build();
  // v1's EUR slice: t4, t17, t18.
  std::set<edge_id_t> eur{ex_.transfers[3], ex_.transfers[16], ex_.transfers[17]};
  EXPECT_EQ(SliceEdges(vp.GetList(ex_.accounts[0], {kCurrencyEur})), eur);
}

TEST_F(VpIndexTest, MemoryIsSmallRelativeToPrimary) {
  // Offset lists should cost far less than the 12-byte ID entries
  // (Section III-B3) on a graph big enough to amortize page headers.
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 20000;
  params.avg_degree = 12.0;
  GeneratePowerLawGraph(params, &graph);
  PrimaryIndex primary(&graph, Direction::kFwd);
  primary.Build(IndexConfig::Default());

  OneHopViewDef view;
  view.name = "all";
  VpIndex vp(&graph, &primary, view, IndexConfig::Default());
  vp.Build();
  EXPECT_EQ(vp.num_edges_indexed(), graph.num_edges());
  // Shared levels + 1..2-byte offsets vs 12-byte ID entries.
  EXPECT_LT(static_cast<double>(vp.MemoryBytes()),
            0.35 * static_cast<double>(primary.MemoryBytes()));
}

TEST_F(VpIndexTest, BwdDirectionIndexesInEdges) {
  PrimaryIndex bwd(&ex_.graph, Direction::kBwd);
  bwd.Build(IndexConfig::Default());
  OneHopViewDef view;
  view.name = "all_bwd";
  VpIndex vp(&ex_.graph, &bwd, view, IndexConfig::Default());
  vp.Build();
  // v2's incoming transfers + owns edge.
  EXPECT_EQ(vp.GetFullList(ex_.accounts[1]).size(), 5u);
}

// ---------------------------------------------------------------------
// Build identity: the bucketed page build against a page-wide sort
// ---------------------------------------------------------------------

// The views of each identity config: all edges (shared levels when the
// partitioning equals the primary's) and eadj.amount > 0 (own levels).
std::vector<OneHopViewDef> IdentityViews(const EdgeCaseGraph& g) {
  OneHopViewDef all;
  all.name = "all";
  OneHopViewDef positive;
  positive.name = "positive";
  positive.pred.AddConst(PropRef{PropSite::kAdjEdge, g.amount, false, false}, CmpOp::kGt,
                         Value::Int64(0));
  return {all, positive};
}

TEST(VpBuildIdentityTest, BuildMatchesPageWideSort) {
  EdgeCaseGraph g = MakeEdgeCaseGraph(21, 301, 4000);
  std::vector<std::pair<std::string, IndexConfig>> configs = IdentityConfigs(g);
  for (Direction dir : {Direction::kFwd, Direction::kBwd}) {
    // The primary under D, and under a two-level partitioning.
    for (size_t primary_config : {size_t{0}, size_t{4}}) {
      PrimaryIndex primary(&g.graph, dir);
      primary.Build(configs[primary_config].second);
      for (const auto& [name, config] : configs) {
        for (const OneHopViewDef& view : IdentityViews(g)) {
          SCOPED_TRACE(view.name + " " + name + " over " + configs[primary_config].first +
                       (dir == Direction::kFwd ? " FW" : " BW"));
          VpIndex vp(&g.graph, &primary, view, config);
          vp.Build();
          ExpectVpMatchesReference(vp);
        }
      }
    }
  }
}

TEST(VpBuildIdentityTest, RebuiltGroupsMatchPageWideSort) {
  for (Direction dir : {Direction::kFwd, Direction::kBwd}) {
    EdgeCaseGraph g = MakeEdgeCaseGraph(22, 301, 1500);
    std::vector<std::pair<std::string, IndexConfig>> configs = IdentityConfigs(g);
    PrimaryIndex primary(&g.graph, dir);
    primary.Build(IndexConfig::Default());
    std::vector<std::unique_ptr<VpIndex>> vps;
    for (const auto& [name, config] : configs) {
      for (const OneHopViewDef& view : IdentityViews(g)) {
        vps.push_back(std::make_unique<VpIndex>(&g.graph, &primary, view, config));
        vps.back()->Build();
      }
    }
    Rng rng(23);
    for (int i = 0; i < 1000; ++i) {
      edge_id_t e = AddEdgeCaseEdge(&g, &rng, 281);
      primary.InsertEdge(e);
      for (auto& vp : vps) vp->InsertEdge(e);
    }
    primary.FlushUpdates();
    for (auto& vp : vps) {
      SCOPED_TRACE(vp->name() + (dir == Direction::kFwd ? " FW" : " BW"));
      vp->FlushUpdates();
      ExpectVpMatchesReference(*vp);
    }
  }
}

}  // namespace
}  // namespace aplus
