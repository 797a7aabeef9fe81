#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "datagen/example_graph.h"
#include "datagen/financial_props.h"
#include "datagen/power_law_generator.h"
#include "index/primary_index.h"
#include "page_reference.h"
#include "util/rng.h"

namespace aplus {
namespace {

class PrimaryIndexTest : public ::testing::Test {
 protected:
  PrimaryIndexTest() : ex_(BuildExampleGraph()) {}

  std::set<edge_id_t> SliceEdges(const AdjListSlice& slice) {
    std::set<edge_id_t> edges;
    for (uint32_t i = 0; i < slice.size(); ++i) edges.insert(slice.EdgeAt(i));
    return edges;
  }

  ExampleGraph ex_;
};

TEST_F(PrimaryIndexTest, DefaultConfigIndexesEveryEdge) {
  PrimaryIndex fwd(&ex_.graph, Direction::kFwd);
  fwd.Build(IndexConfig::Default());
  EXPECT_EQ(fwd.num_edges_indexed(), ex_.graph.num_edges());
  uint64_t total = 0;
  for (vertex_id_t v = 0; v < ex_.graph.num_vertices(); ++v) {
    total += fwd.GetFullList(v).size();
  }
  EXPECT_EQ(total, ex_.graph.num_edges());
}

TEST_F(PrimaryIndexTest, ForwardListsHoldOutEdges) {
  PrimaryIndex fwd(&ex_.graph, Direction::kFwd);
  fwd.Build(IndexConfig::Default());
  // v2's outgoing transfers are t7, t8, t13 (plus no Owns from accounts).
  std::set<edge_id_t> expected{ex_.transfers[6], ex_.transfers[7], ex_.transfers[12]};
  EXPECT_EQ(SliceEdges(fwd.GetFullList(ex_.accounts[1])), expected);
}

TEST_F(PrimaryIndexTest, BackwardListsHoldInEdges) {
  PrimaryIndex bwd(&ex_.graph, Direction::kBwd);
  bwd.Build(IndexConfig::Default());
  // v2's incoming edges: transfers t5, t6, t15, t17 plus Bob's Owns e2.
  std::set<edge_id_t> expected{ex_.transfers[4], ex_.transfers[5], ex_.transfers[14],
                               ex_.transfers[16], ex_.owns[1]};
  EXPECT_EQ(SliceEdges(bwd.GetFullList(ex_.accounts[1])), expected);
}

TEST_F(PrimaryIndexTest, EdgeLabelPartitionSlicing) {
  PrimaryIndex fwd(&ex_.graph, Direction::kFwd);
  fwd.Build(IndexConfig::Default());
  // v1's Wire slice: t4, t17, t20. DD slice: t18.
  std::set<edge_id_t> wires{ex_.transfers[3], ex_.transfers[16], ex_.transfers[19]};
  EXPECT_EQ(SliceEdges(fwd.GetList(ex_.accounts[0], {ex_.wire_label})), wires);
  std::set<edge_id_t> dds{ex_.transfers[17]};
  EXPECT_EQ(SliceEdges(fwd.GetList(ex_.accounts[0], {ex_.dd_label})), dds);
  EXPECT_TRUE(SliceEdges(fwd.GetList(ex_.accounts[0], {ex_.owns_label})).empty());
}

TEST_F(PrimaryIndexTest, SublistsAreUnionOfPartitions) {
  // Section III-A1: L = L_W u L_DD and sublists are contiguous.
  PrimaryIndex fwd(&ex_.graph, Direction::kFwd);
  fwd.Build(IndexConfig::Default());
  for (vertex_id_t v = 0; v < 5; ++v) {
    std::set<edge_id_t> whole = SliceEdges(fwd.GetFullList(ex_.accounts[v]));
    std::set<edge_id_t> merged;
    for (label_t label = 0; label < ex_.graph.catalog().num_edge_labels(); ++label) {
      std::set<edge_id_t> part = SliceEdges(fwd.GetList(ex_.accounts[v], {label}));
      merged.insert(part.begin(), part.end());
    }
    EXPECT_EQ(whole, merged);
  }
}

TEST_F(PrimaryIndexTest, DefaultSortIsNeighbourId) {
  PrimaryIndex fwd(&ex_.graph, Direction::kFwd);
  fwd.Build(IndexConfig::Default());
  for (vertex_id_t v = 0; v < ex_.graph.num_vertices(); ++v) {
    for (label_t label = 0; label < ex_.graph.catalog().num_edge_labels(); ++label) {
      AdjListSlice slice = fwd.GetList(v, {label});
      for (uint32_t i = 1; i < slice.size(); ++i) {
        EXPECT_LE(slice.NbrAt(i - 1), slice.NbrAt(i));
      }
    }
  }
}

TEST_F(PrimaryIndexTest, NestedCurrencyPartitioning) {
  // The Section III reconfiguration: PARTITION BY eadj.label,
  // eadj.currency SORT BY vnbr.city.
  IndexConfig config;
  config.partitions.push_back({PartitionSource::kEdgeLabel, kInvalidPropKey});
  config.partitions.push_back({PartitionSource::kEdgeProp, ex_.currency_key});
  config.sorts.push_back({SortSource::kNbrProp, ex_.city_key});
  PrimaryIndex fwd(&ex_.graph, Direction::kFwd);
  fwd.Build(config);
  EXPECT_EQ(fwd.num_edges_indexed(), ex_.graph.num_edges());
  // v1's Wire+EUR slice: t4 (EUR 200) and t17 (EUR 25).
  std::set<edge_id_t> eur_wires{ex_.transfers[3], ex_.transfers[16]};
  EXPECT_EQ(SliceEdges(fwd.GetList(ex_.accounts[0], {ex_.wire_label, kCurrencyEur})), eur_wires);
  // v1's Wire+USD slice: t20 only.
  std::set<edge_id_t> usd_wires{ex_.transfers[19]};
  EXPECT_EQ(SliceEdges(fwd.GetList(ex_.accounts[0], {ex_.wire_label, kCurrencyUsd})), usd_wires);
  // Prefix access (only Wire) still returns the whole Wire list.
  EXPECT_EQ(fwd.GetList(ex_.accounts[0], {ex_.wire_label}).size(), 3u);
}

TEST_F(PrimaryIndexTest, NullsGoToLastPartition) {
  // Owns edges have null currency; with currency partitioning they land
  // in the extra null slot (domain_size).
  IndexConfig config;
  config.partitions.push_back({PartitionSource::kEdgeProp, ex_.currency_key});
  config.sorts.push_back({SortSource::kNbrId, kInvalidPropKey});
  PrimaryIndex fwd(&ex_.graph, Direction::kFwd);
  fwd.Build(config);
  vertex_id_t alice = ex_.customers[1];
  AdjListSlice null_slice = fwd.GetList(alice, {3});  // domain_size = 3
  EXPECT_EQ(null_slice.size(), 2u);                   // Alice owns v1 and v4
}

TEST_F(PrimaryIndexTest, SortByCityOrdersLists) {
  IndexConfig config = IndexConfig::Default();
  config.sorts.clear();
  config.sorts.push_back({SortSource::kNbrProp, ex_.city_key});
  PrimaryIndex fwd(&ex_.graph, Direction::kFwd);
  fwd.Build(config);
  const PropertyColumn* city = ex_.graph.vertex_props().column(ex_.city_key);
  for (vertex_id_t v = 0; v < 5; ++v) {
    for (label_t label = 0; label < ex_.graph.catalog().num_edge_labels(); ++label) {
      AdjListSlice slice = fwd.GetList(ex_.accounts[v], {label});
      for (uint32_t i = 1; i < slice.size(); ++i) {
        EXPECT_LE(city->GetCategoryOrNullSlot(slice.NbrAt(i - 1)),
                  city->GetCategoryOrNullSlot(slice.NbrAt(i)));
      }
    }
  }
}

TEST_F(PrimaryIndexTest, ReconfigurationPreservesEdgeSet) {
  PrimaryIndex fwd(&ex_.graph, Direction::kFwd);
  fwd.Build(IndexConfig::Default());
  std::set<edge_id_t> before = SliceEdges(fwd.GetFullList(ex_.accounts[0]));
  IndexConfig config;
  config.partitions.push_back({PartitionSource::kEdgeLabel, kInvalidPropKey});
  config.partitions.push_back({PartitionSource::kNbrLabel, kInvalidPropKey});
  config.sorts.push_back({SortSource::kNbrLabel, kInvalidPropKey});
  fwd.Build(config);
  EXPECT_EQ(SliceEdges(fwd.GetFullList(ex_.accounts[0])), before);
}

TEST_F(PrimaryIndexTest, GetListBaseCoversFullList) {
  PrimaryIndex fwd(&ex_.graph, Direction::kFwd);
  fwd.Build(IndexConfig::Default());
  const vertex_id_t* nbrs;
  const edge_id_t* eids;
  uint32_t len;
  fwd.GetListBase(ex_.accounts[0], &nbrs, &eids, &len);
  EXPECT_EQ(len, 4u);  // t4, t17, t18, t20
  AdjListSlice full = fwd.GetFullList(ex_.accounts[0]);
  EXPECT_EQ(full.nbrs, nbrs);
  EXPECT_EQ(full.len, len);
}

TEST(PrimaryIndexLargeTest, SpansManyPages) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 1000;  // > 15 pages of 64
  params.avg_degree = 7.0;
  GeneratePowerLawGraph(params, &graph);
  PrimaryIndex fwd(&graph, Direction::kFwd);
  PrimaryIndex bwd(&graph, Direction::kBwd);
  fwd.Build(IndexConfig::Default());
  bwd.Build(IndexConfig::Default());
  EXPECT_EQ(fwd.num_pages(), 16u);
  // Cross-check against a reference adjacency computation.
  std::vector<std::vector<edge_id_t>> expected_out(graph.num_vertices());
  for (edge_id_t e = 0; e < graph.num_edges(); ++e) expected_out[graph.edge_src(e)].push_back(e);
  for (vertex_id_t v = 0; v < graph.num_vertices(); ++v) {
    AdjListSlice slice = fwd.GetFullList(v);
    ASSERT_EQ(slice.size(), expected_out[v].size()) << "v=" << v;
    std::set<edge_id_t> got;
    for (uint32_t i = 0; i < slice.size(); ++i) got.insert(slice.EdgeAt(i));
    std::set<edge_id_t> want(expected_out[v].begin(), expected_out[v].end());
    EXPECT_EQ(got, want) << "v=" << v;
  }
  // Memory: ID lists store 4-byte neighbour + 8-byte edge ids.
  EXPECT_GE(fwd.MemoryBytes(), graph.num_edges() * 12);
}

TEST(EncodeDoubleSortKeyTest, PreservesOrdering) {
  std::vector<double> values{-1e300, -5.5, -0.0, 0.0, 1e-10, 3.14, 1e300};
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LE(EncodeDoubleSortKey(values[i - 1]), EncodeDoubleSortKey(values[i]))
        << values[i - 1] << " vs " << values[i];
  }
}

TEST_F(PrimaryIndexTest, PartitionLevelBytesGrowWithFanout) {
  PrimaryIndex flat(&ex_.graph, Direction::kFwd);
  flat.Build(IndexConfig::Flat());
  PrimaryIndex partitioned(&ex_.graph, Direction::kFwd);
  IndexConfig config;
  config.partitions.push_back({PartitionSource::kEdgeLabel, kInvalidPropKey});
  config.partitions.push_back({PartitionSource::kNbrLabel, kInvalidPropKey});
  config.sorts.push_back({SortSource::kNbrId, kInvalidPropKey});
  partitioned.Build(config);
  EXPECT_GT(partitioned.PartitionLevelBytes(), flat.PartitionLevelBytes());
}

// ---------------------------------------------------------------------
// Build identity: the bucketed page build against a page-wide sort
// ---------------------------------------------------------------------

TEST(PrimaryBuildIdentityTest, BuildMatchesPageWideSort) {
  // 301 vertices: the last page is partial and the last 20 are isolated.
  EdgeCaseGraph g = MakeEdgeCaseGraph(11, 301, 4000);
  std::vector<bool> live(g.graph.num_edges(), true);
  for (Direction dir : {Direction::kFwd, Direction::kBwd}) {
    // One index reconfigured through every config, as RECONFIGURE does.
    PrimaryIndex index(&g.graph, dir);
    for (const auto& [name, config] : IdentityConfigs(g)) {
      SCOPED_TRACE(name + (dir == Direction::kFwd ? " FW" : " BW"));
      index.Build(config);
      EXPECT_EQ(index.num_edges_indexed(), g.graph.num_edges());
      ExpectPrimaryMatchesReference(index, live);
    }
  }
}

TEST(PrimaryBuildIdentityTest, InsertsAndDeletesThenFlushMatchAFreshBuild) {
  for (const auto& [name, config] : IdentityConfigs(MakeEdgeCaseGraph(12, 301, 0))) {
    for (Direction dir : {Direction::kFwd, Direction::kBwd}) {
      SCOPED_TRACE(name + (dir == Direction::kFwd ? " FW" : " BW"));
      EdgeCaseGraph g = MakeEdgeCaseGraph(12, 301, 1500);
      PrimaryIndex index(&g.graph, dir);
      index.Build(config);
      std::vector<bool> live(g.graph.num_edges(), true);
      Rng rng(13);
      for (int op = 0; op < 2000; ++op) {
        if (rng.NextBounded(3) == 0) {
          edge_id_t e = rng.NextBounded(live.size());
          if (!live[e]) continue;
          index.DeleteEdge(e);
          live[e] = false;
        } else {
          edge_id_t e = AddEdgeCaseEdge(&g, &rng, 281);
          live.push_back(true);
          index.InsertEdge(e);
        }
      }
      index.FlushUpdates();
      // Equal to a build of the surviving edges, byte for byte.
      ExpectPrimaryMatchesReference(index, live);
    }
  }
}

}  // namespace
}  // namespace aplus
