// Round trips of the graph through the sealed segment file: seal ->
// mmap-reopen must serve the catalog, the topology and every property
// column byte for byte (NaN, -0.0, null slots, empty and long strings,
// self loops and multi-edges), and the reopened primary indexes the same
// adjacency lists as the in-memory ones they were sealed from.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/database.h"
#include "datagen/example_graph.h"
#include "datagen/financial_props.h"
#include "datagen/power_law_generator.h"
#include "digest_graphs.h"
#include "index/index_store.h"
#include "storage/segment.h"

namespace aplus {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + "/" + name; }

// Seals `graph` with default primary indexes at TempPath(`name`).
std::string SealGraph(Graph graph, const std::string& name) {
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  std::string path = TempPath(name);
  std::string error;
  EXPECT_TRUE(db.SealToSegment(path, &error)) << error;
  return path;
}

// Catalog, topology and every property column of `b` match `a`, byte
// for byte (NaN, -0.0 and null slots included); dictionaries by value.
void ExpectSameGraph(const Graph& a, const Graph& b) {
  const Catalog& ca = a.catalog();
  const Catalog& cb = b.catalog();
  ASSERT_EQ(cb.num_vertex_labels(), ca.num_vertex_labels());
  ASSERT_EQ(cb.num_edge_labels(), ca.num_edge_labels());
  ASSERT_EQ(cb.num_properties(), ca.num_properties());
  for (label_t l = 0; l < ca.num_vertex_labels(); ++l) {
    EXPECT_EQ(cb.VertexLabelName(l), ca.VertexLabelName(l));
  }
  for (label_t l = 0; l < ca.num_edge_labels(); ++l) {
    EXPECT_EQ(cb.EdgeLabelName(l), ca.EdgeLabelName(l));
  }
  const uint64_t nv = a.num_vertices();
  const uint64_t ne = a.num_edges();
  ASSERT_EQ(b.num_vertices(), nv);
  ASSERT_EQ(b.num_edges(), ne);
  auto same = [](const void* x, const void* y, size_t n) {
    return n == 0 || std::memcmp(x, y, n) == 0;
  };
  const Graph::Columns x = a.columns();
  const Graph::Columns y = b.columns();
  EXPECT_TRUE(same(x.vertex_labels, y.vertex_labels, nv * sizeof(label_t)));
  EXPECT_TRUE(same(x.edge_srcs, y.edge_srcs, ne * sizeof(vertex_id_t)));
  EXPECT_TRUE(same(x.edge_dsts, y.edge_dsts, ne * sizeof(vertex_id_t)));
  EXPECT_TRUE(same(x.edge_labels, y.edge_labels, ne * sizeof(label_t)));
  for (prop_key_t k = 0; k < ca.num_properties(); ++k) {
    const PropertyMeta& m = ca.property(k);
    const PropertyMeta& mb = cb.property(k);
    SCOPED_TRACE(m.name);
    EXPECT_TRUE(mb.name == m.name && mb.type == m.type && mb.target == m.target &&
                mb.domain_size == m.domain_size && mb.category_names == m.category_names);
    const bool vertex = m.target == PropTargetKind::kVertex;
    const PropertyColumn* ccol = (vertex ? a.vertex_props() : a.edge_props()).column(k);
    const PropertyColumn* bcol = (vertex ? b.vertex_props() : b.edge_props()).column(k);
    ASSERT_EQ(ccol == nullptr, bcol == nullptr);
    if (ccol == nullptr) continue;
    const uint64_t n = vertex ? nv : ne;
    EXPECT_EQ(bcol->size(), n);
    EXPECT_TRUE(same(ccol->null_data(), bcol->null_data(), n));
    EXPECT_TRUE(same(ccol->payload_data(), bcol->payload_data(),
                     n * PropertyColumn::PayloadWidth(m.type)));
    EXPECT_EQ(bcol->dictionary(), ccol->dictionary());
  }
}

TEST(SegmentRoundTripTest, ExampleGraph) {
  ExampleGraph ex = BuildExampleGraph();
  ex.graph.catalog().RegisterCategoryValue(ex.currency_key, "USD");
  Database db(std::move(ex.graph));
  db.BuildPrimaryIndexes();
  std::string path = TempPath("aplus_seg_example.seg");
  std::string error;
  ASSERT_TRUE(db.SealToSegment(path, &error)) << error;
  std::unique_ptr<Database> reopened = Database::OpenFromSegment(path, &error);
  ASSERT_NE(reopened, nullptr) << error;
  const Graph& loaded = reopened->graph();
  EXPECT_TRUE(loaded.mapped());
  EXPECT_EQ(loaded.catalog().FindVertexLabel("Account"), ex.account_label);
  EXPECT_EQ(loaded.catalog().FindCategoryValue(ex.currency_key, "USD"), 0u);
  EXPECT_EQ(loaded.vertex_props().Get(ex.name_key, ex.customers[1]).AsString(), "Alice");
  ExpectSameGraph(db.graph(), loaded);
  std::remove(path.c_str());
}

// Every property type with nulls, NaN, -0.0, infinity, an empty and a
// 70000-byte string; and the topology graph's two labels per kind, self
// loops and multi-edges.
TEST(SegmentRoundTripTest, DigestGraphs) {
  for (bool property : {false, true}) {
    SCOPED_TRACE(property ? "property" : "topology");
    Graph original = property ? MakePropertyDigestGraph() : MakeTopologyDigestGraph();
    Graph copy = property ? MakePropertyDigestGraph() : MakeTopologyDigestGraph();
    std::string path = SealGraph(std::move(copy), "aplus_seg_roundtrip.seg");
    std::string error;
    std::unique_ptr<Segment> seg = OpenSegment(path, &error);
    ASSERT_NE(seg, nullptr) << error;
    ExpectSameGraph(original, seg->graph());
    std::remove(path.c_str());
  }
}

TEST(SegmentRoundTripTest, EmptyGraph) {
  Graph graph;
  graph.catalog().AddVertexLabel("V");
  graph.catalog().AddEdgeLabel("E");
  graph.AddVertexProperty("name", ValueType::kString);
  std::string path = SealGraph(std::move(graph), "aplus_seg_empty.seg");
  std::string error;
  std::unique_ptr<Segment> seg = OpenSegment(path, &error);
  ASSERT_NE(seg, nullptr) << error;
  EXPECT_EQ(seg->graph().num_vertices(), 0u);
  EXPECT_EQ(seg->graph().catalog().num_properties(), 1u);
  std::remove(path.c_str());
}

// The reopened primary indexes serve the same lists, in both directions,
// as the in-memory indexes they were sealed from.
TEST(SegmentRoundTripTest, GraphAndIndexes) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 2000;
  params.avg_degree = 6.0;
  GeneratePowerLawGraph(params, &graph);
  AddFinancialProperties(9, &graph, 30);
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  std::string path = TempPath("aplus_seg_indexes.seg");
  std::string error;
  ASSERT_TRUE(db.SealToSegment(path, &error)) << error;
  std::unique_ptr<Database> reopened = Database::OpenFromSegment(path, &error);
  ASSERT_NE(reopened, nullptr) << error;
  ExpectSameGraph(db.graph(), reopened->graph());
  for (Direction dir : {Direction::kFwd, Direction::kBwd}) {
    const PrimaryIndex* original = db.index_store().primary(dir);
    const PrimaryIndex* restored = reopened->index_store().primary(dir);
    for (vertex_id_t v = 0; v < db.graph().num_vertices(); v += 37) {
      AdjListSlice a = original->GetFullList(v);
      AdjListSlice b = restored->GetFullList(v);
      ASSERT_EQ(a.size(), b.size()) << ToString(dir) << " v=" << v;
      for (uint32_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.NbrAt(i), b.NbrAt(i));
        EXPECT_EQ(a.EdgeAt(i), b.EdgeAt(i));
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aplus
