#include <gtest/gtest.h>

#include <cstdio>

#include "datagen/example_graph.h"
#include "digest_graphs.h"
#include "datagen/financial_props.h"
#include "datagen/power_law_generator.h"
#include "index/index_store.h"
#include "storage/serialize.h"

namespace aplus {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + "/" + name; }

TEST(SerializeTest, RoundTripExampleGraph) {
  ExampleGraph ex = BuildExampleGraph();
  ex.graph.catalog().RegisterCategoryValue(ex.currency_key, "USD");
  std::string path = TempPath("aplus_example.bin");
  ASSERT_TRUE(SaveGraph(ex.graph, path));

  Graph loaded;
  ASSERT_TRUE(LoadGraph(path, &loaded));
  EXPECT_EQ(loaded.num_vertices(), ex.graph.num_vertices());
  EXPECT_EQ(loaded.num_edges(), ex.graph.num_edges());
  // Catalog round-trips by name and id.
  EXPECT_EQ(loaded.catalog().FindVertexLabel("Account"), ex.account_label);
  EXPECT_EQ(loaded.catalog().FindEdgeLabel("W"), ex.wire_label);
  EXPECT_EQ(loaded.catalog().FindCategoryValue(ex.currency_key, "USD"), 0u);
  // Topology and properties match.
  for (edge_id_t e = 0; e < loaded.num_edges(); ++e) {
    EXPECT_EQ(loaded.edge_src(e), ex.graph.edge_src(e));
    EXPECT_EQ(loaded.edge_dst(e), ex.graph.edge_dst(e));
    EXPECT_EQ(loaded.edge_label(e), ex.graph.edge_label(e));
    EXPECT_EQ(Value::Compare(loaded.edge_props().Get(ex.amount_key, e),
                             ex.graph.edge_props().Get(ex.amount_key, e)),
              0);
  }
  for (vertex_id_t v = 0; v < loaded.num_vertices(); ++v) {
    EXPECT_EQ(loaded.vertex_label(v), ex.graph.vertex_label(v));
    EXPECT_EQ(Value::Compare(loaded.vertex_props().Get(ex.name_key, v),
                             ex.graph.vertex_props().Get(ex.name_key, v)),
              0);
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, RoundTripGeneratedGraphAndIndexes) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 2000;
  params.avg_degree = 6.0;
  GeneratePowerLawGraph(params, &graph);
  AddFinancialProperties(9, &graph, 30);
  std::string path = TempPath("aplus_generated.bin");
  ASSERT_TRUE(SaveGraph(graph, path));

  Graph loaded;
  ASSERT_TRUE(LoadGraph(path, &loaded));
  ASSERT_EQ(loaded.num_edges(), graph.num_edges());

  // Indexes rebuilt over the loaded graph behave identically.
  IndexStore original(&graph);
  IndexStore restored(&loaded);
  original.BuildPrimary(IndexConfig::Default());
  restored.BuildPrimary(IndexConfig::Default());
  EXPECT_EQ(original.PrimaryMemoryBytes(), restored.PrimaryMemoryBytes());
  for (vertex_id_t v = 0; v < loaded.num_vertices(); v += 37) {
    AdjListSlice a = original.primary(Direction::kFwd)->GetFullList(v);
    AdjListSlice b = restored.primary(Direction::kFwd)->GetFullList(v);
    ASSERT_EQ(a.size(), b.size()) << "v=" << v;
    for (uint32_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.NbrAt(i), b.NbrAt(i));
      EXPECT_EQ(a.EdgeAt(i), b.EdgeAt(i));
    }
  }
  std::remove(path.c_str());
}

// FNV-1a 64 digests of the APLS v1 snapshots of the two digest graphs
// (tests/digest_graphs.h): the snapshot bytes must not move.
TEST(SerializeTest, SnapshotBytesMatchRecordedDigestsAndRoundTrip) {
  struct Case {
    const char* name;
    Graph graph;
    uint64_t digest;
  };
  Case cases[] = {{"topology", MakeTopologyDigestGraph(), 0x0e0f86f3609cbcb1ULL},
                  {"property", MakePropertyDigestGraph(), 0x3f125eeb9daa542bULL}};
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string path = TempPath("aplus_digest.bin");
    ASSERT_TRUE(SaveGraph(c.graph, path));
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                  static_cast<unsigned long long>(Fnv1a64File(path)));
    EXPECT_EQ(Fnv1a64File(path), c.digest) << "snapshot digest " << hex;

    // Loading and saving again reproduces the same bytes.
    Graph loaded;
    ASSERT_TRUE(LoadGraph(path, &loaded));
    EXPECT_EQ(loaded.num_vertices(), c.graph.num_vertices());
    EXPECT_EQ(loaded.num_edges(), c.graph.num_edges());
    std::string again = TempPath("aplus_digest_again.bin");
    ASSERT_TRUE(SaveGraph(loaded, again));
    EXPECT_EQ(Fnv1a64File(again), Fnv1a64File(path));
    std::remove(again.c_str());
    std::remove(path.c_str());
  }
}

TEST(SerializeTest, RejectsGarbage) {
  std::string path = TempPath("aplus_garbage.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "not a snapshot at all";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  Graph graph;
  EXPECT_FALSE(LoadGraph(path, &graph));
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  Graph graph;
  EXPECT_FALSE(LoadGraph(TempPath("does_not_exist.bin"), &graph));
}

}  // namespace
}  // namespace aplus
