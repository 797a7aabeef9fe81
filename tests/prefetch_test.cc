// Next-hop prefetch (PrimaryIndex::PrefetchList's stages, ExtendOp's
// prefetch groups) over the three shapes a primary page takes: an in-memory run,
// a run with a pending delta under concurrent ingest, and a packed page
// of a sealed segment.
//
// A prefetch touches no data through __builtin_prefetch that a sanitizer
// could check, but the loads that lead up to it (page slot, run, CSR,
// packed skip entry) are plain loads: the bounds tests call every stage
// of PrefetchList for every vertex ID up to 64 past the graph, with and
// without a partition prefix, so that an ASan build catches any of them reading
// out of bounds. The chain tests run Scan -> Extend -> Extend -> Extend,
// where each of the first two extends prefetches the next one's lists,
// against the brute-force matcher at 1 and 4 threads.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baseline/flat_adj_engine.h"
#include "core/database.h"
#include "datagen/label_assigner.h"
#include "datagen/power_law_generator.h"
#include "query/plan.h"
#include "test_threads.h"

namespace aplus {
namespace {

constexpr uint64_t kNumVertices = 1000;

Graph MakeGraph() {
  PowerLawParams params;
  params.num_vertices = kNumVertices;
  params.avg_degree = 3.0;
  params.seed = 17;
  Graph graph;
  GeneratePowerLawGraph(params, &graph);
  AssignRandomLabels(2, 2, 23, &graph);  // vertex labels VL0, VL1; edge labels EL0, EL1
  return graph;
}

std::string TempPath(const std::string& name) { return testing::TempDir() + "/" + name; }

// The three databases, each over MakeGraph() with default (edge-label
// partitioned, neighbour-ID sorted) primary indexes.
enum class Shape { kInMemory, kDelta, kPackedSegment };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kInMemory:
      return "in-memory";
    case Shape::kDelta:
      return "delta";
    case Shape::kPackedSegment:
      return "packed segment";
  }
  return "?";
}

class PrefetchTest : public ::testing::TestWithParam<Shape> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case Shape::kInMemory:
        db_ = std::make_unique<Database>(MakeGraph(), EngineConfig());
        db_->BuildPrimaryIndexes();
        break;
      case Shape::kDelta: {
        db_ = std::make_unique<Database>(MakeGraph(), EngineConfig());
        db_->BuildPrimaryIndexes();
        // Inline merges only once a page crosses its cost threshold, so
        // one inserted edge per page stays in the page's delta.
        ConcurrentIngestOptions options;
        options.max_vertices = db_->graph().num_vertices();
        options.max_edges = db_->graph().num_edges() + kNumVertices;
        options.background_merge = false;
        db_->BeginConcurrentIngest(options);
        const label_t elabel = db_->graph().catalog().FindEdgeLabel("EL0");
        for (vertex_id_t src = 0; src < kNumVertices; src += kGroupSize / 2) {
          vertex_id_t dst = (src * 7 + 3) % kNumVertices;
          db_->maintainer().OnEdgeInserted(db_->graph().AddEdge(src, dst, elabel));
        }
        ASSERT_TRUE(db_->index_store().HasPendingUpdates());
        break;
      }
      case Shape::kPackedSegment: {
        EngineConfig config;
        config.segment_compress = CompressMode::kOn;
        Database sealed(MakeGraph(), config);
        sealed.BuildPrimaryIndexes();
        path_ = TempPath("aplus_prefetch_packed.seg");
        std::string error;
        ASSERT_TRUE(sealed.SealToSegment(path_, &error)) << error;
        db_ = Database::OpenFromSegment(path_, &error);
        ASSERT_NE(db_, nullptr) << error;
        break;
      }
    }
  }

  void TearDown() override {
    if (db_ != nullptr && db_->concurrent_ingest_active()) db_->EndConcurrentIngest();
    db_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  const PrimaryIndex* primary(Direction dir) const { return db_->index_store().primary(dir); }

  // Scan a -> Extend b -> Extend c -> Extend d over forward lists of
  // edge label `elabel`, with `a` pinned to `pin` (or unpinned) and `b`
  // of vertex label `b_label` (or any): a label filter on the first hop
  // makes its extend prefetch only the lists of the entries that pass.
  struct Chain {
    QueryGraph query;
    std::unique_ptr<Plan> plan;
  };
  std::unique_ptr<Chain> ThreeHopChain(label_t elabel, vertex_id_t pin, label_t b_label) const {
    auto chain = std::make_unique<Chain>();
    QueryGraph& q = chain->query;
    int v[4] = {q.AddVertex("a", kInvalidLabel, pin), q.AddVertex("b", b_label),
                q.AddVertex("c"), q.AddVertex("d")};
    PlanBuilder builder(&db_->graph(), &q);
    builder.Scan(v[0]);
    for (int hop = 0; hop < 3; ++hop) {
      int e = q.AddEdge(v[hop], v[hop + 1], elabel, "e" + std::to_string(hop));
      ListDescriptor list;
      list.primary = primary(Direction::kFwd);
      list.bound_var = v[hop];
      list.cats = {elabel};
      list.target_vertex_var = v[hop + 1];
      list.target_edge_var = e;
      list.target_vertex_label = q.vertex(v[hop + 1]).label;
      list.nbr_sorted = true;
      builder.Extend(list);
    }
    chain->plan = builder.Build();
    return chain;
  }

  std::unique_ptr<Database> db_;
  std::string path_;
};

TEST_P(PrefetchTest, PrefetchListStaysInBoundsForEveryVertexAndPrefix) {
  SCOPED_TRACE(ShapeName(GetParam()));
  const uint64_t nv = db_->graph().num_vertices();
  for (Direction dir : {Direction::kFwd, Direction::kBwd}) {
    const PrimaryIndex* index = primary(dir);
    ASSERT_EQ(index->levels().fanouts.size(), 1u);  // edge labels
    uint64_t empty_lists = 0;
    uint64_t page_ending_lists = 0;
    for (uint64_t v = 0; v < nv + 64; ++v) {
      for (int stage = 0; stage < PrimaryIndex::kPrefetchStages; ++stage) {
        index->PrefetchList(stage, static_cast<vertex_id_t>(v), {});
        for (category_t cat = 0; cat < index->levels().fanouts[0]; ++cat) {
          index->PrefetchList(stage, static_cast<vertex_id_t>(v), {cat});
        }
      }
      if (v >= nv) continue;
      AdjListSlice list = index->GetList(static_cast<vertex_id_t>(v), {});
      if (list.empty()) ++empty_lists;
      // The last non-empty list of a page ends its entry stream.
      const IdListPage& page = index->page(static_cast<uint32_t>(v / kGroupSize));
      if (!list.empty() && page.csr[(v % kGroupSize) * index->fanout_product()] + list.len ==
                               page.num_entries) {
        ++page_ending_lists;
      }
    }
    // The walk covered both edge cases of the packed skip-entry read.
    EXPECT_GT(empty_lists, 0u);
    EXPECT_GT(page_ending_lists, 0u);
    if (GetParam() == Shape::kPackedSegment) {
      EXPECT_TRUE(index->page(0).is_packed());
    }
  }
}

TEST_P(PrefetchTest, ThreeHopChainMatchesOracle) {
  SCOPED_TRACE(ShapeName(GetParam()));
  const PrimaryIndex* fwd = primary(Direction::kFwd);
  vertex_id_t hub = 0;
  for (vertex_id_t v = 0; v < db_->graph().num_vertices(); ++v) {
    if (fwd->GetFullList(v).len > fwd->GetFullList(hub).len) hub = v;
  }
  FlatAdjEngine oracle(&db_->graph());
  const label_t vl0 = db_->graph().catalog().FindVertexLabel("VL0");
  for (const char* name : {"EL0", "EL1"}) {
    const label_t elabel = db_->graph().catalog().FindEdgeLabel(name);
    for (vertex_id_t pin : {kInvalidVertex, hub}) {
      for (label_t b_label : {kInvalidLabel, vl0}) {
        std::unique_ptr<Chain> chain = ThreeHopChain(elabel, pin, b_label);
        const uint64_t want = oracle.CountMatches(chain->query);
        EXPECT_GT(want, 0u);
        for (int threads : {1, 4}) {
          EXPECT_EQ(RunCount(*chain->plan, threads), want)
              << name << (pin == kInvalidVertex ? " unpinned" : " hub-pinned")
              << (b_label == kInvalidLabel ? "" : " b:VL0") << " threads=" << threads;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PrefetchTest,
                         ::testing::Values(Shape::kInMemory, Shape::kDelta,
                                           Shape::kPackedSegment),
                         [](const ::testing::TestParamInfo<Shape>& info) {
                           switch (info.param) {
                             case Shape::kInMemory:
                               return std::string("InMemory");
                             case Shape::kDelta:
                               return std::string("Delta");
                             case Shape::kPackedSegment:
                               return std::string("PackedSegment");
                           }
                           return std::string("Unknown");
                         });

}  // namespace
}  // namespace aplus
