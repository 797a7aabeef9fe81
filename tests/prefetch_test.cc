// Next-hop prefetch (PrimaryIndex::PrefetchList's stages, ExtendOp's
// prefetch groups) over the three shapes a primary page takes: an
// in-memory run, a run with a pending delta under concurrent ingest, and
// a packed page of a sealed segment (ShapedDatabase, tests/oracle.h).
//
// A prefetch touches no data through __builtin_prefetch that a sanitizer
// could check, but the loads that lead up to it (page slot, run, CSR,
// packed skip entry) are plain loads: the bounds tests call every stage
// of PrefetchList for every vertex ID up to 64 past the graph, with and
// without a partition prefix, so that an ASan build catches any of them reading
// out of bounds. The chain tests run Scan -> Extend -> Extend -> Extend,
// where each of the first two extends prefetches the next one's lists,
// prepared and hand-built, against the oracle (tests/oracle.h) at 1 and
// 4 threads.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "datagen/label_assigner.h"
#include "datagen/power_law_generator.h"
#include "oracle.h"
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

class PrefetchTest : public ::testing::TestWithParam<DbShape> {
 protected:
  // Default (edge-label partitioned, neighbour-ID sorted) primary
  // indexes; the delta shape holds one EL0 edge per half page.
  void SetUp() override {
    Graph graph = MakeGraph();
    const label_t el0 = graph.catalog().FindEdgeLabel("EL0");
    db_.Open(std::move(graph), GetParam(), {}, HalfPageInserts(kNumVertices, el0));
  }

  const PrimaryIndex* primary(Direction dir) const { return db_->index_store().primary(dir); }

  // MATCH (a)-[e0:<elabel>]->(b[:VL0])-[e1]->(c)-[e2]->(d), `a` pinned to
  // the hub or not: Scan a -> Extend b -> Extend c -> Extend d over
  // forward lists, built by hand over the text's bound pattern. A label
  // filter on the first hop makes its extend prefetch only the lists of
  // the entries that pass.
  void ExpectThreeHopChainMatchesOracle(const std::string& elabel, bool b_vl0,
                                        const OracleParams& params) {
    std::string text = "MATCH (a)-[e0:" + elabel + "]->" + (b_vl0 ? "(b:VL0)" : "(b)") +
                       "-[e1:" + elabel + "]->(c)-[e2:" + elabel + "]->(d)";
    if (!params.empty()) text += " WHERE a.ID = $src";
    text += " RETURN COUNT(*)";
    SCOPED_TRACE(text + ParamsToString(params));
    const std::vector<Row> want = ExpectMatchesOracle(db_.get(), text, params);
    ASSERT_EQ(want.size(), 1u);
    EXPECT_GT(want[0][0].AsInt64(), 0);

    const ParsedCypher parsed = OracleParse(db_->graph(), text, params);
    const QueryGraph& q = parsed.query;
    PlanBuilder builder(&db_->graph(), &q);
    builder.Scan(0);
    for (int e = 0; e < 3; ++e) {
      ListDescriptor list;
      list.primary = primary(Direction::kFwd);
      list.bound_var = e;
      list.cats = {q.edge(e).label};
      list.target_vertex_var = e + 1;
      list.target_edge_var = e;
      list.target_vertex_label = q.vertex(e + 1).label;
      list.nbr_sorted = true;
      builder.Extend(list);
    }
    std::unique_ptr<Plan> plan = builder.Build();
    for (int threads : {1, 4}) {
      EXPECT_EQ(RunCount(*plan, threads), static_cast<uint64_t>(want[0][0].AsInt64()))
          << "hand-built threads=" << threads;
    }
  }

  ShapedDatabase db_;
};

TEST_P(PrefetchTest, PrefetchListStaysInBoundsForEveryVertexAndPrefix) {
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
    if (GetParam() == DbShape::kSealedPacked) {
      EXPECT_TRUE(index->page(0).is_packed());
    }
  }
}

TEST_P(PrefetchTest, ThreeHopChainMatchesOracle) {
  const PrimaryIndex* fwd = primary(Direction::kFwd);
  vertex_id_t hub = 0;
  for (vertex_id_t v = 0; v < db_->graph().num_vertices(); ++v) {
    if (fwd->GetFullList(v).len > fwd->GetFullList(hub).len) hub = v;
  }
  for (const char* elabel : {"EL0", "EL1"}) {
    for (bool b_vl0 : {false, true}) {
      ExpectThreeHopChainMatchesOracle(elabel, b_vl0, {});
      ExpectThreeHopChainMatchesOracle(elabel, b_vl0, {{"src", Value::Int64(hub)}});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PrefetchTest,
                         ::testing::Values(DbShape::kInMemory, DbShape::kDelta,
                                           DbShape::kSealedPacked),
                         [](const ::testing::TestParamInfo<DbShape>& info) {
                           return std::string(ToString(info.param));
                         });

}  // namespace
}  // namespace aplus
