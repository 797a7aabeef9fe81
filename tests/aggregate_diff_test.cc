// Differential tests of the composable sink pipeline (grouped
// aggregation, DISTINCT, ORDER BY, LIMIT): each case is Cypher text,
// checked by ExpectMatchesOracle (tests/oracle.h) against the one
// reference evaluator at 1 and 4 threads on 3 random power-law seeds, so
// the parallel partial-merge path (per-worker aggregate tables folded at
// Execute end) is covered against the serial path and the oracle.
//
// Double-valued properties are generated dyadic (multiples of 0.25) so
// sums are exact in any accumulation order and results compare exactly.

#include <gtest/gtest.h>

#include <string>

#include "datagen/power_law_generator.h"
#include "oracle.h"
#include "util/rng.h"

namespace aplus {
namespace {

class AggregateDiffTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  AggregateDiffTest() {
    Graph graph;
    PowerLawParams params;
    params.num_vertices = 350;
    params.avg_degree = 4.0;
    params.seed = GetParam();
    GeneratePowerLawGraph(params, &graph);
    const prop_key_t amt_key = graph.AddEdgeProperty("amt", ValueType::kInt64);
    const prop_key_t w_key = graph.AddEdgeProperty("w", ValueType::kDouble);
    const prop_key_t grp_key = graph.AddVertexProperty("grp", ValueType::kInt64);
    const prop_key_t tag_key = graph.AddVertexProperty("tag", ValueType::kString);
    Rng rng(GetParam() * 7 + 3);
    PropertyColumn* amt = graph.edge_props().mutable_column(amt_key);
    PropertyColumn* w = graph.edge_props().mutable_column(w_key);
    for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
      if (rng.NextBounded(8) == 0) {
        amt->SetNull(e);  // ~12% nulls exercise the skip-null paths
      } else {
        amt->SetInt64(e, static_cast<int64_t>(rng.NextBounded(500)));
      }
      // Dyadic doubles: order-independent exact sums.
      w->SetDouble(e, static_cast<double>(rng.NextBounded(4000)) * 0.25);
    }
    PropertyColumn* grp = graph.vertex_props().mutable_column(grp_key);
    PropertyColumn* tag = graph.vertex_props().mutable_column(tag_key);
    for (vertex_id_t v = 0; v < graph.num_vertices(); ++v) {
      if (rng.NextBounded(6) == 0) {
        grp->SetNull(v);  // null group keys form their own group
      } else {
        grp->SetInt64(v, static_cast<int64_t>(rng.NextBounded(7)));
      }
      tag->SetString(v, "t" + std::to_string(rng.NextBounded(5)));
    }
    db_.Open(std::move(graph), DbShape::kInMemory);
  }

  void Check(const std::string& text) { ExpectMatchesOracle(db_.get(), text); }
  size_t ResultSize(const std::string& text) { return OracleRows(db_->graph(), text).size(); }

  ShapedDatabase db_;
};

TEST_P(AggregateDiffTest, GlobalAggregatesEveryFunction) {
  Check(
      "MATCH (a)-[r:E]->(b) "
      "RETURN COUNT(*), COUNT(r.amt), SUM(r.amt), MIN(r.amt), MAX(r.amt), AVG(r.amt)");
}

TEST_P(AggregateDiffTest, GlobalDoubleAggregates) {
  Check("MATCH (a)-[r:E]->(b) RETURN SUM(r.w), MIN(r.w), MAX(r.w), AVG(r.w)");
}

TEST_P(AggregateDiffTest, GroupByIntKeyWithNulls) {
  Check("MATCH (a)-[r:E]->(b) RETURN a.grp, COUNT(*), SUM(r.amt), AVG(r.w)");
}

TEST_P(AggregateDiffTest, GroupByStringKey) {
  Check("MATCH (a)-[r:E]->(b) RETURN b.tag, COUNT(*), MIN(r.amt), MAX(r.w)");
}

TEST_P(AggregateDiffTest, GroupByTwoKeys) {
  Check("MATCH (a)-[r:E]->(b) RETURN a.grp, b.tag, COUNT(r.amt)");
}

TEST_P(AggregateDiffTest, RawProjectionOrderByLimit) {
  // Nulls in the DESC key order first (null = +inf, direction flipped);
  // ties break on the remaining columns.
  Check("MATCH (a)-[r:E]->(b) RETURN a, b, r.amt ORDER BY r.amt DESC, a LIMIT 17");
}

TEST_P(AggregateDiffTest, RawProjectionOrderByAscendingNoLimit) {
  Check("MATCH (a)-[r:E]->(b) RETURN b, r.w ORDER BY r.w");
}

TEST_P(AggregateDiffTest, GroupByOrderByLimitTopK) {
  Check("MATCH (a)-[r:E]->(b) RETURN a.grp, COUNT(*) ORDER BY COUNT(*) DESC, a.grp LIMIT 3");
}

TEST_P(AggregateDiffTest, GroupByOrderByAggregateAverage) {
  Check("MATCH (a)-[r:E]->(b) RETURN a.grp, AVG(r.amt) ORDER BY AVG(r.amt), a.grp");
}

TEST_P(AggregateDiffTest, TwoHopGroupedTopK) {
  Check(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) "
      "RETURN b, COUNT(*), MAX(r2.amt) ORDER BY COUNT(*) DESC, b LIMIT 10");
}

TEST_P(AggregateDiffTest, TwoHopCountStarMatchesMatcher) {
  Check("MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN COUNT(*)");
}

TEST_P(AggregateDiffTest, LimitZeroAndOversized) {
  Check("MATCH (a)-[r:E]->(b) RETURN a.grp, COUNT(*) ORDER BY a.grp LIMIT 0");
  Check("MATCH (a)-[r:E]->(b) RETURN a.grp, COUNT(*) ORDER BY a.grp LIMIT 100000");
}

TEST_P(AggregateDiffTest, DistinctMidVertexOneHop) {
  Check("MATCH (a)-[r:E]->(b) RETURN DISTINCT b");
}

TEST_P(AggregateDiffTest, DistinctPropertyWithNulls) {
  // grp has ~17% nulls; DISTINCT must keep exactly one null row.
  Check("MATCH (a)-[r:E]->(b) RETURN DISTINCT a.grp");
}

TEST_P(AggregateDiffTest, DistinctPairOrderByLimit) {
  Check(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) "
      "RETURN DISTINCT a.grp, c.grp ORDER BY a.grp, c.grp LIMIT 12");
}

TEST_P(AggregateDiffTest, GroupByDoubleKey) {
  Check("MATCH (a)-[r:E]->(b) RETURN r.w, COUNT(*), SUM(r.amt)");
}

// LIMIT without ORDER BY over an aggregation: the aggregate emits any
// `n` of its groups. n = 0, 3, exactly the group count, and above it.
TEST_P(AggregateDiffTest, UnorderedGroupByLimit) {
  const std::string text = "MATCH (a)-[r:E]->(b) RETURN a.grp, COUNT(*)";
  const size_t groups = ResultSize(text);
  ASSERT_GT(groups, 3u);
  for (size_t n : {size_t{0}, size_t{3}, groups, groups + 5}) {
    Check(text + " LIMIT " + std::to_string(n));
  }
  const std::string plan = db_->Explain(text + " LIMIT 3");
  EXPECT_NE(plan.find("GROUP AGGREGATE"), std::string::npos) << plan;
  EXPECT_NE(plan.find("LIMIT 3"), std::string::npos) << plan;
}

TEST_P(AggregateDiffTest, UnorderedGlobalAggregateLimit) {
  // One row at any LIMIT above 0, even though the aggregate is global.
  for (int n : {0, 1, 5}) {
    Check("MATCH (a)-[r:E]->(b) RETURN COUNT(*), SUM(r.amt) LIMIT " + std::to_string(n));
  }
}

TEST_P(AggregateDiffTest, UnorderedDistinctLimit) {
  const std::string text = "MATCH (a)-[r:E]->(b) RETURN DISTINCT b";
  const size_t groups = ResultSize(text);
  ASSERT_GT(groups, 3u);
  for (size_t n : {size_t{0}, size_t{3}, groups, groups + 5}) {
    Check(text + " LIMIT " + std::to_string(n));
  }
  const std::string plan = db_->Explain(text + " LIMIT 3");
  EXPECT_NE(plan.find("DISTINCT"), std::string::npos) << plan;
  EXPECT_NE(plan.find("LIMIT 3"), std::string::npos) << plan;
}

// More groups than the aggregate's parallel-merge threshold (1024): at 4
// threads the worker tables fold hash-partitioned, and an unordered LIMIT
// counts its groups across the partitions.
TEST_P(AggregateDiffTest, ManyGroupsPartitionedMerge) {
  const std::string text = "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN a, c, COUNT(*), SUM(r2.amt)";
  const size_t groups = ResultSize(text);
  ASSERT_GT(groups, 1024u);
  Check(text);
  for (size_t n : {size_t{0}, size_t{3}, groups / 2, groups - 1, groups, groups + 5}) {
    Check(text + " LIMIT " + std::to_string(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateDiffTest, ::testing::Values(11u, 37u, 101u));

}  // namespace
}  // namespace aplus
