// Differential tests of the composable sink pipeline (grouped
// aggregation, ORDER BY, LIMIT) against a BaselineMatcher-derived
// oracle: the oracle enumerates raw match rows through an independent
// binary-join backtracking engine, and the reference aggregation / sort
// are re-implemented here from scratch with the documented semantics
// (aggregates skip nulls, nulls group together and order last under
// ASC, ties break by the remaining columns ascending). Every query runs
// at 1 and 4 threads on 3 random power-law seeds, so the parallel
// partial-merge path (per-worker aggregate tables folded at Execute
// end) is covered against the serial path and the oracle.
//
// Double-valued properties are generated dyadic (multiples of 0.25) so
// sums are exact in any accumulation order and results compare exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "baseline/flat_adj_engine.h"
#include "baseline/matcher.h"
#include "core/database.h"
#include "datagen/power_law_generator.h"
#include "row_collector.h"
#include "util/rng.h"

namespace aplus {
namespace {

using Row = std::vector<Value>;

// One RETURN item of the reference evaluator.
struct RefItem {
  AggFn fn = AggFn::kNone;
  bool star = false;
  std::function<Value(const MatchState&)> get;  // unused when star
};

struct RefOrder {
  int item = -1;
  bool desc = false;
};

int CompareValues(const Value& a, const Value& b) { return Value::Compare(a, b); }

// Mirrors the engine's ordering contract: configured keys first
// (DESC flips, nulls = +inf), then every remaining column ascending.
bool RefRowLess(const Row& a, const Row& b, const std::vector<RefOrder>& order) {
  for (const RefOrder& key : order) {
    int cmp = CompareValues(a[key.item], b[key.item]);
    if (key.desc) cmp = -cmp;
    if (cmp != 0) return cmp < 0;
  }
  for (size_t c = 0; c < a.size(); ++c) {
    bool is_key = false;
    for (const RefOrder& key : order) {
      if (key.item == static_cast<int>(c)) {
        is_key = true;
        break;
      }
    }
    if (is_key) continue;
    int cmp = CompareValues(a[c], b[c]);
    if (cmp != 0) return cmp < 0;
  }
  return false;
}

// Reference aggregation over the oracle's raw rows (one cell per
// RefItem, aggregates fed their argument cell).
std::vector<Row> RefAggregate(const std::vector<Row>& raw, const std::vector<RefItem>& items) {
  std::vector<int> key_items;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].fn == AggFn::kNone) key_items.push_back(static_cast<int>(i));
  }
  struct Acc {
    int64_t int_sum = 0;
    double dbl_sum = 0.0;
    int64_t count = 0;
    Value min, max;
  };
  auto key_less = [&](const Row& a, const Row& b) {
    for (int k : key_items) {
      int cmp = CompareValues(a[k], b[k]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  };
  std::map<Row, std::vector<Acc>, decltype(key_less)> groups(key_less);
  for (const Row& row : raw) {
    auto [it, inserted] = groups.try_emplace(row, std::vector<Acc>(items.size()));
    std::vector<Acc>& accs = it->second;
    for (size_t i = 0; i < items.size(); ++i) {
      const RefItem& item = items[i];
      if (item.fn == AggFn::kNone) continue;
      Acc& acc = accs[i];
      if (item.star) {
        acc.count++;
        continue;
      }
      const Value& v = row[i];
      if (v.is_null()) continue;
      acc.count++;
      if (v.type() == ValueType::kDouble) {
        acc.dbl_sum += v.AsDouble();
      } else {
        acc.int_sum += v.AsInt64();
        acc.dbl_sum += static_cast<double>(v.AsInt64());
      }
      if (acc.min.is_null() || CompareValues(v, acc.min) < 0) acc.min = v;
      if (acc.max.is_null() || CompareValues(v, acc.max) > 0) acc.max = v;
    }
  }
  // A global aggregate emits one row even on empty input.
  if (key_items.empty() && groups.empty()) {
    groups.try_emplace(raw.empty() ? Row(items.size()) : raw.front(),
                       std::vector<Acc>(items.size()));
  }
  std::vector<Row> out;
  for (const auto& [key, accs] : groups) {
    Row row;
    for (size_t i = 0; i < items.size(); ++i) {
      const RefItem& item = items[i];
      const Acc& acc = accs[i];
      switch (item.fn) {
        case AggFn::kNone:
          row.push_back(key[i]);
          break;
        case AggFn::kCount:
          row.push_back(Value::Int64(acc.count));
          break;
        case AggFn::kSum:
          if (acc.count == 0) {
            row.push_back(Value::Null());
          } else if (!acc.min.is_null() && acc.min.type() == ValueType::kDouble) {
            row.push_back(Value::Double(acc.dbl_sum));
          } else {
            row.push_back(Value::Int64(acc.int_sum));
          }
          break;
        case AggFn::kMin:
          row.push_back(acc.min);
          break;
        case AggFn::kMax:
          row.push_back(acc.max);
          break;
        case AggFn::kAvg:
          row.push_back(acc.count == 0
                            ? Value::Null()
                            : Value::Double(acc.dbl_sum / static_cast<double>(acc.count)));
          break;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_null() != b[i].is_null()) return false;
    if (!a[i].is_null() && CompareValues(a[i], b[i]) != 0) return false;
  }
  return true;
}

class AggregateDiffTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  AggregateDiffTest() {
    Graph graph;
    PowerLawParams params;
    params.num_vertices = 350;
    params.avg_degree = 4.0;
    params.seed = GetParam();
    GeneratePowerLawGraph(params, &graph);
    amt_key_ = graph.AddEdgeProperty("amt", ValueType::kInt64);
    w_key_ = graph.AddEdgeProperty("w", ValueType::kDouble);
    grp_key_ = graph.AddVertexProperty("grp", ValueType::kInt64);
    tag_key_ = graph.AddVertexProperty("tag", ValueType::kString);
    Rng rng(GetParam() * 7 + 3);
    PropertyColumn* amt = graph.edge_props().mutable_column(amt_key_);
    PropertyColumn* w = graph.edge_props().mutable_column(w_key_);
    for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
      if (rng.NextBounded(8) == 0) {
        amt->SetNull(e);  // ~12% nulls exercise the skip-null paths
      } else {
        amt->SetInt64(e, static_cast<int64_t>(rng.NextBounded(500)));
      }
      // Dyadic doubles: order-independent exact sums.
      w->SetDouble(e, static_cast<double>(rng.NextBounded(4000)) * 0.25);
    }
    PropertyColumn* grp = graph.vertex_props().mutable_column(grp_key_);
    PropertyColumn* tag = graph.vertex_props().mutable_column(tag_key_);
    for (vertex_id_t v = 0; v < graph.num_vertices(); ++v) {
      if (rng.NextBounded(6) == 0) {
        grp->SetNull(v);  // null group keys form their own group
      } else {
        grp->SetInt64(v, static_cast<int64_t>(rng.NextBounded(7)));
      }
      tag->SetString(v, "t" + std::to_string(rng.NextBounded(5)));
    }
    db_ = std::make_unique<Database>(std::move(graph));
    db_->BuildPrimaryIndexes();
    elabel_ = db_->graph().catalog().FindEdgeLabel("E");
    engine_ = std::make_unique<FlatAdjEngine>(&db_->graph());
  }

  QueryGraph OneHop() const {
    QueryGraph q;
    int a = q.AddVertex("a");
    int b = q.AddVertex("b");
    q.AddEdge(a, b, elabel_, "r");
    return q;
  }

  QueryGraph TwoHop() const {
    QueryGraph q;
    int a = q.AddVertex("a");
    int b = q.AddVertex("b");
    int c = q.AddVertex("c");
    q.AddEdge(a, b, elabel_, "r1");
    q.AddEdge(b, c, elabel_, "r2");
    return q;
  }

  // Raw oracle rows: one cell per RefItem (aggregate items carry their
  // argument's value; COUNT(*) cells stay null).
  std::vector<Row> OracleRows(const QueryGraph& q, const std::vector<RefItem>& items) const {
    std::vector<Row> rows;
    QueryGraph pattern = q;  // matcher mutates nothing, but keep a copy for clarity
    BaselineMatcher<FlatAdjEngine> matcher(engine_.get(), &db_->graph(), &pattern);
    matcher.Enumerate([&](const MatchState& m) {
      Row row;
      for (const RefItem& item : items) {
        row.push_back(item.star ? Value::Null() : item.get(m));
      }
      rows.push_back(std::move(row));
    });
    return rows;
  }

  // The reference result before ORDER BY and LIMIT: aggregated if any
  // item aggregates, deduplicated under DISTINCT.
  std::vector<Row> ReferenceRows(const QueryGraph& q, const std::vector<RefItem>& items,
                                 bool distinct = false) const {
    std::vector<Row> rows = OracleRows(q, items);
    bool has_agg = false;
    for (const RefItem& item : items) has_agg |= item.fn != AggFn::kNone;
    if (has_agg) rows = RefAggregate(rows, items);
    if (distinct) {
      // Reference dedup: canonical sort, then drop equal neighbours.
      std::sort(rows.begin(), rows.end(),
                [&](const Row& a, const Row& b) { return RefRowLess(a, b, {}); });
      rows.erase(std::unique(rows.begin(), rows.end(), RowsEqual), rows.end());
    }
    return rows;
  }

  // Runs `text` through the serving path at 1 and 4 threads and checks
  // the rows against the reference pipeline (aggregate if any item
  // aggregates, order, limit).
  void CheckQuery(const std::string& text, const QueryGraph& oracle_query,
                  const std::vector<RefItem>& items, const std::vector<RefOrder>& order,
                  int64_t limit = -1, bool distinct = false) {
    std::vector<Row> want = ReferenceRows(oracle_query, items, distinct);
    std::sort(want.begin(), want.end(),
              [&](const Row& a, const Row& b) { return RefRowLess(a, b, order); });
    // An unordered LIMIT may return any `limit` rows of the full result:
    // keep `want` whole and check the rows as a subset of it.
    const bool any_subset = order.empty() && limit >= 0;
    if (!any_subset && limit >= 0 && static_cast<size_t>(limit) < want.size()) {
      want.resize(static_cast<size_t>(limit));
    }

    Session session(db_.get());
    PreparedQuery* prepared = session.Prepare(text);
    ASSERT_TRUE(prepared->ok()) << text << ": " << prepared->error();
    for (int threads : {1, 4}) {
      RowCollector rc;
      QueryOutcome out = prepared->Execute(&rc, threads);
      ASSERT_TRUE(out.ok()) << text << ": " << out.error;
      EXPECT_EQ(out.rows, rc.rows.size()) << text;
      std::vector<Row> got = std::move(rc.rows);
      if (order.empty()) {
        // Unordered queries: compare as canonically sorted multisets.
        auto canon = [&](const Row& a, const Row& b) { return RefRowLess(a, b, {}); };
        std::sort(got.begin(), got.end(), canon);
        std::sort(want.begin(), want.end(), canon);
      }
      if (any_subset) {
        CheckSubset(got, want, static_cast<size_t>(limit), text, threads);
        continue;
      }
      ASSERT_EQ(got.size(), want.size()) << text << " threads=" << threads;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(RowsEqual(got[i], want[i]))
            << text << " threads=" << threads << " row " << i << ": got "
            << RowToString(got[i]) << ", want " << RowToString(want[i]);
      }
    }
  }

  // Subset check of an unordered LIMIT: min(limit, |want|) rows, no row
  // twice, every row in the full result. Both sides arrive canonically
  // sorted, and the rows of `want` are distinct (groups or DISTINCT).
  static void CheckSubset(const std::vector<Row>& got, const std::vector<Row>& want,
                          size_t limit, const std::string& text, int threads) {
    auto canon = [](const Row& a, const Row& b) { return RefRowLess(a, b, {}); };
    ASSERT_EQ(got.size(), std::min(limit, want.size())) << text << " threads=" << threads;
    for (size_t i = 0; i < got.size(); ++i) {
      if (i > 0) {
        EXPECT_FALSE(RowsEqual(got[i - 1], got[i]))
            << text << " threads=" << threads << " duplicate row " << RowToString(got[i]);
      }
      auto it = std::lower_bound(want.begin(), want.end(), got[i], canon);
      EXPECT_TRUE(it != want.end() && RowsEqual(*it, got[i]))
          << text << " threads=" << threads << " row " << RowToString(got[i])
          << " is not in the full result";
    }
  }

  // Cell extractors over the oracle's MatchState.
  RefItem VertexId(int var) const {
    return {AggFn::kNone, false,
            [var](const MatchState& m) { return Value::Int64(m.v[var]); }};
  }
  RefItem VertexProp(int var, prop_key_t key, AggFn fn = AggFn::kNone) const {
    const PropertyColumn* col = db_->graph().vertex_props().column(key);
    return {fn, false, [col, var](const MatchState& m) { return col->Get(m.v[var]); }};
  }
  RefItem EdgeProp(int edge, prop_key_t key, AggFn fn = AggFn::kNone) const {
    const PropertyColumn* col = db_->graph().edge_props().column(key);
    return {fn, false, [col, edge](const MatchState& m) { return col->Get(m.e[edge]); }};
  }
  RefItem CountStar() const { return {AggFn::kCount, true, nullptr}; }
  RefItem Agg(RefItem base, AggFn fn) const {
    base.fn = fn;
    return base;
  }

  prop_key_t amt_key_ = kInvalidPropKey;
  prop_key_t w_key_ = kInvalidPropKey;
  prop_key_t grp_key_ = kInvalidPropKey;
  prop_key_t tag_key_ = kInvalidPropKey;
  label_t elabel_ = kInvalidLabel;
  std::unique_ptr<Database> db_;
  std::unique_ptr<FlatAdjEngine> engine_;
};

TEST_P(AggregateDiffTest, GlobalAggregatesEveryFunction) {
  CheckQuery(
      "MATCH (a)-[r:E]->(b) "
      "RETURN COUNT(*), COUNT(r.amt), SUM(r.amt), MIN(r.amt), MAX(r.amt), AVG(r.amt)",
      OneHop(),
      {CountStar(), EdgeProp(0, amt_key_, AggFn::kCount), EdgeProp(0, amt_key_, AggFn::kSum),
       EdgeProp(0, amt_key_, AggFn::kMin), EdgeProp(0, amt_key_, AggFn::kMax),
       EdgeProp(0, amt_key_, AggFn::kAvg)},
      {});
}

TEST_P(AggregateDiffTest, GlobalDoubleAggregates) {
  CheckQuery("MATCH (a)-[r:E]->(b) RETURN SUM(r.w), MIN(r.w), MAX(r.w), AVG(r.w)", OneHop(),
             {EdgeProp(0, w_key_, AggFn::kSum), EdgeProp(0, w_key_, AggFn::kMin),
              EdgeProp(0, w_key_, AggFn::kMax), EdgeProp(0, w_key_, AggFn::kAvg)},
             {});
}

TEST_P(AggregateDiffTest, GroupByIntKeyWithNulls) {
  CheckQuery(
      "MATCH (a)-[r:E]->(b) RETURN a.grp, COUNT(*), SUM(r.amt), AVG(r.w)", OneHop(),
      {VertexProp(0, grp_key_), CountStar(), EdgeProp(0, amt_key_, AggFn::kSum),
       EdgeProp(0, w_key_, AggFn::kAvg)},
      {});
}

TEST_P(AggregateDiffTest, GroupByStringKey) {
  CheckQuery("MATCH (a)-[r:E]->(b) RETURN b.tag, COUNT(*), MIN(r.amt), MAX(r.w)", OneHop(),
             {VertexProp(1, tag_key_), CountStar(), EdgeProp(0, amt_key_, AggFn::kMin),
              EdgeProp(0, w_key_, AggFn::kMax)},
             {});
}

TEST_P(AggregateDiffTest, GroupByTwoKeys) {
  CheckQuery("MATCH (a)-[r:E]->(b) RETURN a.grp, b.tag, COUNT(r.amt)", OneHop(),
             {VertexProp(0, grp_key_), VertexProp(1, tag_key_),
              EdgeProp(0, amt_key_, AggFn::kCount)},
             {});
}

TEST_P(AggregateDiffTest, RawProjectionOrderByLimit) {
  // Nulls in the DESC key order first (null = +inf, direction flipped);
  // ties break on the remaining columns.
  CheckQuery("MATCH (a)-[r:E]->(b) RETURN a, b, r.amt ORDER BY r.amt DESC, a LIMIT 17",
             OneHop(), {VertexId(0), VertexId(1), EdgeProp(0, amt_key_)},
             {{2, true}, {0, false}}, 17);
}

TEST_P(AggregateDiffTest, RawProjectionOrderByAscendingNoLimit) {
  CheckQuery("MATCH (a)-[r:E]->(b) RETURN b, r.w ORDER BY r.w", OneHop(),
             {VertexId(1), EdgeProp(0, w_key_)}, {{1, false}});
}

TEST_P(AggregateDiffTest, GroupByOrderByLimitTopK) {
  CheckQuery(
      "MATCH (a)-[r:E]->(b) RETURN a.grp, COUNT(*) ORDER BY COUNT(*) DESC, a.grp LIMIT 3",
      OneHop(), {VertexProp(0, grp_key_), CountStar()}, {{1, true}, {0, false}}, 3);
}

TEST_P(AggregateDiffTest, GroupByOrderByAggregateAverage) {
  CheckQuery("MATCH (a)-[r:E]->(b) RETURN a.grp, AVG(r.amt) ORDER BY AVG(r.amt), a.grp",
             OneHop(), {VertexProp(0, grp_key_), EdgeProp(0, amt_key_, AggFn::kAvg)},
             {{1, false}, {0, false}});
}

TEST_P(AggregateDiffTest, TwoHopGroupedTopK) {
  CheckQuery(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) "
      "RETURN b, COUNT(*), MAX(r2.amt) ORDER BY COUNT(*) DESC, b LIMIT 10",
      TwoHop(), {VertexId(1), CountStar(), EdgeProp(1, amt_key_, AggFn::kMax)},
      {{1, true}, {0, false}}, 10);
}

TEST_P(AggregateDiffTest, TwoHopCountStarMatchesMatcher) {
  CheckQuery("MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN COUNT(*)", TwoHop(), {CountStar()},
             {});
}

TEST_P(AggregateDiffTest, LimitZeroAndOversized) {
  CheckQuery("MATCH (a)-[r:E]->(b) RETURN a.grp, COUNT(*) ORDER BY a.grp LIMIT 0", OneHop(),
             {VertexProp(0, grp_key_), CountStar()}, {{0, false}}, 0);
  CheckQuery("MATCH (a)-[r:E]->(b) RETURN a.grp, COUNT(*) ORDER BY a.grp LIMIT 100000",
             OneHop(), {VertexProp(0, grp_key_), CountStar()}, {{0, false}}, 100000);
}

TEST_P(AggregateDiffTest, DistinctMidVertexOneHop) {
  CheckQuery("MATCH (a)-[r:E]->(b) RETURN DISTINCT b", OneHop(), {VertexId(1)}, {},
             /*limit=*/-1, /*distinct=*/true);
}

TEST_P(AggregateDiffTest, DistinctPropertyWithNulls) {
  // grp has ~17% nulls; DISTINCT must keep exactly one null row.
  CheckQuery("MATCH (a)-[r:E]->(b) RETURN DISTINCT a.grp", OneHop(),
             {VertexProp(0, grp_key_)}, {}, /*limit=*/-1, /*distinct=*/true);
}

TEST_P(AggregateDiffTest, DistinctPairOrderByLimit) {
  CheckQuery(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) "
      "RETURN DISTINCT a.grp, c.grp ORDER BY a.grp, c.grp LIMIT 12",
      TwoHop(), {VertexProp(0, grp_key_), VertexProp(2, grp_key_)},
      {{0, false}, {1, false}}, 12, /*distinct=*/true);
}

TEST_P(AggregateDiffTest, GroupByDoubleKey) {
  CheckQuery("MATCH (a)-[r:E]->(b) RETURN r.w, COUNT(*), SUM(r.amt)", OneHop(),
             {EdgeProp(0, w_key_), CountStar(), EdgeProp(0, amt_key_, AggFn::kSum)}, {});
}

// LIMIT without ORDER BY over an aggregation: the aggregate emits any
// `n` of its groups. n = 0, 3, exactly the group count, and above it.
TEST_P(AggregateDiffTest, UnorderedGroupByLimit) {
  const std::vector<RefItem> items = {VertexProp(0, grp_key_), CountStar()};
  const size_t groups = ReferenceRows(OneHop(), items).size();
  ASSERT_GT(groups, 3u);
  for (size_t n : {size_t{0}, size_t{3}, groups, groups + 5}) {
    const std::string text =
        "MATCH (a)-[r:E]->(b) RETURN a.grp, COUNT(*) LIMIT " + std::to_string(n);
    CheckQuery(text, OneHop(), items, {}, static_cast<int64_t>(n));
  }
  const std::string plan = db_->Explain("MATCH (a)-[r:E]->(b) RETURN a.grp, COUNT(*) LIMIT 3");
  EXPECT_NE(plan.find("GROUP AGGREGATE"), std::string::npos) << plan;
  EXPECT_NE(plan.find("LIMIT 3"), std::string::npos) << plan;
}

TEST_P(AggregateDiffTest, UnorderedGlobalAggregateLimit) {
  // One row at any LIMIT above 0, even though the aggregate is global.
  const std::vector<RefItem> items = {CountStar(), EdgeProp(0, amt_key_, AggFn::kSum)};
  for (int64_t n : {0, 1, 5}) {
    CheckQuery("MATCH (a)-[r:E]->(b) RETURN COUNT(*), SUM(r.amt) LIMIT " + std::to_string(n),
               OneHop(), items, {}, n);
  }
}

TEST_P(AggregateDiffTest, UnorderedDistinctLimit) {
  const std::vector<RefItem> items = {VertexId(1)};
  const size_t groups = ReferenceRows(OneHop(), items, /*distinct=*/true).size();
  ASSERT_GT(groups, 3u);
  for (size_t n : {size_t{0}, size_t{3}, groups, groups + 5}) {
    CheckQuery("MATCH (a)-[r:E]->(b) RETURN DISTINCT b LIMIT " + std::to_string(n), OneHop(),
               items, {}, static_cast<int64_t>(n), /*distinct=*/true);
  }
  const std::string plan = db_->Explain("MATCH (a)-[r:E]->(b) RETURN DISTINCT b LIMIT 3");
  EXPECT_NE(plan.find("DISTINCT"), std::string::npos) << plan;
  EXPECT_NE(plan.find("LIMIT 3"), std::string::npos) << plan;
}

// More groups than the aggregate's parallel-merge threshold (1024): at 4
// threads the worker tables fold hash-partitioned, and an unordered LIMIT
// counts its groups across the partitions.
TEST_P(AggregateDiffTest, ManyGroupsPartitionedMerge) {
  const std::vector<RefItem> items = {VertexId(0), VertexId(2), CountStar(),
                                      EdgeProp(1, amt_key_, AggFn::kSum)};
  const std::string text = "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN a, c, COUNT(*), SUM(r2.amt)";
  const size_t groups = ReferenceRows(TwoHop(), items).size();
  ASSERT_GT(groups, 1024u);
  CheckQuery(text, TwoHop(), items, {});
  for (size_t n : {size_t{0}, size_t{3}, groups / 2, groups - 1, groups, groups + 5}) {
    CheckQuery(text + " LIMIT " + std::to_string(n), TwoHop(), items, {},
               static_cast<int64_t>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateDiffTest, ::testing::Values(11u, 37u, 101u));

}  // namespace
}  // namespace aplus
