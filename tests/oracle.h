#ifndef APLUS_TESTS_ORACLE_H_
#define APLUS_TESTS_ORACLE_H_

// The one brute-force oracle of the differential suites. A case states
// its query once, as Cypher text:
//
//   Oracle(graph, text, params) / OracleRows(...) evaluate it without
//     the planner, operators or sink stages: ParseCypher (pinned by
//     tests/data/parse_golden.txt), the $param values written into the
//     parsed pattern, every match enumerated by
//     BaselineMatcher<FlatAdjEngine> (residuals through
//     EvalQueryComparison, which the engine shares), then the result
//     semantics of query/cypher_parser.h: projection; implicit GROUP BY
//     with COUNT(*) / COUNT / SUM / MIN / MAX / AVG skipping nulls;
//     DISTINCT; ORDER BY with nulls last and ties broken on the
//     remaining columns; LIMIT.
//   ExpectMatchesOracle(db, text, params) runs the text through
//     Database::Prepare + Bind + Execute at 1 and 4 threads and compares
//     rows in order under ORDER BY, as a multiset otherwise, and an
//     unordered LIMIT as any min(limit, n) rows of the full result.
//   ShapedDatabase builds the database in one storage shape.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/flat_adj_engine.h"
#include "baseline/matcher.h"
#include "core/database.h"
#include "query/cypher_parser.h"
#include "row_collector.h"

namespace aplus {

using Row = std::vector<Value>;
using OracleParams = std::map<std::string, Value>;

// Nulls order after every value; numbers compare by value across int64,
// double and category; strings order after numbers.
inline int CompareCells(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null() ? 0 : (a.is_null() ? 1 : -1);
  const bool a_str = a.type() == ValueType::kString;
  const bool b_str = b.type() == ValueType::kString;
  if (a_str != b_str) return a_str ? 1 : -1;
  return Value::Compare(a, b);
}

// Every column ascending: the canonical order of an unordered result.
inline bool CanonicalLess(const Row& a, const Row& b) {
  for (size_t c = 0; c < a.size() && c < b.size(); ++c) {
    const int cmp = CompareCells(a[c], b[c]);
    if (cmp != 0) return cmp < 0;
  }
  return a.size() < b.size();
}

inline bool RowsEqual(const Row& a, const Row& b) {
  return !CanonicalLess(a, b) && !CanonicalLess(b, a);
}

inline std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) out += (i > 0 ? ", " : "") + row[i].ToString();
  return out + ")";
}

inline std::string ParamsToString(const OracleParams& params) {
  std::string out;
  for (const auto& [name, value] : params) out += " $" + name + "=" + value.ToString();
  return out;
}

// Parses `text` and writes `params` into its pattern: a `<var>.ID = $p`
// pin becomes the vertex's binding, any other `$p` the comparison's
// constant (an int64 widened for a double property, a category given by
// name or code). A missing value is a parse error.
inline ParsedCypher OracleParse(const Graph& graph, const std::string& text,
                                const OracleParams& params = {}) {
  ParsedCypher parsed = ParseCypher(text, graph.catalog());
  std::vector<Value> values;
  for (const CypherParam& param : parsed.params) {
    auto it = params.find(param.name);
    if (it == params.end()) {
      parsed.error = "no value for $" + param.name;
      break;
    }
    Value value = it->second;
    if (param.expected == ValueType::kDouble && value.type() == ValueType::kInt64) {
      value = Value::Double(static_cast<double>(value.AsInt64()));
    } else if (param.expected == ValueType::kCategory) {
      value = Value::Category(value.type() == ValueType::kString
                                  ? graph.catalog().FindCategoryValue(param.key, value.AsString())
                                  : value.AsInt64());
    }
    values.push_back(std::move(value));
  }
  if (!parsed.ok()) return parsed;
  const QueryGraph& in = parsed.query;
  QueryGraph query;
  for (int v = 0; v < in.num_vertices(); ++v) {
    const QueryVertex& qv = in.vertex(v);
    query.AddVertex(qv.name, qv.label,
                    qv.bound_param >= 0 ? static_cast<vertex_id_t>(values[qv.bound_param].AsInt64())
                                        : qv.bound);
  }
  for (int e = 0; e < in.num_edges(); ++e) {
    const QueryEdge& qe = in.edge(e);
    query.AddEdge(qe.from, qe.to, qe.label, qe.named ? qe.name : std::string());
  }
  for (QueryComparison cmp : in.predicates()) {
    if (cmp.rhs_param >= 0) cmp.rhs_const = values[cmp.rhs_param];
    cmp.rhs_param = -1;
    query.AddPredicate(std::move(cmp));
  }
  parsed.query = std::move(query);
  return parsed;
}

// The oracle's answer to one text.
struct OracleResult {
  std::vector<Row> rows;   // the whole result in result order, before LIMIT
  uint64_t count = 0;      // the match count an execution reports
  bool ordered = false;    // ORDER BY fixes the row order
  bool has_limit = false;  // unordered: any min(limit, rows) rows may come back
  uint64_t limit = 0;

  // The rows a LIMIT keeps; for an unordered LIMIT, the canonically first.
  std::vector<Row> Limited() const {
    std::vector<Row> out = rows;
    if (has_limit && limit < out.size()) out.resize(limit);
    return out;
  }
};

// Evaluates `text` with `params` over `graph`, as the header comment
// describes; a parse error is a test failure and an empty result.
inline OracleResult Oracle(const Graph& graph, const std::string& text,
                           const OracleParams& params = {}) {
  const ParsedCypher parsed = OracleParse(graph, text, params);
  EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.error;
  if (!parsed.ok()) return {};
  const std::vector<ReturnItem>& items = parsed.returns;
  // Projection: one cell per RETURN item (COUNT(*) cells stay null).
  std::vector<Row> rows;
  FlatAdjEngine engine(&graph);
  BaselineMatcher<FlatAdjEngine> matcher(&engine, &graph, &parsed.query);
  const uint64_t matches = matcher.Enumerate([&](const MatchState& m) {
    if (items.empty()) return;
    Row row;
    for (const ReturnItem& item : items) {
      const QueryPropRef& ref = item.ref;
      if (item.star) {
        row.push_back(Value::Null());
        continue;
      }
      const uint64_t id = ref.is_edge ? m.e[ref.var] : m.v[ref.var];
      row.push_back(ref.is_id     ? Value::Int64(static_cast<int64_t>(id))
                    : ref.is_edge ? graph.edge_props().Get(ref.key, id)
                                  : graph.vertex_props().Get(ref.key, id));
    }
    rows.push_back(std::move(row));
  });

  if (parsed.has_aggregate) {
    // Implicit GROUP BY on the plain items; aggregates skip null cells.
    struct Acc {
      int64_t count = 0, int_sum = 0;
      double dbl_sum = 0.0;
      bool saw_double = false;
      Value min, max;
    };
    auto key_less = [&items](const Row& a, const Row& b) {
      for (size_t i = 0; i < items.size(); ++i) {
        const int cmp = items[i].agg == AggFn::kNone ? CompareCells(a[i], b[i]) : 0;
        if (cmp != 0) return cmp < 0;
      }
      return false;
    };
    std::map<Row, std::vector<Acc>, decltype(key_less)> groups(key_less);
    bool global = true;  // a global aggregate has one row, even over no match
    for (const ReturnItem& item : items) global &= item.agg != AggFn::kNone;
    if (global) groups.try_emplace(Row(items.size()), items.size());
    for (const Row& row : rows) {
      std::vector<Acc>& accs = groups.try_emplace(row, items.size()).first->second;
      for (size_t i = 0; i < items.size(); ++i) {
        const Value& v = row[i];
        Acc& acc = accs[i];
        if (items[i].agg == AggFn::kNone || (v.is_null() && !items[i].star)) continue;
        acc.count++;
        if (items[i].agg == AggFn::kCount) continue;
        acc.saw_double |= v.type() == ValueType::kDouble;
        acc.dbl_sum += v.AsDouble();
        if (v.type() != ValueType::kDouble) acc.int_sum += v.AsInt64();
        if (acc.min.is_null() || CompareCells(v, acc.min) < 0) acc.min = v;
        if (acc.max.is_null() || CompareCells(v, acc.max) > 0) acc.max = v;
      }
    }
    rows.clear();
    for (const auto& [key, accs] : groups) {
      Row row;
      for (size_t i = 0; i < items.size(); ++i) {
        const Acc& acc = accs[i];
        const AggFn fn = items[i].agg;
        if (fn == AggFn::kNone) {
          row.push_back(key[i]);
        } else if (fn == AggFn::kCount) {
          row.push_back(Value::Int64(acc.count));
        } else if (acc.count == 0) {
          row.push_back(Value::Null());
        } else if (fn == AggFn::kSum) {
          row.push_back(acc.saw_double ? Value::Double(acc.dbl_sum) : Value::Int64(acc.int_sum));
        } else if (fn == AggFn::kAvg) {
          row.push_back(Value::Double(acc.dbl_sum / static_cast<double>(acc.count)));
        } else {
          row.push_back(fn == AggFn::kMin ? acc.min : acc.max);
        }
      }
      rows.push_back(std::move(row));
    }
  }

  std::sort(rows.begin(), rows.end(), CanonicalLess);
  if (parsed.distinct) rows.erase(std::unique(rows.begin(), rows.end(), RowsEqual), rows.end());
  if (!parsed.order_by.empty()) {
    // The ORDER BY keys, then every remaining column ascending.
    std::vector<bool> is_key(items.size(), false);
    for (const OrderByItem& key : parsed.order_by) is_key[key.item] = true;
    std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
      for (const OrderByItem& key : parsed.order_by) {
        const int cmp = CompareCells(a[key.item], b[key.item]);
        if (cmp != 0) return key.desc ? cmp > 0 : cmp < 0;
      }
      for (size_t c = 0; c < a.size(); ++c) {
        const int cmp = is_key[c] ? 0 : CompareCells(a[c], b[c]);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    });
  }
  // A LIMIT that no aggregate, DISTINCT or ORDER BY holds back stops the
  // enumeration: the execution counts min(limit, matches).
  const bool budgeted =
      parsed.has_limit && !parsed.has_aggregate && !parsed.distinct && parsed.order_by.empty();
  return {std::move(rows), budgeted ? std::min(parsed.limit, matches) : matches,
          !parsed.order_by.empty(), parsed.has_limit, parsed.limit};
}

// The oracle's rows for `text` in result order, LIMIT applied (for an
// unordered LIMIT: the canonically first rows of the full result).
inline std::vector<Row> OracleRows(const Graph& graph, const std::string& text,
                                   const OracleParams& params = {}) {
  return Oracle(graph, text, params).Limited();
}

// Checks one execution's rows against the oracle's.
inline void ExpectRowsMatch(std::vector<Row> got, const OracleResult& want) {
  const std::vector<Row> expected = want.Limited();
  ASSERT_EQ(got.size(), expected.size());
  if (!want.ordered) std::sort(got.begin(), got.end(), CanonicalLess);
  if (!want.ordered && want.has_limit) {
    EXPECT_TRUE(std::includes(want.rows.begin(), want.rows.end(), got.begin(), got.end(),
                              CanonicalLess))
        << "an unordered LIMIT returned rows that are not in the full result";
    return;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(RowsEqual(got[i], expected[i]))
        << (want.ordered ? "row " : "sorted row ") << i << ": got " << RowToString(got[i])
        << ", want " << RowToString(expected[i]);
  }
}

// Runs `text` with `params` bound through `prepared` (a fresh
// Database::Prepare when null) at 1 and 4 threads and checks every
// execution against `want`: its rows, its row count and its match count.
inline void ExpectExecutionsMatch(Database* db, const std::string& text,
                                  const OracleParams& params, const OracleResult& want,
                                  PreparedQuery* prepared = nullptr) {
  SCOPED_TRACE(text + ParamsToString(params));
  std::unique_ptr<PreparedQuery> owned;
  if (prepared == nullptr) {
    owned = db->Prepare(text);
    prepared = owned.get();
  }
  ASSERT_TRUE(prepared->ok()) << prepared->error();
  for (const auto& [name, value] : params) {
    ASSERT_TRUE(prepared->Bind(name, value)) << prepared->bind_error();
  }
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RowCollector rc;
    const QueryOutcome out = prepared->Execute(&rc, threads);
    EXPECT_TRUE(out.ok()) << out.error;
    EXPECT_EQ(out.count, want.count);
    EXPECT_EQ(out.rows, rc.rows.size());
    ExpectRowsMatch(std::move(rc.rows), want);
  }
}

// The one check: `text` against the oracle over `db`'s graph, as
// ExpectExecutionsMatch runs it. Returns the oracle's rows, LIMIT applied.
inline std::vector<Row> ExpectMatchesOracle(Database* db, const std::string& text,
                                            const OracleParams& params = {},
                                            PreparedQuery* prepared = nullptr) {
  const OracleResult want = Oracle(db->graph(), text, params);
  ExpectExecutionsMatch(db, text, params, want, prepared);
  return want.Limited();
}

// The storage shapes a differential case runs on.
enum class DbShape { kInMemory, kDelta, kSealedRaw, kSealedPacked };

inline const char* ToString(DbShape shape) {
  static const char* const kNames[] = {"InMemory", "Delta", "SealedRaw", "SealedPacked"};
  return kNames[static_cast<int>(shape)];
}

struct EdgeInsert {
  vertex_id_t src;
  vertex_id_t dst;
  label_t label;
};

// One edge of `label` per half page of sources, src -> (7 src + 3) mod
// n: few enough that inline merges leave each in its page's delta.
inline std::vector<EdgeInsert> HalfPageInserts(uint64_t num_vertices, label_t label) {
  std::vector<EdgeInsert> inserts;
  for (uint64_t src = 0; src < num_vertices; src += kGroupSize / 2) {
    inserts.push_back({static_cast<vertex_id_t>(src),
                       static_cast<vertex_id_t>((src * 7 + 3) % num_vertices), label});
  }
  return inserts;
}

// A database over one graph in one shape. Open builds the primary
// indexes and runs each DDL text in order (RECONFIGURE PRIMARY INDEXES,
// CREATE ... VIEW); then the delta shape inserts `delta` under
// concurrent ingest with the background merger off, so the edges stay
// pending in the pages' deltas, and the sealed shapes seal to a raw or
// packed segment and reopen it. Secondary indexes are neither sealed nor
// maintained under ingest: view DDL belongs to the in-memory shape. A
// failure is a fatal test failure.
class ShapedDatabase {
 public:
  ShapedDatabase() = default;
  ShapedDatabase(const ShapedDatabase&) = delete;
  ShapedDatabase& operator=(const ShapedDatabase&) = delete;
  ~ShapedDatabase() { Close(); }

  void Open(Graph graph, DbShape shape, const std::vector<std::string>& ddl = {},
            const std::vector<EdgeInsert>& delta = {}) {
    Close();
    EngineConfig config = EngineConfig::FromEnv();
    config.segment_compress =
        shape == DbShape::kSealedPacked ? CompressMode::kOn : CompressMode::kOff;
    db_ = std::make_unique<Database>(std::move(graph), config);
    db_->BuildPrimaryIndexes();
    for (const std::string& command : ddl) {
      const DdlResult result = db_->ExecuteDdl(command);
      ASSERT_TRUE(result.ok) << command << ": " << result.message;
    }
    if (shape == DbShape::kSealedRaw || shape == DbShape::kSealedPacked) {
      static int opened = 0;  // one file per sealed database open at once
      path_ = testing::TempDir() + "/aplus_oracle_" + std::to_string(getpid()) + "_" +
              std::to_string(++opened) + ".seg";
      std::string error;
      ASSERT_TRUE(db_->SealToSegment(path_, &error)) << error;
      db_ = Database::OpenFromSegment(path_, &error, config);
      ASSERT_NE(db_, nullptr) << error;
    } else if (shape == DbShape::kDelta) {
      ConcurrentIngestOptions options;
      options.max_vertices = db_->graph().num_vertices();
      options.max_edges = db_->graph().num_edges() + delta.size();
      options.background_merge = false;
      db_->BeginConcurrentIngest(options);
      for (const EdgeInsert& edge : delta) {
        db_->maintainer().OnEdgeInserted(db_->graph().AddEdge(edge.src, edge.dst, edge.label));
      }
      ASSERT_TRUE(db_->index_store().HasPendingUpdates());
    }
  }

  void Close() {
    if (db_ != nullptr && db_->concurrent_ingest_active()) db_->EndConcurrentIngest();
    db_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
    path_.clear();
  }

  Database* get() const { return db_.get(); }
  Database* operator->() const { return db_.get(); }

 private:
  std::unique_ptr<Database> db_;
  std::string path_;
};

}  // namespace aplus

#endif  // APLUS_TESTS_ORACLE_H_
