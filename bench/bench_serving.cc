// Serving-layer benchmark: prepared-query throughput vs per-request
// parse+optimize+run and projected-row streaming rates at 1/4 threads,
// on a power-law triangle workload.
//
//   * "adhoc" / "prepared": per-request single-source triangle counting
//     (`a.ID = $src`). The ad-hoc arm rebuilds the query text and goes
//     through Database::ExecuteCypher (parse + optimize + execute) every
//     request; the prepared arm binds + executes one cached plan. The
//     headline metric is the per-request speedup (target: >= 5x).
//   * "rows_t1" / "rows_t4": full 2-hop projection streamed through a
//     RowConsumer, serial vs 4 workers, reported as rows/s.
//   * "agg_adhoc" / "agg_prepared": per-request grouped top-k
//     recommendation (GROUP BY + ORDER BY COUNT DESC + LIMIT through the
//     sink-stage pipeline); same >= 5x prepared-speedup target.
//   * "agg_rollup_t<k>": whole-graph grouped rollup
//     (b, COUNT(*), SUM(r.amt)) at 1/4 workers — the parallel
//     partial-aggregate merge path.
//   * "orderby_topk_t<k>": whole-graph top-100 by edge amount at 1/4
//     workers (sort-stage partial_sort path).
//
// Env knobs: APLUS_SCALE (graph size), APLUS_SERVING_REQS (requests per
// throughput arm), APLUS_SERVING_REPS (timed repetitions, best-of),
// APLUS_BENCH_JSON (per-case metrics for scripts/bench_compare.py).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/database.h"
#include "datagen/power_law_generator.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace aplus;  // NOLINT: bench brevity

namespace {

struct CaseResult {
  std::string name;
  double seconds = 0.0;
  uint64_t rows = 0;
  int threads = 0;  // 0 = not thread-keyed
  double per_request = 0.0;
};

struct NullConsumer : RowConsumer {
  std::atomic<uint64_t> rows{0};
  void OnBatch(const RowBatch& batch) override {
    rows.fetch_add(batch.num_rows(), std::memory_order_relaxed);
  }
};

constexpr const char* kTriangleCount =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) "
    "WHERE a.ID = $src RETURN COUNT(*)";

constexpr const char* kTwoHopRows =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN a, b, c";

}  // namespace

int main() {
  double scale = ScaleFromEnv(0.02);
  uint64_t requests = IntFromEnv("APLUS_SERVING_REQS", 2000);
  int reps = static_cast<int>(IntFromEnv("APLUS_SERVING_REPS", 3));
  unsigned cores = std::thread::hardware_concurrency();

  Graph graph;
  PowerLawParams params;
  params.num_vertices = std::max<uint64_t>(2000, static_cast<uint64_t>(1000000 * scale));
  params.avg_degree = 8.0;
  params.preferential_fraction = 0.75;
  params.seed = 97;
  GeneratePowerLawGraph(params, &graph);
  uint64_t num_vertices = graph.num_vertices();
  prop_key_t amt_key = graph.AddEdgeProperty("amt", ValueType::kInt64);
  {
    PropertyColumn* amt = graph.edge_props().mutable_column(amt_key);
    Rng rng(13);
    for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
      amt->SetInt64(e, static_cast<int64_t>(rng.NextBounded(10000)));
    }
  }
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  Session session(&db);

  PrintBanner("Serving API (" + TablePrinter::Count(db.graph().num_edges()) + " edges, " +
              std::to_string(requests) + " reqs, " + std::to_string(reps) + " reps best-of)");

  std::vector<CaseResult> results;
  TablePrinter table({"case", "seconds", "per-request / rows-per-s", "notes"});

  // Pre-draw one request stream shared by both throughput arms. Serving
  // point-lookups target ordinary vertices, so sources are drawn from
  // the moderate-out-degree bulk of the power-law distribution (hub
  // sources would make per-request *execution* dominate both arms and
  // hide the planning cost this bench isolates).
  std::vector<vertex_id_t> sources;
  {
    std::vector<uint32_t> out_degree(num_vertices, 0);
    for (edge_id_t e = 0; e < db.graph().num_edges(); ++e) out_degree[db.graph().edge_src(e)]++;
    std::vector<vertex_id_t> ordinary;
    for (vertex_id_t v = 0; v < num_vertices; ++v) {
      if (out_degree[v] >= 1 && out_degree[v] <= 8) ordinary.push_back(v);
    }
    if (ordinary.empty()) {
      for (vertex_id_t v = 0; v < num_vertices; ++v) ordinary.push_back(v);
    }
    Rng rng(7);
    sources.reserve(requests);
    for (uint64_t i = 0; i < requests; ++i) {
      sources.push_back(ordinary[rng.NextBounded(ordinary.size())]);
    }
  }

  // --- Arm 1: ad-hoc per-request parse + optimize + run. ---
  uint64_t adhoc_matches = 0;
  double adhoc_best = -1.0;
  for (int r = 0; r < reps; ++r) {
    uint64_t matches = 0;
    WallTimer timer;
    for (vertex_id_t src : sources) {
      std::string text =
          "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) WHERE a.ID = " +
          std::to_string(src) + " RETURN COUNT(*)";
      QueryOutcome out = db.ExecuteCypher(text);
      APLUS_CHECK(out.ok()) << out.error;
      matches += out.count;
    }
    double elapsed = timer.ElapsedSeconds();
    if (adhoc_best < 0.0 || elapsed < adhoc_best) adhoc_best = elapsed;
    adhoc_matches = matches;
  }
  results.push_back({"adhoc", adhoc_best, adhoc_matches, 0,
                     adhoc_best / static_cast<double>(requests)});

  // --- Arm 2: prepared bind + execute on the cached plan. ---
  PreparedQuery* prepared = session.Prepare(kTriangleCount);
  APLUS_CHECK(prepared->ok()) << prepared->error();
  prepared->Bind("src", Value::Int64(sources.front()));
  APLUS_CHECK(prepared->Execute().ok());  // warm-up: plan scratch high-water mark
  uint64_t prepared_matches = 0;
  double prepared_best = -1.0;
  for (int r = 0; r < reps; ++r) {
    uint64_t matches = 0;
    WallTimer timer;
    for (vertex_id_t src : sources) {
      prepared->Bind("src", Value::Int64(src));
      QueryOutcome out = prepared->Execute();
      matches += out.count;
    }
    double elapsed = timer.ElapsedSeconds();
    if (prepared_best < 0.0 || elapsed < prepared_best) prepared_best = elapsed;
    prepared_matches = matches;
  }
  APLUS_CHECK_EQ(prepared_matches, adhoc_matches)
      << "prepared and ad-hoc arms disagree on the triangle count";
  results.push_back({"prepared", prepared_best, prepared_matches, 0,
                     prepared_best / static_cast<double>(requests)});
  double speedup = prepared_best > 0.0 ? adhoc_best / prepared_best : 0.0;

  table.AddRow({"adhoc (parse+optimize+run)", TablePrinter::Seconds(adhoc_best),
                TablePrinter::Seconds(adhoc_best / static_cast<double>(requests)) + "/req",
                TablePrinter::Count(adhoc_matches) + " matches"});
  table.AddRow({"prepared (bind+execute)", TablePrinter::Seconds(prepared_best),
                TablePrinter::Seconds(prepared_best / static_cast<double>(requests)) + "/req",
                TablePrinter::Speedup(adhoc_best, prepared_best) + " vs adhoc"});

  // --- Arm 3: projected-row streaming at 1 and 4 workers. ---
  PreparedQuery* stream = session.Prepare(kTwoHopRows);
  APLUS_CHECK(stream->ok()) << stream->error();
  uint64_t t1_rows = 0;
  for (int threads : {1, 4}) {
    NullConsumer consumer;
    QueryOutcome warm = stream->Execute(&consumer, threads);  // replicas + scratch
    APLUS_CHECK(warm.ok()) << warm.error;
    double best = -1.0;
    uint64_t rows = 0;
    for (int r = 0; r < reps; ++r) {
      consumer.rows.store(0);
      WallTimer timer;
      QueryOutcome out = stream->Execute(&consumer, threads);
      double elapsed = timer.ElapsedSeconds();
      APLUS_CHECK(out.ok()) << out.error;
      rows = consumer.rows.load();
      APLUS_CHECK_EQ(rows, out.rows);
      if (best < 0.0 || elapsed < best) best = elapsed;
    }
    if (threads == 1) t1_rows = rows;
    APLUS_CHECK_EQ(rows, t1_rows) << "row count drifted across thread counts";
    double rows_per_s = best > 0.0 ? static_cast<double>(rows) / best : 0.0;
    results.push_back({"rows_t" + std::to_string(threads), best, rows, threads, 0.0});
    table.AddRow({"stream rows t" + std::to_string(threads), TablePrinter::Seconds(best),
                  TablePrinter::Count(static_cast<uint64_t>(rows_per_s)) + " rows/s",
                  TablePrinter::Count(rows) + " rows"});
  }

  // --- Arm 4: per-request grouped top-k through the sink-stage
  // pipeline, ad-hoc vs prepared (the aggregate serving target). The
  // pattern is a single-source fan-out rollup: execution stays bounded
  // by the source's degree, so the arm isolates planning amortization
  // exactly like the plain triangle arm (whose intersection prunes). ---
  constexpr const char* kAggSuffix =
      " RETURN b, COUNT(*), SUM(r.amt) ORDER BY SUM(r.amt) DESC, b LIMIT 5";
  uint64_t agg_adhoc_rows = 0;
  double agg_adhoc_best = -1.0;
  for (int r = 0; r < reps; ++r) {
    uint64_t rows = 0;
    WallTimer timer;
    for (vertex_id_t src : sources) {
      std::string text =
          "MATCH (a)-[r:E]->(b) WHERE a.ID = " + std::to_string(src) + kAggSuffix;
      QueryOutcome out = db.ExecuteCypher(text);
      APLUS_CHECK(out.ok()) << out.error;
      rows += out.rows;
    }
    double elapsed = timer.ElapsedSeconds();
    if (agg_adhoc_best < 0.0 || elapsed < agg_adhoc_best) agg_adhoc_best = elapsed;
    agg_adhoc_rows = rows;
  }
  results.push_back({"agg_adhoc", agg_adhoc_best, agg_adhoc_rows, 0,
                     agg_adhoc_best / static_cast<double>(requests)});
  PreparedQuery* agg_prepared = session.Prepare(
      std::string("MATCH (a)-[r:E]->(b) WHERE a.ID = $src") + kAggSuffix);
  APLUS_CHECK(agg_prepared->ok()) << agg_prepared->error();
  agg_prepared->Bind("src", Value::Int64(sources.front()));
  APLUS_CHECK(agg_prepared->Execute().ok());  // warm-up: arenas to high-water mark
  uint64_t agg_prepared_rows = 0;
  double agg_prepared_best = -1.0;
  for (int r = 0; r < reps; ++r) {
    uint64_t rows = 0;
    WallTimer timer;
    for (vertex_id_t src : sources) {
      agg_prepared->Bind("src", Value::Int64(src));
      QueryOutcome out = agg_prepared->Execute();
      rows += out.rows;
    }
    double elapsed = timer.ElapsedSeconds();
    if (agg_prepared_best < 0.0 || elapsed < agg_prepared_best) agg_prepared_best = elapsed;
    agg_prepared_rows = rows;
  }
  APLUS_CHECK_EQ(agg_prepared_rows, agg_adhoc_rows)
      << "prepared and ad-hoc aggregate arms disagree on the output rows";
  results.push_back({"agg_prepared", agg_prepared_best, agg_prepared_rows, 0,
                     agg_prepared_best / static_cast<double>(requests)});
  double agg_speedup = agg_prepared_best > 0.0 ? agg_adhoc_best / agg_prepared_best : 0.0;
  table.AddRow({"agg adhoc (grouped top-k)", TablePrinter::Seconds(agg_adhoc_best),
                TablePrinter::Seconds(agg_adhoc_best / static_cast<double>(requests)) + "/req",
                TablePrinter::Count(agg_adhoc_rows) + " rows"});
  table.AddRow({"agg prepared (bind+execute)", TablePrinter::Seconds(agg_prepared_best),
                TablePrinter::Seconds(agg_prepared_best / static_cast<double>(requests)) +
                    "/req",
                TablePrinter::Speedup(agg_adhoc_best, agg_prepared_best) + " vs adhoc"});

  // --- Arm 5: whole-graph grouped rollup at 1/4 workers (parallel
  // partial-aggregate merge). ---
  PreparedQuery* rollup =
      session.Prepare("MATCH (a)-[r:E]->(b) RETURN b, COUNT(*), SUM(r.amt)");
  APLUS_CHECK(rollup->ok()) << rollup->error();
  uint64_t rollup_t1_groups = 0;
  for (int threads : {1, 4}) {
    NullConsumer consumer;
    APLUS_CHECK(rollup->Execute(&consumer, threads).ok());  // warm-up
    double best = -1.0;
    uint64_t groups = 0;
    for (int r = 0; r < reps; ++r) {
      consumer.rows.store(0);
      WallTimer timer;
      QueryOutcome out = rollup->Execute(&consumer, threads);
      double elapsed = timer.ElapsedSeconds();
      APLUS_CHECK(out.ok()) << out.error;
      groups = consumer.rows.load();
      APLUS_CHECK_EQ(groups, out.rows);
      if (best < 0.0 || elapsed < best) best = elapsed;
    }
    if (threads == 1) rollup_t1_groups = groups;
    APLUS_CHECK_EQ(groups, rollup_t1_groups) << "group count drifted across thread counts";
    results.push_back({"agg_rollup_t" + std::to_string(threads), best, groups, threads, 0.0});
    table.AddRow({"agg rollup t" + std::to_string(threads), TablePrinter::Seconds(best),
                  TablePrinter::Count(groups) + " groups", ""});
  }

  // --- Arm 6: whole-graph top-100 by edge amount at 1/4 workers
  // (sort-stage partial_sort). ---
  PreparedQuery* topk = session.Prepare(
      "MATCH (a)-[r:E]->(b) RETURN a, b, r.amt ORDER BY r.amt DESC, a LIMIT 100");
  APLUS_CHECK(topk->ok()) << topk->error();
  for (int threads : {1, 4}) {
    NullConsumer consumer;
    APLUS_CHECK(topk->Execute(&consumer, threads).ok());  // warm-up
    double best = -1.0;
    uint64_t rows = 0;
    for (int r = 0; r < reps; ++r) {
      consumer.rows.store(0);
      WallTimer timer;
      QueryOutcome out = topk->Execute(&consumer, threads);
      double elapsed = timer.ElapsedSeconds();
      APLUS_CHECK(out.ok()) << out.error;
      rows = consumer.rows.load();
      APLUS_CHECK_EQ(rows, out.rows);
      if (best < 0.0 || elapsed < best) best = elapsed;
    }
    results.push_back({"orderby_topk_t" + std::to_string(threads), best, rows, threads, 0.0});
    table.AddRow({"orderby top-100 t" + std::to_string(threads), TablePrinter::Seconds(best),
                  TablePrinter::Count(rows) + " rows", ""});
  }

  table.Print();
  std::printf(
      "\nShape: the prepared arm amortizes parsing + DP optimization across\n"
      "requests (plan-cache hit, $src patched in place), so per-request cost\n"
      "collapses to plan execution. Target: prepared >= 5x adhoc per request\n"
      "(got %.1fx plain, %.1fx grouped top-k). Streaming and the grouped\n"
      "rollup scale with workers until the merge or memory bandwidth\n"
      "saturates.\n",
      speedup, agg_speedup);
  if (speedup < 5.0) {
    std::printf("WARNING: prepared speedup %.1fx below the 5x serving target.\n", speedup);
  }
  if (agg_speedup < 5.0) {
    std::printf("WARNING: aggregate prepared speedup %.1fx below the 5x serving target.\n",
                agg_speedup);
  }

  const char* json_path = std::getenv("APLUS_BENCH_JSON");
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    APLUS_CHECK(f != nullptr) << "cannot write " << json_path;
    std::fprintf(f, "{\n  \"bench\": \"bench_serving\",\n  \"cores\": %u,\n", cores);
    std::fprintf(f, "  \"prepared_speedup\": %.3f,\n", speedup);
    std::fprintf(f, "  \"agg_prepared_speedup\": %.3f,\n  \"cases\": {\n", agg_speedup);
    for (size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      std::fprintf(f, "    \"%s\": {\"seconds\": %.6f, \"rows\": %llu", r.name.c_str(),
                   r.seconds, static_cast<unsigned long long>(r.rows));
      if (r.threads > 0) std::fprintf(f, ", \"threads\": %d", r.threads);
      if (r.per_request > 0.0) std::fprintf(f, ", \"per_request\": %.9f", r.per_request);
      std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("Wrote per-case metrics to %s\n", json_path);
  }
  return 0;
}
