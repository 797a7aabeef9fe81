// Sealed-segment bench: storage footprint and hot-path cost of serving
// queries out of an mmap'd immutable segment (storage/segment.h) versus
// the in-memory index it was sealed from.
//
//   * footprint: bytes/edge of the raw flat layout vs the delta/varint
//     packed layout (CompressMode::kOff vs kOn), and the
//     compression ratio over the adjacency payload alone. Acceptance:
//     packed adjacency >= 1.5x smaller than raw on the power-law
//     dataset.
//   * open_to_first_query: OpenFromSegment (mmap, checksums, column
//     and index validation; no copy, no index build) through the first
//     point lookup — the cold-start story of `aplusd --graph`.
//   * tri/two_hop/agg arms: intersection-heavy hot-path queries timed
//     in-memory and segment-backed (auto compression, after a warm-up
//     pass touches the mapping). Acceptance: segment-backed within
//     1.3x of in-memory.
//
// Runs at 2x the default bench scale so packed hub pages and the page
// cache actually matter. Env knobs: APLUS_SCALE, APLUS_SEGMENT_REPS
// (timed repetitions, best-of), APLUS_BENCH_JSON (per-case metrics),
// APLUS_BENCH_STRICT=1 (fail the process on the acceptance targets).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/database.h"
#include "datagen/power_law_generator.h"
#include "storage/segment.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace aplus;  // NOLINT: bench brevity

namespace {

struct QueryArm {
  const char* name;
  const char* text;
};

const QueryArm kArms[] = {
    {"tri", "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)"},
    {"two_hop", "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN COUNT(*)"},
    {"agg", "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN COUNT(*), SUM(r1.amt)"},
};

struct CaseResult {
  std::string name;
  double seconds = 0.0;
  std::string extra;  // extra JSON fields, ", \"k\": v" form
};

// Best-of-`reps` execution time of one counting query.
double TimeQuery(Database* db, const char* text, int reps) {
  auto prepared = db->Prepare(text);
  APLUS_CHECK(prepared->ok()) << text << ": " << prepared->error();
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    QueryOutcome out = prepared->Execute(nullptr, 1);
    double seconds = timer.ElapsedSeconds();
    APLUS_CHECK(out.ok()) << text << ": " << out.error;
    if (r == 0 || seconds < best) best = seconds;
  }
  return best;
}

std::string SegPath(const char* suffix) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = tmp != nullptr ? tmp : "/tmp";
  return dir + "/aplus_bench_segments_" + suffix + ".seg";
}

}  // namespace

int main() {
  // 2x the serving benches' default scale: hub pages must be big enough
  // that the raw-vs-packed split and the skip-table probes show up.
  double scale = ScaleFromEnv(0.04);
  int reps = static_cast<int>(IntFromEnv("APLUS_SEGMENT_REPS", 3));
  bool strict = false;
  if (const char* env = std::getenv("APLUS_BENCH_STRICT")) {
    strict = std::strcmp(env, "0") != 0;
  }

  Graph graph;
  PowerLawParams params;
  params.num_vertices = std::max<uint64_t>(4000, static_cast<uint64_t>(1000000 * scale));
  params.avg_degree = 8.0;
  params.preferential_fraction = 0.75;
  params.seed = 97;
  GeneratePowerLawGraph(params, &graph);
  prop_key_t amt_key = graph.AddEdgeProperty("amt", ValueType::kInt64);
  {
    PropertyColumn* amt = graph.edge_props().mutable_column(amt_key);
    Rng rng(13);
    for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
      amt->SetInt64(e, static_cast<int64_t>(rng.NextBounded(10000)));
    }
  }
  const uint64_t num_edges = graph.num_edges();
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();

  PrintBanner("bench_segments (" + TablePrinter::Count(db.graph().num_vertices()) +
              " vertices, " + TablePrinter::Count(num_edges) + " edges, best of " +
              std::to_string(reps) + ")");

  std::vector<CaseResult> results;
  bool failed = false;

  // --- Footprint: raw vs packed seal ---------------------------------
  std::string raw_path = SegPath("raw");
  std::string packed_path = SegPath("packed");
  uint64_t raw_file = 0, packed_file = 0;
  double seal_seconds = 0.0, compression_ratio = 0.0;
  {
    std::string error;
    APLUS_CHECK(SealSegment(db.graph(), db.index_store(), raw_path, CompressMode::kOff, &error))
        << error;
    WallTimer timer;
    APLUS_CHECK(SealSegment(db.graph(), db.index_store(), packed_path, CompressMode::kOn, &error))
        << error;
    seal_seconds = timer.ElapsedSeconds();

    std::unique_ptr<Segment> raw_seg = OpenSegment(raw_path, &error);
    APLUS_CHECK(raw_seg != nullptr) << error;
    std::unique_ptr<Segment> packed_seg = OpenSegment(packed_path, &error);
    APLUS_CHECK(packed_seg != nullptr) << error;
    raw_file = raw_seg->stats().file_bytes;
    packed_file = packed_seg->stats().file_bytes;
    const SegmentStats& ps = packed_seg->stats();
    compression_ratio = ps.packed_adj_bytes > 0
                            ? static_cast<double>(ps.packed_adj_unpacked_bytes) /
                                  static_cast<double>(ps.packed_adj_bytes)
                            : 0.0;
  }
  std::remove(raw_path.c_str());

  double raw_bpe = static_cast<double>(raw_file) / static_cast<double>(num_edges);
  double packed_bpe = static_cast<double>(packed_file) / static_cast<double>(num_edges);
  {
    CaseResult r;
    r.name = "footprint";
    r.seconds = seal_seconds;  // packed seal time, the write-path cost
    char extra[256];
    std::snprintf(extra, sizeof(extra),
                  ", \"raw_bytes_per_edge\": %.2f, \"packed_bytes_per_edge\": %.2f, "
                  "\"adj_compression_ratio\": %.3f",
                  raw_bpe, packed_bpe, compression_ratio);
    r.extra = extra;
    results.push_back(r);
  }
  if (compression_ratio < 1.5) {
    std::fprintf(stderr, "FAIL: adjacency compression ratio %.3f < 1.5x\n", compression_ratio);
    failed = true;
  }

  // --- Open-to-first-query (auto compression, the --graph cold start) -
  std::string auto_path = SegPath("auto");
  {
    std::string error;
    APLUS_CHECK(db.SealToSegment(auto_path, &error)) << error;
  }
  double open_seconds = 0.0;
  std::unique_ptr<Database> seg_db;
  {
    WallTimer timer;
    std::string error;
    seg_db = Database::OpenFromSegment(auto_path, &error);
    APLUS_CHECK(seg_db != nullptr) << error;
    auto point = seg_db->Prepare("MATCH (a)-[r:E]->(b) WHERE a.ID = $src RETURN COUNT(*)");
    APLUS_CHECK(point->ok()) << point->error();
    APLUS_CHECK(point->Bind("src", Value::Int64(42))) << point->bind_error();
    QueryOutcome out = point->Execute(nullptr, 1);
    APLUS_CHECK(out.ok()) << out.error;
    open_seconds = timer.ElapsedSeconds();
  }
  results.push_back({"open_to_first_query", open_seconds, ""});

  // --- Hot-path arms: in-memory vs segment-backed --------------------
  TablePrinter table({"arm", "in-memory", "segment", "seg/mem", "raw B/e", "packed B/e"});
  for (const QueryArm& arm : kArms) {
    // Warm-up pass on the segment side first: fault in the mapped pages
    // so the timed reps measure decode cost, not page-in cost.
    TimeQuery(seg_db.get(), arm.text, 1);
    double mem = TimeQuery(&db, arm.text, reps);
    double seg = TimeQuery(seg_db.get(), arm.text, reps);
    double ratio = mem > 0.0 ? seg / mem : 0.0;
    table.AddRow({arm.name, TablePrinter::Seconds(mem), TablePrinter::Seconds(seg),
                  TablePrinter::Speedup(seg, mem),
                  arm.name == std::string("tri") ? TablePrinter::Mb(raw_file) : "",
                  arm.name == std::string("tri") ? TablePrinter::Mb(packed_file) : ""});
    char extra[128];
    std::snprintf(extra, sizeof(extra), ", \"seg_over_mem\": %.3f", ratio);
    results.push_back({std::string(arm.name) + "_mem", mem, ""});
    results.push_back({std::string(arm.name) + "_seg", seg, extra});
    if (ratio > 1.3) {
      std::fprintf(stderr, "%s: segment-backed %.3fx in-memory (budget 1.3x)\n", arm.name,
                   ratio);
      if (strict) failed = true;
    }
  }
  table.Print();
  std::printf("\nfootprint: raw %.2f B/edge, packed %.2f B/edge "
              "(adjacency ratio %.2fx); open-to-first-query %s; peak RSS %s\n",
              raw_bpe, packed_bpe, compression_ratio,
              TablePrinter::Seconds(open_seconds).c_str(),
              TablePrinter::Mb(PeakRssBytes()).c_str());

  seg_db.reset();
  std::remove(auto_path.c_str());
  std::remove(packed_path.c_str());

  const char* json_path = std::getenv("APLUS_BENCH_JSON");
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    APLUS_CHECK(f != nullptr) << "cannot write " << json_path;
    std::fprintf(f,
                 "{\n  \"bench\": \"bench_segments\",\n"
                 "  \"edges\": %llu,\n  \"peak_rss_bytes\": %llu,\n  \"cases\": {\n",
                 static_cast<unsigned long long>(num_edges),
                 static_cast<unsigned long long>(PeakRssBytes()));
    for (size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      std::fprintf(f, "    \"%s\": {\"seconds\": %.6f%s}%s\n", r.name.c_str(), r.seconds,
                   r.extra.c_str(), i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("Wrote per-case metrics to %s\n", json_path);
  }
  if (failed) {
    std::fprintf(stderr, "bench_segments: acceptance targets missed\n");
    return 1;
  }
  return 0;
}
