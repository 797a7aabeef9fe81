// segment_cold: serving from a sealed segment.
//
// A power-law graph is built in memory and sealed (SealToSegment, `auto`
// compression); the timed part starts at OpenFromSegment. One closed-loop
// reader then runs `$src` triangle, out-2-hop and in-out-2-hop counts
// against the mapped segment. It is the only workload that exercises
// mmap, varint decode and packed lists, and its working set is far
// larger than the per-core caches. Whole-graph queries are left out: one
// would outlast the phase.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "workload.h"

namespace aplus {
namespace bench {
namespace {

constexpr const char* kTexts[] = {
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) WHERE a.ID = $src RETURN COUNT(*)",
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = $src RETURN COUNT(*)",
    "MATCH (b)-[r1:E]->(a)-[r2:E]->(c) WHERE a.ID = $src RETURN COUNT(*)",
};
constexpr const char* kShapeSpans[] = {"core.execute_us.triangle", "core.execute_us.out_2hop",
                                       "core.execute_us.in_out_2hop"};
constexpr int kNumTexts = 3;
constexpr size_t kNumSources = 65536;
constexpr double kAvgDegree = 8.0;

}  // namespace

void RunSegmentCold(const RunConfig& config, RunResult* result) {
  const uint64_t num_vertices = config.smoke ? 5000 : 500000;
  const std::string path =
      config.workdir + "/segment_" + std::to_string(config.seed) + ".seg";
  result->AddContext("num_vertices", static_cast<double>(num_vertices));
  result->AddContext("avg_degree", kAvgDegree);
  result->AddContext("readers", 1);
  // Removes the segment file on every way out of this function.
  struct RemoveFile {
    std::string path;
    ~RemoveFile() { std::remove(path.c_str()); }
  } segment_file{path};

  // The in-memory database the segment was sealed from is the oracle.
  std::unique_ptr<Database> oracle = TimedSetup(
      result, [&] { return PowerLawGraph(num_vertices, kAvgDegree, config.seed); },
      [&](Graph graph) -> std::unique_ptr<Database> {
        std::unique_ptr<Database> built = BuildDatabase(std::move(graph));
        std::string error;
        Span span("storage.seal_s");
        if (!built->SealToSegment(path, &error)) {
          std::fprintf(stderr, "seal: %s\n", error.c_str());
          return nullptr;
        }
        return built;
      });
  if (oracle == nullptr) {
    result->failed++;
    return;
  }
  const double edges = static_cast<double>(oracle->graph().num_edges());
  RecordIndexMetrics(*oracle, result);

  std::vector<vertex_id_t> sources;
  {
    Rng rng(config.seed ^ 0x5e9ULL);
    sources = SampleSources(oracle->graph(), kNumSources, &rng);
  }
  auto params_of = [&](size_t i) {
    return std::vector<std::pair<std::string, Value>>{
        {"src", Value::Int64(static_cast<int64_t>(sources[i]))}};
  };

  std::vector<Answer> expected[kNumTexts];
  uint64_t matches = 0;
  {
    TracePause pause;
    FingerprintConsumer consumer;
    for (int t = 0; t < kNumTexts; ++t) {
      std::unique_ptr<PreparedQuery> q = oracle->Prepare(kTexts[t]);
      for (size_t i = 0; i < sources.size(); ++i) {
        ExecOutcome out = ExecuteTraced(q.get(), kShapeSpans[t], params_of(i), 1, &consumer);
        result->attempted++;
        if (!out.ok) result->failed++;
        expected[t].push_back(out.answer);
        matches += out.answer.count;
      }
    }
  }
  result->metrics.Set("core.matches", static_cast<double>(matches), "count");
  result->metrics.Set("core.rows", static_cast<double>(kNumTexts * sources.size()), "count");
  if (config.corrupt_oracle) expected[0][0].hash ^= 1;
  oracle.reset();  // served from the segment alone from here on

  // Open to first result, repeated like the set-up; open_s is the median,
  // scaled to the reference core speed like setup_s.
  std::unique_ptr<Database> db;
  std::vector<double> open_s;
  std::vector<double> first_query_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    std::string error;
    SpeedMonitor speed;
    int64_t start = NowNanos();
    {
      Span span("storage.open_s");
      db = Database::OpenFromSegment(path, &error);
    }
    if (db == nullptr) {
      std::fprintf(stderr, "open: %s\n", error.c_str());
      result->failed++;
      return;
    }
    int64_t first = NowNanos();
    std::unique_ptr<PreparedQuery> q = PrepareTraced(db.get(), kTexts[1]);
    FingerprintConsumer consumer;
    ExecOutcome out = ExecuteTraced(q.get(), kShapeSpans[1], params_of(0), 1, &consumer);
    const double seconds = SecondsSince(start);
    first_query_ms.push_back(SecondsSince(first) * 1e3);
    open_s.push_back(seconds * speed.Stop());
    result->attempted++;
    if (!out.ok || out.answer != expected[1][0]) result->failed++;
  }
  result->metrics.Set("open_s", Median(open_s), "s");
  result->metrics.Set("core.first_query_ms", Median(first_query_ms), "ms");
  struct stat st {};
  double file_bytes = ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
  result->metrics.Set("storage.file_bytes", file_bytes, "B");
  result->metrics.Set("store_bytes_per_edge", file_bytes / edges, "B/edge");
  // The serving index is the sealed file: segment-backed databases hold
  // no index memory of their own.
  result->metrics.Set("index_bytes_per_edge", file_bytes / edges, "B/edge");

  std::vector<std::unique_ptr<PreparedQuery>> prepared;
  for (int t = 0; t < kNumTexts; ++t) prepared.push_back(PrepareTraced(db.get(), kTexts[t]));
  // Checks one answer; false when it failed or differs from the oracle.
  auto run_checked = [&](int t, size_t i, FingerprintConsumer* consumer, double* latency_us,
                         uint64_t request_id) {
    RequestScope scope(request_id);
    int64_t t0 = NowNanos();
    ExecOutcome out =
        ExecuteTraced(prepared[t].get(), kShapeSpans[t], params_of(i), 1, consumer);
    *latency_us = static_cast<double>(NowNanos() - t0) * 1e-3;
    bool ok = out.ok && out.answer == expected[t][i];
    if (ok) RecordRequestSplit(*latency_us, out.exec_seconds);
    return ok;
  };
  {
    TracePause pause;  // warm-up: every (shape, source) once, checked
    FingerprintConsumer consumer;
    double us = 0;
    for (int t = 0; t < kNumTexts; ++t) {
      for (size_t i = 0; i < sources.size(); ++i) {
        result->attempted++;
        if (!run_checked(t, i, &consumer, &us, 0)) result->failed++;
      }
    }
  }

  PhaseLog log = MeasurePhase(config, result, [&](double seconds) {
    const int64_t start = NowNanos();
    PhaseLog phase(start, start + static_cast<int64_t>(seconds * 1e9));
    Rng rng(config.seed * 977);
    FingerprintConsumer consumer;
    for (uint64_t n = 1; NowNanos() < phase.end_nanos(); ++n) {
      phase.Probe();
      int t = static_cast<int>(rng.Below(kNumTexts));
      size_t i = rng.Below(sources.size());
      double us = 0;
      bool ok = run_checked(t, i, &consumer, &us, n);
      result->attempted++;
      if (!ok) result->failed++;
      phase.Add(NowNanos(), ok ? us * 1e-3 : HUGE_VAL);
    }
    return phase;
  });
  RecordLatency(log, result);
  prepared.clear();
  db.reset();  // unmaps the segment before RemoveFile deletes it
}

}  // namespace bench
}  // namespace aplus
