#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "datagen/power_law_generator.h"
#include "query/cypher_parser.h"
#include "workload.h"

namespace aplus {
namespace bench {

void RunResult::AddContext(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  context[key] = buf;
}

Graph PowerLawGraph(uint64_t num_vertices, double avg_degree, uint64_t seed) {
  // Vertex v is drawn with weight (v + 1)^-kSkew: the inverse of the
  // continuous weight's distribution function maps a uniform draw to a
  // vertex.
  constexpr double kSkew = 0.5;
  constexpr double kPower = 1.0 - kSkew;
  const double span = std::pow(static_cast<double>(num_vertices) + 1.0, kPower) - 1.0;
  Rng rng(seed);
  auto draw = [&] {
    double x = std::pow(1.0 + rng.Uniform() * span, 1.0 / kPower);
    return static_cast<vertex_id_t>(std::min<double>(x - 1.0, static_cast<double>(num_vertices - 1)));
  };
  Graph graph;
  label_t vlabel = graph.catalog().AddVertexLabel("V");
  label_t elabel = graph.catalog().AddEdgeLabel("E");
  for (uint64_t v = 0; v < num_vertices; ++v) graph.AddVertex(vlabel);
  const uint64_t num_edges = static_cast<uint64_t>(avg_degree * static_cast<double>(num_vertices));
  for (uint64_t e = 0; e < num_edges; ++e) {
    vertex_id_t src = draw();
    vertex_id_t dst = draw();
    while (dst == src) dst = draw();
    graph.AddEdge(src, dst, elabel);
  }
  return graph;
}

Graph LjAnalogue(double scale, uint64_t seed) {
  size_t count = 0;
  const DatasetSpec& lj = TableOneDatasets(&count)[1];
  uint64_t num_vertices = static_cast<uint64_t>(scale * static_cast<double>(lj.paper_vertices));
  return PowerLawGraph(std::max<uint64_t>(num_vertices, 2000), lj.avg_degree, seed);
}

std::unique_ptr<Database> TimedSetup(
    RunResult* result, const std::function<Graph()>& generate,
    const std::function<std::unique_ptr<Database>(Graph)>& setup) {
  std::vector<double> wall;
  std::vector<double> scaled;
  std::unique_ptr<Database> db;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    Graph graph;
    {
      Span span("datagen.generate_s");
      graph = generate();
    }
    SpeedMonitor speed;
    int64_t start = NowNanos();
    db = setup(std::move(graph));
    wall.push_back(SecondsSince(start));
    scaled.push_back(wall.back() * speed.Stop());
    if (db == nullptr) return nullptr;
  }
  result->metrics.Set("setup_s", Median(scaled), "s");
  result->metrics.Set("wall_setup_s", Median(wall), "s");
  return db;
}

std::unique_ptr<Database> BuildDatabase(Graph graph) {
  Span span("index.build_primary_s");
  auto db = std::make_unique<Database>(std::move(graph));
  db->BuildPrimaryIndexes();
  return db;
}

bool RunDdl(Database* db, const char* span_name, const std::string& ddl) {
  DdlResult r;
  {
    Span span(span_name);
    r = db->ExecuteDdl(ddl);
  }
  if (!r.ok) std::fprintf(stderr, "DDL rejected (%s): %s\n", span_name, r.message.c_str());
  return r.ok;
}

void RecordIndexMetrics(const Database& db, RunResult* result) {
  const IndexStore& store = db.index_store();
  double edges = static_cast<double>(std::max<uint64_t>(db.graph().num_edges(), 1));
  result->metrics.Set("index.bytes_primary", static_cast<double>(store.PrimaryMemoryBytes()),
                      "B");
  result->metrics.Set("index.bytes_secondary",
                      static_cast<double>(store.SecondaryMemoryBytes()), "B");
  result->metrics.Set("index.edges_indexed", static_cast<double>(store.TotalEdgesIndexed()),
                      "count");
  result->metrics.Set("index_bytes_per_edge", static_cast<double>(db.IndexMemoryBytes()) / edges,
                      "B/edge");
}

std::unique_ptr<PreparedQuery> PrepareTraced(Database* db, const std::string& text) {
  if (tracer::Recording()) {
    Span span("query.parse_us");
    ParsedCypher parsed = ParseCypher(text, db->graph().catalog());
    (void)parsed;
  }
  Span span("core.prepare_us");
  return db->Prepare(text);
}

ExecOutcome ExecuteTraced(PreparedQuery* query, const char* shape_span,
                          const std::vector<std::pair<std::string, Value>>& params,
                          int num_threads, FingerprintConsumer* consumer) {
  ExecOutcome out;
  {
    Span span("core.bind_us");
    for (const auto& [name, value] : params) {
      if (!query->Bind(name, value)) return out;
    }
  }
  consumer->Reset();
  QueryOutcome outcome;
  {
    Span span("core.execute_us");
    Span shape(shape_span);
    outcome = query->Execute(consumer, num_threads);
  }
  out.ok = outcome.ok();
  out.exec_seconds = outcome.seconds;
  out.answer = Answer{outcome.count, outcome.rows, consumer->hash()};
  return out;
}

void RecordRequestSplit(double latency_us, double exec_seconds) {
  tracer::Sample("request.exec_us", exec_seconds * 1e6);
  tracer::Sample("request.overhead_us", latency_us - exec_seconds * 1e6);
}

std::vector<vertex_id_t> LightSources(const Graph& graph) {
  const uint64_t nv = graph.num_vertices();
  std::vector<uint64_t> degree(nv, 0);
  std::vector<uint64_t> out_degree(nv, 0);
  for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
    degree[graph.edge_src(e)]++;
    degree[graph.edge_dst(e)]++;
    out_degree[graph.edge_src(e)]++;
  }
  std::vector<uint64_t> reach(nv, 0);
  for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
    reach[graph.edge_src(e)] += degree[graph.edge_dst(e)];
    reach[graph.edge_dst(e)] += degree[graph.edge_src(e)];
  }
  std::vector<vertex_id_t> pool;
  if (nv > 0) {
    std::vector<uint64_t> sorted = reach;
    auto cut = sorted.begin() + static_cast<std::ptrdiff_t>(nv * 9 / 10);
    std::nth_element(sorted.begin(), cut, sorted.end());
    for (vertex_id_t v = 0; v < nv; ++v) {
      if (out_degree[v] > 0 && reach[v] <= *cut) pool.push_back(v);
    }
  }
  return pool;
}

std::vector<vertex_id_t> SampleSources(const Graph& graph, size_t count, Rng* rng) {
  const std::vector<vertex_id_t> pool = LightSources(graph);
  std::vector<vertex_id_t> out;
  out.reserve(count);
  for (size_t i = 0; i < count && !pool.empty(); ++i) out.push_back(pool[rng->Below(pool.size())]);
  return out;
}

namespace {

// Resident set of this process in MB; 0 when /proc is unavailable.
double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// Bytes held from malloc, over every arena and the chunks it mmaps, in MB.
double HeapMb() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// Runs a traced phase: tracing alternates on and off every kToggleNanos,
// so the traced and untraced halves see the same phase conditions (an
// ingest phase, for one, slows its readers as deltas accumulate).
PhaseLog TracedPhase(const RunConfig& config, RunResult* result,
                     const std::function<PhaseLog(double seconds)>& phase) {
  constexpr int64_t kToggleNanos = 250000000;
  const int64_t origin = NowNanos();
  auto traced_at = [origin](int64_t nanos) { return (nanos - origin) / kToggleNanos % 2 == 0; };
  std::atomic<bool> done{false};
  std::thread toggler([&] {
    while (!done.load()) {
      tracer::SetEnabled(traced_at(NowNanos()));
      SleepUntil(NowNanos() + 5000000);
    }
  });
  PhaseLog log = phase(config.seconds);
  done.store(true);
  toggler.join();
  tracer::SetEnabled(true);
  double traced = log.Latencies(true, traced_at).Percentile(50);
  double untraced = log.Latencies(true, [&](int64_t t) { return !traced_at(t); }).Percentile(50);
  result->metrics.Set("trace.overhead_pct",
                      untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0.0, "%");
  return log;
}

}  // namespace

PhaseLog MeasurePhase(const RunConfig& config, RunResult* result,
                      const std::function<PhaseLog(double seconds)>& phase) {
  PhaseLog log = config.trace ? TracedPhase(config, result, phase) : phase(config.seconds);
  // What the set-up repetitions and oracle passes freed goes back to the
  // system first, so the resident set is what serving holds. The resident
  // set still moves by ~3 MB between runs holding the same heap bytes
  // (which freed pages inside the heap the allocator hands back depends
  // on the order of frees), so heap_mb is the one gated.
  malloc_trim(0);
  result->metrics.Set("rss_mb", ResidentMb(), "MB");
  result->metrics.Set("heap_mb", HeapMb(), "MB");
  return log;
}

void RecordLatency(const PhaseLog& log, RunResult* result) {
  for (bool scaled : {false, true}) {
    const std::string prefix = scaled ? "" : "wall_";
    Samples latency = log.Latencies(scaled);
    result->metrics.Set(prefix + "p50_ms", latency.Percentile(50), "ms");
    result->metrics.Set(prefix + "p99_ms", latency.Percentile(99), "ms");
    result->metrics.Set(prefix + "qps", log.Throughput(scaled), "1/s");
    if (!scaled) {
      result->metrics.Set("latency_samples", static_cast<double>(latency.size()), "count");
    }
  }
  result->metrics.Set("core_speed", log.MedianSpeed(), "ratio");
}

}  // namespace bench
}  // namespace aplus
