// ingest_mixed: writes beside reads.
//
// A power-law graph is served while new edges stream in through the
// concurrent-ingest path (Graph::AddEdge + Maintainer::OnEdgeInserted,
// background merger on). One closed-loop client runs prepared `$src`
// 2-hop counts and, after every kReadsPerBatch of them, inserts a batch
// of kBatchEdges edges. It is the only workload that exercises delta
// buffers, merges and epochs, so it shows a read-path gain that costs
// writes, or the reverse: slower inserts take time from the same loop
// and lower qps.
//
// The inserts ride the client's loop rather than a timer-driven writer
// thread: on a shared virtual machine a 1 ms timer fires late and in
// bunches depending on host load. With such a writer the reader's
// scaled qps spread 0.20 over 10 seeds while the core's speed held
// steady; with this loop, 0.04-0.06.
//
// Correctness: inserts only add paths, so every count read must lie
// between the source's count before ingest and after it; after
// EndConcurrentIngest the counts of every sampled source must equal those
// of a database built from scratch over the same edges.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "workload.h"

namespace aplus {
namespace bench {
namespace {

constexpr const char* kTwoHop =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = $src RETURN COUNT(*)";
constexpr size_t kNumSources = 16384;
constexpr int kBatchEdges = 10;
// ~110K reads/s: ~9K inserted edges/s.
constexpr uint64_t kReadsPerBatch = 128;
// Edges held back for the stream, per second of phase: room for reads
// five times faster than today's.
constexpr double kStreamEdgesPerSecond = 50000;
constexpr double kAvgDegree = 8.0;

struct EdgeList {
  uint64_t num_vertices = 0;
  std::vector<vertex_id_t> src;
  std::vector<vertex_id_t> dst;
};

// A graph holding the first `count` edges of `edges`.
Graph GraphOf(const EdgeList& edges, size_t count) {
  Graph graph;
  label_t vlabel = graph.catalog().AddVertexLabel("V");
  label_t elabel = graph.catalog().AddEdgeLabel("E");
  for (uint64_t v = 0; v < edges.num_vertices; ++v) graph.AddVertex(vlabel);
  for (size_t e = 0; e < count; ++e) graph.AddEdge(edges.src[e], edges.dst[e], elabel);
  return graph;
}

// Counts of the 2-hop query for every source on `db`; failed executions
// are added to `*failures`.
std::vector<uint64_t> CountAll(Database* db, const std::vector<vertex_id_t>& sources,
                               uint64_t* failures) {
  std::unique_ptr<PreparedQuery> q = db->Prepare(kTwoHop);
  FingerprintConsumer consumer;
  std::vector<uint64_t> counts;
  for (vertex_id_t src : sources) {
    ExecOutcome out = ExecuteTraced(q.get(), "core.execute_us.two_hop",
                                    {{"src", Value::Int64(static_cast<int64_t>(src))}}, 1,
                                    &consumer);
    if (!out.ok) (*failures)++;
    counts.push_back(out.answer.count);
  }
  return counts;
}

// The lowest and highest count read for each source.
struct Observed {
  std::vector<uint64_t> low;
  std::vector<uint64_t> high;

  explicit Observed(size_t sources) : low(sources, UINT64_MAX), high(sources, 0) {}
  void Add(size_t source, uint64_t count) {
    low[source] = std::min(low[source], count);
    high[source] = std::max(high[source], count);
  }
};

}  // namespace

void RunIngestMixed(const RunConfig& config, RunResult* result) {
  const uint64_t num_vertices = config.smoke ? 5000 : 250000;
  const uint64_t stream_edges =
      static_cast<uint64_t>(kStreamEdgesPerSecond * (config.seconds + 1.0));
  const uint64_t base_edges = static_cast<uint64_t>(num_vertices * kAvgDegree);
  result->AddContext("num_vertices", static_cast<double>(num_vertices));
  result->AddContext("base_edges", static_cast<double>(base_edges));
  result->AddContext("reads_per_batch", static_cast<double>(kReadsPerBatch));
  result->AddContext("batch_edges", kBatchEdges);
  result->AddContext("clients", 1);

  EdgeList edges;
  auto generate = [&] {
    if (edges.src.empty()) {
      Graph generated =
          PowerLawGraph(num_vertices, static_cast<double>(base_edges + stream_edges) / num_vertices,
                        config.seed);
      edges.num_vertices = generated.num_vertices();
      edges.src.resize(generated.num_edges());
      edges.dst.resize(generated.num_edges());
      for (edge_id_t e = 0; e < generated.num_edges(); ++e) {
        edges.src[e] = generated.edge_src(e);
        edges.dst[e] = generated.edge_dst(e);
      }
    }
    // The tail of the generated edges is held back as the ingest stream.
    return GraphOf(edges, std::min<size_t>(base_edges, edges.src.size()));
  };
  std::unique_ptr<Database> db =
      TimedSetup(result, generate, [](Graph graph) { return BuildDatabase(std::move(graph)); });
  RecordIndexMetrics(*db, result);
  const label_t elabel = db->graph().catalog().FindEdgeLabel("E");
  size_t next_edge = db->graph().num_edges();

  std::vector<vertex_id_t> sources;
  {
    Rng rng(config.seed ^ 0x1a9e57ULL);
    sources = SampleSources(db->graph(), kNumSources, &rng);
  }
  std::vector<uint64_t> before;
  {
    TracePause pause;
    before = CountAll(db.get(), sources, &result->failed);
  }
  // Prepared before the ingest phase: Prepare must not race the merger.
  std::unique_ptr<PreparedQuery> reader = PrepareTraced(db.get(), kTwoHop);

  Observed observed(sources.size());
  Samples write_ms;
  PhaseLog log = MeasurePhase(config, result, [&](double seconds) {
    ConcurrentIngestOptions options;
    options.max_vertices = edges.num_vertices;
    options.max_edges = edges.src.size();
    db->BeginConcurrentIngest(options);
    const int64_t start = NowNanos();
    PhaseLog phase(start, start + static_cast<int64_t>(seconds * 1e9));
    Rng rng(config.seed * 131);
    FingerprintConsumer consumer;
    for (uint64_t n = 1; NowNanos() < phase.end_nanos(); ++n) {
      phase.Probe();
      if (n % kReadsPerBatch == 0 && next_edge + kBatchEdges <= edges.src.size()) {
        int64_t t0 = NowNanos();
        {
          Span span("index.ingest_batch_us");
          for (int i = 0; i < kBatchEdges; ++i, ++next_edge) {
            edge_id_t e = db->graph().AddEdge(edges.src[next_edge], edges.dst[next_edge], elabel);
            if (e == kInvalidEdge) break;
            db->maintainer().OnEdgeInserted(e);
          }
        }
        write_ms.Add(static_cast<double>(NowNanos() - t0) * 1e-6);
      }
      RequestScope scope(n);
      uint32_t i = static_cast<uint32_t>(rng.Below(sources.size()));
      int64_t t0 = NowNanos();
      ExecOutcome out = ExecuteTraced(reader.get(), "core.execute_us.two_hop",
                                      {{"src", Value::Int64(static_cast<int64_t>(sources[i]))}},
                                      1, &consumer);
      double us = static_cast<double>(NowNanos() - t0) * 1e-3;
      result->attempted++;
      if (!out.ok) {
        result->failed++;
        phase.Add(NowNanos(), HUGE_VAL);
        continue;
      }
      RecordRequestSplit(us, out.exec_seconds);
      phase.Add(NowNanos(), us * 1e-3);
      observed.Add(i, out.answer.count);
    }
    {
      Span span("index.ingest_flush_s");
      db->EndConcurrentIngest();
    }
    return phase;
  });
  RecordLatency(log, result);
  result->metrics.Set("wall_write_p99_ms", write_ms.Percentile(99), "ms");
  result->metrics.Set("index.background_merges",
                      static_cast<double>(db->maintainer().background_merges()), "count");
  result->AddContext("edges_ingested", static_cast<double>(next_edge - base_edges));

  // Oracle: a database built from scratch over every edge that went in.
  // The served database is released first so the two never coexist.
  TracePause pause;
  std::vector<uint64_t> served = CountAll(db.get(), sources, &result->failed);
  reader.reset();
  db.reset();
  std::unique_ptr<Database> fresh = BuildDatabase(GraphOf(edges, next_edge));
  std::vector<uint64_t> after = CountAll(fresh.get(), sources, &result->failed);
  if (config.corrupt_oracle) after[0] ^= 1;
  uint64_t matches = 0;
  for (size_t i = 0; i < sources.size(); ++i) {
    result->attempted++;
    if (served[i] != after[i]) result->failed++;
    matches += before[i];
  }
  for (size_t i = 0; i < sources.size(); ++i) {
    bool seen = observed.low[i] <= observed.high[i];
    if (seen && (observed.low[i] < before[i] || observed.high[i] > after[i])) result->failed++;
  }
  result->metrics.Set("core.matches", static_cast<double>(matches), "count");
  result->metrics.Set("core.rows", static_cast<double>(sources.size()), "count");
}

}  // namespace bench
}  // namespace aplus
