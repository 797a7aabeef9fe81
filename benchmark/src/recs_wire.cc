// recs_wire: MagicRecs serving over TCP.
//
// An LJ analogue with an edge `time` property and the paper's VPt view
// (a 1-hop view sorted on eadj.time) is served by an in-process Server
// with one worker. One closed-loop client connection sends 70% prepared
// MR2 counts and 30% top-10 recommendations, both pinned at a1 = $src
// with e.time < $alpha at 5% selectivity. Per request the wire round trip
// dominates execution, so this workload moves with the server layer
// (poll loop, plan-cache lease, Bind, result encoding).
//
// Client, poll loop and worker share the run's one CPU (see main.cc): a
// round trip is the CPU work of both ends plus local context switches.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "datagen/financial_props.h"
#include "server/client.h"
#include "server/server.h"
#include "workload.h"

namespace aplus {
namespace bench {
namespace {

constexpr const char* kTexts[] = {
    // MR2 (Figure 4b): a1 recently followed a2 and a3; a4 follows both.
    "MATCH (a1)-[e1:E]->(a2), (a1)-[e2:E]->(a3), (a4)-[f1:E]->(a2), (a4)-[f2:E]->(a3) "
    "WHERE a1.ID = $src, e1.time < $alpha, e2.time < $alpha RETURN COUNT(*)",
    // Top-10 recommendations: followers of the accounts a1 recently
    // followed, ranked by how many of them they follow.
    "MATCH (a1)-[e1:E]->(a2)<-[f1:E]-(a4) WHERE a1.ID = $src, e1.time < $alpha "
    "RETURN a4, COUNT(*) ORDER BY COUNT(*) DESC LIMIT 10",
};
constexpr const char* kShapeSpans[] = {"core.execute_us.mr2", "core.execute_us.top10"};
constexpr int kNumTexts = 2;
constexpr double kMr2Share = 0.7;

constexpr int64_t kTimeRange = 1000000;
constexpr int64_t kAlpha = kTimeRange / 20;  // e.time < alpha holds for 5% of edges
constexpr size_t kNumSources = 16384;
constexpr int kWorkers = 1;
constexpr double kInf = HUGE_VAL;

struct Expected {
  std::vector<vertex_id_t> sources;
  std::vector<Answer> answers[kNumTexts];  // [text][source index]
};

// One connection with both statements prepared.
struct Connection {
  Client client;
  uint32_t stmt[kNumTexts] = {0, 0};
};

bool Connect(int port, Connection* conn) {
  std::string error;
  if (!conn->client.Connect("127.0.0.1", port, &error)) {
    std::fprintf(stderr, "connect: %s\n", error.c_str());
    return false;
  }
  for (int t = 0; t < kNumTexts; ++t) {
    Client::PreparedInfo info = conn->client.Prepare(kTexts[t]);
    if (!info.ok()) {
      std::fprintf(stderr, "wire prepare: %s\n", info.error.c_str());
      return false;
    }
    conn->stmt[t] = info.stmt_id;
  }
  return true;
}

// Sends one request and checks the answer. Returns the round trip in
// microseconds, or a negative value when the request failed or answered
// wrongly.
double SendChecked(Connection* conn, int text, size_t src_idx, const Expected& expected,
                   uint64_t request_id) {
  RequestScope scope(request_id);
  int64_t start = NowNanos();
  Client::Result r;
  {
    Span span("server.rtt_us");
    r = conn->client.Execute(
        conn->stmt[text],
        {{"src", Value::Int64(static_cast<int64_t>(expected.sources[src_idx]))},
         {"alpha", Value::Int64(kAlpha)}});
  }
  double rtt_us = static_cast<double>(NowNanos() - start) * 1e-3;
  if (!r.ok()) return -1.0;
  Answer got{r.count, r.rows_delivered, HashDecodedRows(r.rows)};
  if (got != expected.answers[text][src_idx]) return -1.0;
  tracer::Sample("server.exec_us", r.seconds * 1e6);
  tracer::Sample("server.overhead_us", rtt_us - r.seconds * 1e6);
  RecordRequestSplit(rtt_us, r.seconds);
  return rtt_us;
}

// Closed loop: the connection sends its next request as soon as the
// previous one answered.
PhaseLog RunClosed(Connection* conn, double seconds, const Expected& expected, uint64_t seed,
                   RunResult* result) {
  const int64_t start = NowNanos();
  PhaseLog log(start, start + static_cast<int64_t>(seconds * 1e9));
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 77);
  for (uint64_t n = 1; NowNanos() < log.end_nanos(); ++n) {
    log.Probe();
    int text = rng.Uniform() < kMr2Share ? 0 : 1;
    size_t src = rng.Below(expected.sources.size());
    double rtt = SendChecked(conn, text, src, expected, n);
    result->attempted++;
    if (rtt < 0) result->failed++;
    log.Add(NowNanos(), rtt < 0 ? kInf : rtt * 1e-3);
  }
  return log;
}

// Serves `db` over TCP: the warm-up and the timed phase, every wire
// answer checked against `expected`.
void Serve(Database* db, const Expected& expected, const RunConfig& config, RunResult* result) {
  ServerOptions options;
  options.num_workers = kWorkers;
  Server server(db, options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "server start: %s\n", error.c_str());
    result->failed++;
    return;
  }
  Connection conn;
  if (!Connect(server.port(), &conn)) {
    result->failed++;
    server.Stop();
    return;
  }

  // Warm-up: every (text, source) pair once over the wire, untimed.
  {
    TracePause pause;
    for (int t = 0; t < kNumTexts; ++t) {
      for (size_t i = 0; i < expected.sources.size(); ++i) {
        result->attempted++;
        if (SendChecked(&conn, t, i, expected, 0) < 0) result->failed++;
      }
    }
  }

  PhaseLog log = MeasurePhase(config, result, [&](double seconds) {
    return RunClosed(&conn, seconds, expected, config.seed, result);
  });
  RecordLatency(log, result);

  Client::Stats stats = conn.client.GetStats();
  if (stats.ok) {
    uint64_t lookups = stats.cache_hits + stats.cache_misses;
    result->metrics.Set("server.plan_cache_hit_ratio",
                        lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0,
                        "ratio");
    result->metrics.Set("server.batch_saved", static_cast<double>(stats.batch_saved), "count");
  }
  conn.client.Close();
  server.Stop();
}

}  // namespace

void RunRecsWire(const RunConfig& config, RunResult* result) {
  const double scale = config.smoke ? 0.001 : 0.02;
  result->AddContext("dataset_scale", scale);
  result->AddContext("time_range", static_cast<double>(kTimeRange));
  result->AddContext("clients", 1);
  result->AddContext("server_workers", kWorkers);

  std::unique_ptr<Database> db = TimedSetup(
      result,
      [&] {
        Graph graph = LjAnalogue(scale, config.seed);
        AddTimeProperty(config.seed + 1, kTimeRange, &graph);
        return graph;
      },
      [&](Graph graph) -> std::unique_ptr<Database> {
        std::unique_ptr<Database> built = BuildDatabase(std::move(graph));
        if (!RunDdl(built.get(), "index.ddl_s.VPt",
                    "CREATE 1-HOP VIEW VPt MATCH vs-[eadj]->vd INDEX AS FW "
                    "PARTITION BY eadj.label SORT BY eadj.time")) {
          return nullptr;
        }
        return built;
      });
  if (db == nullptr) {
    result->failed++;
    return;
  }
  RecordIndexMetrics(*db, result);

  // The embedded answer of every (text, source) pair is the oracle each
  // wire response is checked against.
  Expected expected;
  {
    Rng rng(config.seed ^ 0x5eed5eedULL);
    expected.sources = SampleSources(db->graph(), kNumSources, &rng);
  }
  uint64_t matches = 0;
  uint64_t rows = 0;
  FingerprintConsumer consumer;
  for (int t = 0; t < kNumTexts; ++t) {
    std::unique_ptr<PreparedQuery> query = PrepareTraced(db.get(), kTexts[t]);
    result->attempted++;
    if (!query->ok()) {
      std::fprintf(stderr, "prepare: %s\n", query->error().c_str());
      result->failed++;
      return;
    }
    for (vertex_id_t src : expected.sources) {
      ExecOutcome out = ExecuteTraced(
          query.get(), kShapeSpans[t],
          {{"src", Value::Int64(static_cast<int64_t>(src))}, {"alpha", Value::Int64(kAlpha)}}, 1,
          &consumer);
      if (!out.ok) result->failed++;
      expected.answers[t].push_back(out.answer);
      matches += out.answer.count;
      rows += out.answer.rows;
    }
  }
  result->metrics.Set("core.matches", static_cast<double>(matches), "count");
  result->metrics.Set("core.rows", static_cast<double>(rows), "count");
  if (config.corrupt_oracle) expected.answers[0][0].hash ^= 1;

  Serve(db.get(), expected, config, result);
}

}  // namespace bench
}  // namespace aplus
