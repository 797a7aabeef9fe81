// Server-layer load generator (built as both `bench_server` and its
// operator-facing alias `aplus_loadgen`): drives the aplusd wire
// protocol with N concurrent connections issuing a prepared
// point-lookup + grouped-aggregate mix, and reports queries/s with
// p50/p99 request latencies.
//
//   * "point_c1_w1" / "point_c8_w4": the acceptance arms — prepared
//     point-lookups on 1 connection x 1 worker vs 8 connections x 4
//     workers. Target: >= 5x queries/s (cross-connection concurrency,
//     not per-query parallelism).
//   * "mix_c8_w<k>": the 80/20 point-lookup / grouped-aggregate mix on
//     8 connections at 1..8 workers (the worker-pool scaling sweep).
//   * "overload": admission capped at 1 running / 0 queued while 8
//     connections fire; every request must complete with either OK or
//     a typed OVERLOADED frame — no hangs, no connection drops.
//
// The shared-plan-cache hit rate across the whole run is reported and
// (in strict mode) gated at >= 90%: each arm re-prepares both texts on
// every connection, so all prepares after the first two per text must
// hit.
//
// By default the bench spins up an in-process Server on an ephemeral
// loopback port (same engine, real sockets). Point APLUS_SERVER_ADDR at
// a running aplusd (host:port) to drive an external server instead —
// the sweep then reuses that server's worker pool for every arm and
// the overload arm is skipped (admission is server-side config).
//
// Env knobs: APLUS_SCALE (graph size), APLUS_SERVER_REQS (requests per
// connection per arm), APLUS_BENCH_JSON (per-case metrics),
// APLUS_BENCH_STRICT=1 (fail the process when the scaling, hit-rate or
// overload acceptance targets are missed).
//
// APLUS_LOADGEN_SEAL=<path> switches the binary into dataset-prep mode:
// it generates the bench dataset at APLUS_SCALE, seals it to a segment
// file (storage/segment.h) and exits. The workflow for driving an
// external server on the exact same dataset:
//
//   APLUS_LOADGEN_SEAL=/tmp/bench.seg aplus_loadgen
//   aplusd --graph=/tmp/bench.seg &
//   APLUS_SERVER_ADDR=127.0.0.1:7601 aplus_loadgen

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/database.h"
#include "datagen/power_law_generator.h"
#include "server/client.h"
#include "server/server.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace aplus;  // NOLINT: bench brevity

namespace {

constexpr const char* kPointLookup =
    "MATCH (a)-[r:E]->(b) WHERE a.ID = $src RETURN b, r.amt";
constexpr const char* kGroupedAgg =
    "MATCH (a)-[r:E]->(b) WHERE a.ID = $src "
    "RETURN b, COUNT(*), SUM(r.amt)";
// Single-source triangle count — the paper's per-request serving query
// (same text as bench_serving's prepared arm). The acceptance arms use
// it because its per-request execution dominates the wire round-trip,
// which is what worker-pool scaling can actually speed up.
constexpr const char* kPointTriangle =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) "
    "WHERE a.ID = $src RETURN COUNT(*)";
// Whole-graph triangle count: the overload arm's slot occupant (slow
// enough to hold the single admission slot while point lookups arrive).
constexpr const char* kHeavyOccupant =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)";

struct ArmResult {
  std::string name;
  double seconds = 0.0;
  uint64_t queries = 0;
  int connections = 0;
  int workers = 0;
  double qps = 0.0;
  double p50_micros = 0.0;
  double p99_micros = 0.0;
};

double Percentile(std::vector<double>* sorted_micros, double p) {
  if (sorted_micros->empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted_micros->size() - 1));
  return (*sorted_micros)[idx];
}

// One connection's share of an arm: prepare both statements, run
// `requests` point-lookups (and every 5th request a grouped aggregate
// instead when `mixed`), recording per-request latency.
void RunConnection(const std::string& host, int port, const char* point_text,
                   const std::vector<vertex_id_t>& sources, uint64_t requests, bool mixed,
                   uint32_t seed, std::vector<double>* latencies_micros,
                   std::atomic<uint64_t>* failures) {
  Client client;
  std::string error;
  if (!client.Connect(host, port, &error)) {
    std::fprintf(stderr, "connect failed: %s\n", error.c_str());
    failures->fetch_add(requests);
    return;
  }
  Client::PreparedInfo point = client.Prepare(point_text);
  Client::PreparedInfo agg = client.Prepare(kGroupedAgg);
  if (!point.ok() || !agg.ok()) {
    std::fprintf(stderr, "prepare failed: %s%s\n", point.error.c_str(), agg.error.c_str());
    failures->fetch_add(requests);
    return;
  }
  Rng rng(seed);
  latencies_micros->reserve(requests);
  for (uint64_t i = 0; i < requests; ++i) {
    vertex_id_t src = sources[rng.NextBounded(sources.size())];
    bool use_agg = mixed && (i % 5 == 4);
    WallTimer timer;
    Client::Result r = client.Execute(use_agg ? agg.stmt_id : point.stmt_id,
                                      {{"src", Value::Int64(static_cast<int64_t>(src))}});
    double micros = timer.ElapsedSeconds() * 1e6;
    if (!r.ok()) {
      failures->fetch_add(1);
    } else {
      latencies_micros->push_back(micros);
    }
  }
  client.Close();
}

// Runs one arm: `connections` client threads x `requests` each against
// host:port. Latencies are merged and summarized.
ArmResult RunArm(const std::string& name, const std::string& host, int port,
                 const char* point_text, int connections, int workers,
                 const std::vector<vertex_id_t>& sources, uint64_t requests, bool mixed) {
  std::vector<std::vector<double>> per_conn(static_cast<size_t>(connections));
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  WallTimer timer;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back(RunConnection, host, port, point_text, std::cref(sources), requests,
                         mixed, static_cast<uint32_t>(1000 + c),
                         &per_conn[static_cast<size_t>(c)], &failures);
  }
  for (std::thread& t : threads) t.join();
  double elapsed = timer.ElapsedSeconds();

  std::vector<double> all;
  for (std::vector<double>& v : per_conn) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  APLUS_CHECK_EQ(failures.load(), 0u) << name << ": requests failed";

  ArmResult r;
  r.name = name;
  r.seconds = elapsed;
  r.queries = all.size();
  r.connections = connections;
  r.workers = workers;
  r.qps = elapsed > 0.0 ? static_cast<double>(all.size()) / elapsed : 0.0;
  r.p50_micros = Percentile(&all, 0.50);
  r.p99_micros = Percentile(&all, 0.99);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  double scale = ScaleFromEnv(0.02);
  uint64_t requests = IntFromEnv("APLUS_SERVER_REQS", 2000);
  bool strict = false;
  if (const char* env = std::getenv("APLUS_BENCH_STRICT")) {
    strict = std::strcmp(env, "0") != 0;
  }

  // External-server mode: APLUS_SERVER_ADDR=host:port.
  std::string ext_host;
  int ext_port = 0;
  if (const char* addr = std::getenv("APLUS_SERVER_ADDR")) {
    const char* colon = std::strrchr(addr, ':');
    if (colon != nullptr && colon != addr) {
      ext_host.assign(addr, static_cast<size_t>(colon - addr));
      ext_port = std::atoi(colon + 1);
    }
    if (ext_host.empty() || ext_port <= 0) {
      std::fprintf(stderr, "bad APLUS_SERVER_ADDR '%s' (want host:port)\n", addr);
      return 1;
    }
  }
  const bool external = !ext_host.empty();

  // Same dataset as bench_serving / aplusd --scale: sources drawn from
  // the moderate-out-degree bulk so per-request work stays point-sized.
  std::unique_ptr<Database> db;
  std::vector<vertex_id_t> sources;
  if (!external) {
    Graph graph;
    PowerLawParams params;
    params.num_vertices = std::max<uint64_t>(2000, static_cast<uint64_t>(1000000 * scale));
    params.avg_degree = 8.0;
    params.preferential_fraction = 0.75;
    params.seed = 97;
    GeneratePowerLawGraph(params, &graph);
    prop_key_t amt_key = graph.AddEdgeProperty("amt", ValueType::kInt64);
    PropertyColumn* amt = graph.edge_props().mutable_column(amt_key);
    Rng rng(13);
    for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
      amt->SetInt64(e, static_cast<int64_t>(rng.NextBounded(10000)));
    }
    uint64_t num_vertices = graph.num_vertices();
    std::vector<uint32_t> out_degree(num_vertices, 0);
    for (edge_id_t e = 0; e < graph.num_edges(); ++e) out_degree[graph.edge_src(e)]++;
    for (vertex_id_t v = 0; v < num_vertices; ++v) {
      if (out_degree[v] >= 1 && out_degree[v] <= 8) sources.push_back(v);
    }
    if (sources.empty()) {
      for (vertex_id_t v = 0; v < num_vertices; ++v) sources.push_back(v);
    }
    db = std::make_unique<Database>(std::move(graph));
    db->BuildPrimaryIndexes();
  } else {
    // The external server generated its own graph (aplusd --scale); the
    // same ID space bound keeps the lookups point-sized.
    uint64_t num_vertices = std::max<uint64_t>(2000, static_cast<uint64_t>(1000000 * scale));
    for (vertex_id_t v = 0; v < num_vertices; ++v) sources.push_back(v);
  }

  // Dataset-prep mode: seal the generated dataset for `aplusd --graph`.
  if (const char* seal = std::getenv("APLUS_LOADGEN_SEAL")) {
    if (external) {
      std::fprintf(stderr,
                   "APLUS_LOADGEN_SEAL requires in-process mode (unset APLUS_SERVER_ADDR)\n");
      return 1;
    }
    std::string error;
    if (!db->SealToSegment(seal, &error)) {
      std::fprintf(stderr, "seal %s: %s\n", seal, error.c_str());
      return 1;
    }
    std::printf("aplus_loadgen: sealed %llu vertices, %llu edges to %s; "
                "serve it with aplusd --graph=%s\n",
                static_cast<unsigned long long>(db->graph().num_vertices()),
                static_cast<unsigned long long>(db->graph().num_edges()), seal, seal);
    return 0;
  }

  PrintBanner(std::string("aplus_loadgen (") +
              (external ? ext_host + ":" + std::to_string(ext_port)
                        : TablePrinter::Count(db->graph().num_edges()) + " edges, in-process") +
              ", " + std::to_string(requests) + " reqs/conn)");

  std::vector<ArmResult> results;
  TablePrinter table({"arm", "conns x workers", "queries/s", "p50", "p99"});
  auto add_row = [&](const ArmResult& r) {
    table.AddRow({r.name,
                  std::to_string(r.connections) + " x " + std::to_string(r.workers),
                  TablePrinter::Count(static_cast<uint64_t>(r.qps)),
                  TablePrinter::Seconds(r.p50_micros / 1e6),
                  TablePrinter::Seconds(r.p99_micros / 1e6)});
    results.push_back(r);
  };

  // Hit rate is measured AFTER warmup (the acceptance target): each
  // in-process server gets a small untimed warmup pass, the cache
  // counters are snapshotted, and only the deltas from the timed arm
  // count. Post-warmup prepares should all hit the shared cache.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double point_qps_c1w1 = 0.0;
  double point_qps_c8w4 = 0.0;
  uint64_t overloaded_frames = 0;
  uint64_t overload_completed = 0;

  auto snapshot_stats = [&](const std::string& host, int port, uint64_t* hits,
                            uint64_t* misses) {
    Client c;
    std::string err;
    if (!c.Connect(host, port, &err)) return;
    Client::Stats stats = c.GetStats();
    if (stats.ok) {
      *hits = stats.cache_hits;
      *misses = stats.cache_misses;
    }
    c.Close();
  };

  if (external) {
    // One mixed arm against the provided server; workers unknown (0).
    uint64_t h0 = 0, m0 = 0, h1 = 0, m1 = 0;
    ArmResult warm = RunArm("warmup", ext_host, ext_port, kPointLookup, 8, 0, sources,
                            std::min<uint64_t>(requests, 50), true);
    (void)warm;
    snapshot_stats(ext_host, ext_port, &h0, &m0);
    ArmResult mix =
        RunArm("mix_ext", ext_host, ext_port, kPointLookup, 8, 0, sources, requests, true);
    add_row(mix);
    snapshot_stats(ext_host, ext_port, &h1, &m1);
    cache_hits = h1 - h0;
    cache_misses = m1 - m0;
  } else {
    // Runs one in-process server at `workers` workers, warms the cache,
    // then times `conns` connections and accumulates post-warm deltas.
    auto run_server_arm = [&](const std::string& name, const char* point_text, int conns,
                              int workers, bool mixed) -> ArmResult {
      ServerOptions options;
      options.num_workers = workers;
      Server server(db.get(), options);
      std::string error;
      APLUS_CHECK(server.Start(&error)) << error;
      ArmResult warm =
          RunArm("warmup", "127.0.0.1", server.port(), point_text, conns, workers, sources,
                 std::min<uint64_t>(requests / 10 + 1, 200), mixed);
      (void)warm;
      uint64_t h0 = 0, m0 = 0, h1 = 0, m1 = 0;
      snapshot_stats("127.0.0.1", server.port(), &h0, &m0);
      ArmResult r = RunArm(name, "127.0.0.1", server.port(), point_text, conns, workers,
                           sources, requests, mixed);
      snapshot_stats("127.0.0.1", server.port(), &h1, &m1);
      cache_hits += h1 - h0;
      cache_misses += m1 - m0;
      server.Stop();
      return r;
    };

    // --- Acceptance arms: prepared point-lookups, 1x1 vs 8x4. ---
    {
      ArmResult r = run_server_arm("point_c1_w1", kPointTriangle, 1, 1, false);
      point_qps_c1w1 = r.qps;
      add_row(r);
    }
    {
      ArmResult r = run_server_arm("point_c8_w4", kPointTriangle, 8, 4, false);
      point_qps_c8w4 = r.qps;
      add_row(r);
    }

    // --- Worker-pool scaling sweep: 8 connections, 80/20 mix. ---
    for (int workers : {1, 2, 4, 8}) {
      add_row(
          run_server_arm("mix_c8_w" + std::to_string(workers), kPointLookup, 8, workers, true));
    }

    // --- Overload arm: admission 1 running / 0 queued. One blocker
    // connection keeps the single slot occupied with whole-graph
    // triangle counts while 7 connections fire point lookups; every
    // request must complete as OK or a typed OVERLOADED frame. ---
    {
      AdmissionConfig cap;
      cap.max_concurrent = 1;
      cap.max_queue = 0;
      cap.queue_timeout_ms = 0;
      db->admission().Configure(cap);
      ServerOptions options;
      options.num_workers = 4;
      Server server(db.get(), options);
      std::string error;
      APLUS_CHECK(server.Start(&error)) << error;
      const uint64_t per_conn = std::min<uint64_t>(requests, 200);
      std::atomic<uint64_t> overloaded{0};
      std::atomic<uint64_t> completed{0};
      std::atomic<bool> lookups_done{false};
      std::vector<std::thread> threads;
      WallTimer timer;
      threads.emplace_back([&]() {  // blocker: heavy executes back to back
        Client client;
        std::string err;
        if (!client.Connect("127.0.0.1", server.port(), &err)) return;
        Client::PreparedInfo heavy = client.Prepare(kHeavyOccupant);
        if (!heavy.ok()) return;
        while (!lookups_done.load(std::memory_order_relaxed)) {
          Client::Result r = client.Execute(heavy.stmt_id, {});
          completed.fetch_add(1);
          if (r.status == wire::WireStatus::kOverloaded) overloaded.fetch_add(1);
        }
        client.Close();
      });
      for (int c = 0; c < 7; ++c) {
        threads.emplace_back([&, c]() {
          Client client;
          std::string err;
          if (!client.Connect("127.0.0.1", server.port(), &err)) return;
          Client::PreparedInfo point = client.Prepare(kPointLookup);
          if (!point.ok()) return;
          Rng rng(static_cast<uint32_t>(77 + c));
          for (uint64_t i = 0; i < per_conn; ++i) {
            vertex_id_t src = sources[rng.NextBounded(sources.size())];
            Client::Result r = client.Execute(
                point.stmt_id, {{"src", Value::Int64(static_cast<int64_t>(src))}});
            completed.fetch_add(1);
            if (r.status == wire::WireStatus::kOverloaded) overloaded.fetch_add(1);
          }
          client.Close();
        });
      }
      for (size_t t = 1; t < threads.size(); ++t) threads[t].join();
      lookups_done.store(true, std::memory_order_relaxed);
      threads[0].join();
      double elapsed = timer.ElapsedSeconds();
      overloaded_frames = overloaded.load();
      overload_completed = completed.load();
      table.AddRow({"overload", "8 x 4",
                    TablePrinter::Count(overload_completed) + " done",
                    TablePrinter::Count(overloaded_frames) + " overloaded",
                    TablePrinter::Seconds(elapsed)});
      ArmResult ov;
      ov.name = "overload";
      ov.seconds = elapsed;
      ov.queries = overload_completed;
      ov.connections = 8;
      ov.workers = 4;
      results.push_back(ov);
      server.Stop();
      db->admission().Configure(AdmissionConfig{});  // restore: disabled
    }
  }

  table.Print();

  double hit_rate = (cache_hits + cache_misses) > 0
                        ? static_cast<double>(cache_hits) /
                              static_cast<double>(cache_hits + cache_misses)
                        : 0.0;
  double scaling = point_qps_c1w1 > 0.0 ? point_qps_c8w4 / point_qps_c1w1 : 0.0;
  std::printf("\nShared plan cache: %llu hits / %llu misses (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(cache_hits),
              static_cast<unsigned long long>(cache_misses), hit_rate * 100.0);
  if (!external) {
    std::printf("Point-lookup scaling: 8conn/4workers = %.1fx of 1conn/1worker "
                "(target >= 5x)\n", scaling);
    std::printf("Overload arm: %llu/%llu requests answered OVERLOADED, all completed\n",
                static_cast<unsigned long long>(overloaded_frames),
                static_cast<unsigned long long>(overload_completed));
  }

  const char* json_path = std::getenv("APLUS_BENCH_JSON");
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    APLUS_CHECK(f != nullptr) << "cannot write " << json_path;
    std::fprintf(f, "{\n  \"bench\": \"bench_server\",\n");
    std::fprintf(f, "  \"point_scaling\": %.3f,\n  \"cache_hit_rate\": %.4f,\n", scaling,
                 hit_rate);
    std::fprintf(f, "  \"overloaded_frames\": %llu,\n  \"cases\": {\n",
                 static_cast<unsigned long long>(overloaded_frames));
    for (size_t i = 0; i < results.size(); ++i) {
      const ArmResult& r = results[i];
      std::fprintf(f,
                   "    \"%s\": {\"seconds\": %.6f, \"rows\": %llu, \"qps\": %.1f, "
                   "\"p50_micros\": %.1f, \"p99_micros\": %.1f}%s\n",
                   r.name.c_str(), r.seconds, static_cast<unsigned long long>(r.queries),
                   r.qps, r.p50_micros, r.p99_micros, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("Wrote per-case metrics to %s\n", json_path);
  }

  // The 5x point-lookup scaling target needs hardware that can actually
  // run connections in parallel: on fewer than 4 cores every thread
  // serializes onto the same CPU and concurrency cannot beat latency.
  const unsigned cores = std::thread::hardware_concurrency();
  const bool scaling_measurable = cores >= 4;
  if (!external && !scaling_measurable) {
    std::printf("NOTE: %u core(s) visible; the 5x scaling target needs >= 4, "
                "reporting only.\n", cores);
  }

  if (strict && !external) {
    int rc = 0;
    if (scaling_measurable && scaling < 5.0) {
      std::fprintf(stderr, "STRICT FAIL: point-lookup scaling %.2fx < 5x\n", scaling);
      rc = 1;
    }
    if (hit_rate < 0.90) {
      std::fprintf(stderr, "STRICT FAIL: plan-cache hit rate %.1f%% < 90%%\n",
                   hit_rate * 100.0);
      rc = 1;
    }
    if (overloaded_frames == 0) {
      std::fprintf(stderr, "STRICT FAIL: overload arm produced no OVERLOADED frames\n");
      rc = 1;
    }
    if (overload_completed < 7 * std::min<uint64_t>(requests, 200)) {
      std::fprintf(stderr, "STRICT FAIL: overload arm dropped requests\n");
      rc = 1;
    }
    return rc;
  }
  if (!external) {
    if (scaling_measurable && scaling < 5.0) {
      std::printf("WARNING: point-lookup scaling %.2fx below the 5x target.\n", scaling);
    }
    if (hit_rate < 0.90) {
      std::printf("WARNING: plan-cache hit rate %.1f%% below the 90%% target.\n",
                  hit_rate * 100.0);
    }
  }
  return 0;
}
