// aplusd: the A+ index engine behind the wire protocol (docs/PROTOCOL.md).
//
//   aplusd [--port=N] [--workers=N] [--scale=F] [--deadline-ms=N]
//          [--graph=SEGMENT] [--seal=PATH]
//
// --workers is the maximum number of requests running at once (default
// 4); the server runs one more thread than that for the poll loop.
// --deadline-ms (0: none) sets the deadline of every EXECUTE that
// carries none, in place of APLUS_QUERY_TIMEOUT_MS.
//
// Serves the synthetic power-law financial workload of the benches
// (vertices with sequential IDs, :E edges with an integer `amt`
// property) so aplus_loadgen and external drivers have a deterministic
// dataset to query. --graph skips generation and serves a sealed
// segment file (storage/segment.h) instead: the file is mapped
// read-only and the graph and both primary indexes are served from the
// mapping, so startup copies no graph and builds no index. --seal
// generates the dataset, writes it to a segment file, and exits — the
// companion of --graph for ahead-of-time dataset preparation (a
// database opened with --graph is refused: it is already sealed). The
// engine settings are read once at startup (core/engine_config.h):
//   APLUS_MAX_CONCURRENT / APLUS_ADMISSION_QUEUE /
//   APLUS_ADMISSION_TIMEOUT_MS  — admission control (core/admission.h)
//   APLUS_QUERY_TIMEOUT_MS      — default per-query deadline
//   APLUS_MEM_CAP[_TOTAL]       — per-query / process memory budget
//   APLUS_SEGMENT_COMPRESS      — page layout of --seal

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "core/database.h"
#include "datagen/power_law_generator.h"
#include "server/server.h"
#include "util/rng.h"

using namespace aplus;  // NOLINT: binary brevity

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

bool FlagValue(const char* arg, const char* name, const char** value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  EngineConfig config = EngineConfig::FromEnv();
  ServerOptions options;
  options.port = 7601;
  double scale = 0.02;
  std::string graph_path;
  std::string seal_path;
  const char* value = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (FlagValue(argv[i], "--port", &value)) {
      options.port = std::atoi(value);
    } else if (FlagValue(argv[i], "--workers", &value)) {
      options.num_workers = std::atoi(value);
    } else if (FlagValue(argv[i], "--scale", &value)) {
      scale = std::atof(value);
    } else if (FlagValue(argv[i], "--deadline-ms", &value)) {
      const int64_t millis = std::atoll(value);
      if (millis >= 0) config.query_timeout_ms = millis;
    } else if (FlagValue(argv[i], "--graph", &value)) {
      graph_path = value;
    } else if (FlagValue(argv[i], "--seal", &value)) {
      seal_path = value;
    } else {
      std::fprintf(stderr,
                   "usage: aplusd [--port=N] [--workers=N] [--scale=F] [--deadline-ms=N] "
                   "[--graph=SEGMENT] [--seal=PATH]\n"
                   "  --workers=N  the maximum number of requests running at once "
                   "(default 4)\n");
      return 2;
    }
  }

  std::unique_ptr<Database> owned_db;
  if (!graph_path.empty()) {
    std::string error;
    owned_db = Database::OpenFromSegment(graph_path, &error, config);
    if (owned_db == nullptr) {
      std::fprintf(stderr, "aplusd: --graph=%s: %s\n", graph_path.c_str(), error.c_str());
      return 1;
    }
  } else {
    Graph graph;
    PowerLawParams params;
    params.num_vertices = std::max<uint64_t>(2000, static_cast<uint64_t>(1000000 * scale));
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
    owned_db = std::make_unique<Database>(std::move(graph), config);
    owned_db->BuildPrimaryIndexes();
  }
  Database& db = *owned_db;

  if (!seal_path.empty()) {
    std::string error;
    if (!db.SealToSegment(seal_path, &error)) {
      std::fprintf(stderr, "aplusd: --seal=%s: %s\n", seal_path.c_str(), error.c_str());
      return 1;
    }
    std::printf("aplusd: sealed %llu vertices, %llu edges to %s\n",
                static_cast<unsigned long long>(db.graph().num_vertices()),
                static_cast<unsigned long long>(db.graph().num_edges()), seal_path.c_str());
    return 0;
  }

  Server server(&db, options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "aplusd: %s\n", error.c_str());
    return 1;
  }
  std::printf("aplusd listening on port %d (%llu vertices, %llu edges, %d workers)\n",
              server.port(), static_cast<unsigned long long>(db.graph().num_vertices()),
              static_cast<unsigned long long>(db.graph().num_edges()), options.num_workers);
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop) std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::printf("aplusd: shutting down (%llu queries served, "
              "plan cache %llu hits / %llu misses)\n",
              static_cast<unsigned long long>(server.queries()),
              static_cast<unsigned long long>(db.plan_cache().hits()),
              static_cast<unsigned long long>(db.plan_cache().misses()));
  server.Stop();
  return 0;
}
