// Parallel-scaling benchmark for morsel-driven Plan::Execute: sweeps
// worker counts over intersection-heavy triangle plans on (1) the PR 2
// power-law intersection graph shape and (2) a Table I dataset analogue
// (Brk), reporting per-thread-count runtimes and speedups vs the serial
// executor. Counts are checked identical across thread counts on every
// run, so the bench doubles as a coarse differential.
//
// Env knobs: APLUS_SCALE (graph size multiplier), APLUS_PAR_MAX_THREADS
// (cap on the 1/2/4/8 sweep, e.g. the runner's core count),
// APLUS_PAR_REPS (timed repetitions, best-of), APLUS_BENCH_JSON
// (per-case metrics for scripts/bench_compare.py, keyed by thread
// count: "<workload>_t<k>").

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/power_law_generator.h"
#include "index/primary_index.h"
#include "query/plan.h"
#include "util/logging.h"
#include "util/timer.h"

using namespace aplus;  // NOLINT: bench brevity

namespace {

struct CaseResult {
  std::string workload;
  int threads = 1;
  double seconds = 0.0;
  double t1_seconds = 0.0;
  uint64_t matches = 0;

  double Speedup() const { return seconds > 0.0 ? t1_seconds / seconds : 0.0; }
};

// One workload: a graph + its forward primary index + a triangle plan.
struct Workload {
  std::string name;
  std::unique_ptr<Graph> graph;
  std::unique_ptr<PrimaryIndex> primary;
  std::unique_ptr<QueryGraph> query;
  std::unique_ptr<Plan> plan;
  // Executes per timed repetition: tiny-domain (pinned) plans finish in
  // microseconds each, so one rep times a batch.
  int exec_batch = 1;
};

// When `pin` is a valid vertex the triangle's `a` is bound to it: the
// scan domain collapses to one vertex, and Execute(k) fetches the first
// EXTEND's list once and splits its entries across the workers instead
// of scan morsels.
Workload MakeTriangleWorkload(std::string name, std::unique_ptr<Graph> graph,
                              vertex_id_t pin = kInvalidVertex) {
  Workload w;
  w.name = std::move(name);
  w.graph = std::move(graph);
  w.primary = std::make_unique<PrimaryIndex>(w.graph.get(), Direction::kFwd);
  w.primary->Build(IndexConfig::Default());
  label_t elabel = w.graph->catalog().FindEdgeLabel("E");

  w.query = std::make_unique<QueryGraph>();
  int a = w.query->AddVertex("a", kInvalidLabel, pin);
  int b = w.query->AddVertex("b");
  int c = w.query->AddVertex("c");
  w.query->AddEdge(a, b, elabel, "e0");
  w.query->AddEdge(a, c, elabel, "e1");
  w.query->AddEdge(b, c, elabel, "e2");

  auto list = [&](int bound_var, int target_v, int target_e) {
    ListDescriptor desc;
    desc.source = ListDescriptor::Source::kPrimary;
    desc.primary = w.primary.get();
    desc.bound_var = bound_var;
    desc.cats = {elabel};
    desc.target_vertex_var = target_v;
    desc.target_edge_var = target_e;
    desc.nbr_sorted = true;
    return desc;
  };
  PlanBuilder builder(w.graph.get(), w.query.get());
  w.plan = builder.Scan(a)
               .Extend(list(a, b, 0))
               .ExtendIntersect({list(a, c, 1), list(b, c, 2)}, c)
               .Build();
  return w;
}

}  // namespace

int main() {
  double scale = ScaleFromEnv(0.02);
  int reps = static_cast<int>(IntFromEnv("APLUS_PAR_REPS", 3));
  int max_threads = static_cast<int>(IntFromEnv("APLUS_PAR_MAX_THREADS", 8));
  unsigned cores = std::thread::hardware_concurrency();

  std::vector<Workload> workloads;
  {
    // The PR 2 intersection shape: power-law skew with a moderate
    // degree so triangle enumeration stays seconds-scale per sweep.
    auto graph = std::make_unique<Graph>();
    PowerLawParams params;
    params.num_vertices = std::max<uint64_t>(2000, static_cast<uint64_t>(1000000 * scale));
    params.avg_degree = 8.0;
    params.preferential_fraction = 0.75;
    GeneratePowerLawGraph(params, graph.get());
    workloads.push_back(MakeTriangleWorkload("triangle_pl", std::move(graph)));
  }
  {
    // Table I analogue (Brk: 685K vertices, avg degree 11.09 at scale 1).
    size_t count = 0;
    const DatasetSpec* specs = TableOneDatasets(&count);
    const DatasetSpec* brk = specs;
    for (size_t i = 0; i < count; ++i) {
      if (specs[i].name == "Brk") brk = &specs[i];
    }
    auto graph = std::make_unique<Graph>();
    GenerateDataset(*brk, std::min(1.0, scale), /*seed=*/1003, graph.get());
    workloads.push_back(MakeTriangleWorkload("triangle_brk", std::move(graph)));
  }
  {
    // Single-vertex-domain triangle: `a` pinned to the highest-degree
    // hub of a fresh power-law graph. The scan offers one morsel, so
    // scaling here measures the split of the hub's one first-hop list
    // below the scan; each rep times a batch of executes.
    auto graph = std::make_unique<Graph>();
    PowerLawParams params;
    params.num_vertices = std::max<uint64_t>(2000, static_cast<uint64_t>(1000000 * scale));
    params.avg_degree = 8.0;
    params.preferential_fraction = 0.75;
    params.seed = 77;
    GeneratePowerLawGraph(params, graph.get());
    // Pin to the highest-degree vertex whose list stays moderate (<= 256
    // entries): the top hub's quadratic triangle neighbourhood would
    // make the case emission-bound, which is not what this case measures.
    PrimaryIndex degree_probe(graph.get(), Direction::kFwd);
    degree_probe.Build(IndexConfig::Default());
    vertex_id_t hub = 0;
    uint32_t best_len = 0;
    for (vertex_id_t v = 0; v < graph->num_vertices(); ++v) {
      uint32_t len = degree_probe.GetFullList(v).len;
      if (len > best_len && len <= 256) {
        best_len = len;
        hub = v;
      }
    }
    Workload w = MakeTriangleWorkload("pinned", std::move(graph), hub);
    w.exec_batch = 32;
    workloads.push_back(std::move(w));
  }

  std::vector<int> thread_counts;
  for (int k : {1, 2, 4, 8}) {
    if (k <= std::max(1, max_threads)) thread_counts.push_back(k);
  }

  PrintBanner("Morsel-driven parallel scaling (" + std::to_string(cores) + " hardware threads, " +
              std::to_string(reps) + " reps best-of)");
  TablePrinter table({"Workload", "threads", "seconds", "speedup", "matches"});
  std::vector<CaseResult> results;
  bool scaling_ok = true;
  for (Workload& w : workloads) {
    uint64_t t1_matches = 0;
    double t1_seconds = 0.0;
    for (int k : thread_counts) {
      QueryOutcome warm = w.plan->Execute(k);  // warm-up: replicas + pool threads + scratch
      APLUS_CHECK(warm.ok()) << w.name << " t" << k << ": " << ToString(warm.status);
      const uint64_t matches = warm.count;
      double best = -1.0;
      for (int r = 0; r < reps; ++r) {
        WallTimer timer;
        QueryOutcome got;
        for (int e = 0; e < w.exec_batch; ++e) got = w.plan->Execute(k);
        double elapsed = timer.ElapsedSeconds();
        APLUS_CHECK(got.ok()) << w.name << " t" << k << ": " << ToString(got.status);
        APLUS_CHECK_EQ(got.count, matches) << w.name << " t" << k << " count drifted across reps";
        if (best < 0.0 || elapsed < best) best = elapsed;
      }
      if (k == 1) {
        t1_matches = matches;
        t1_seconds = best;
      }
      APLUS_CHECK_EQ(matches, t1_matches)
          << w.name << ": Execute(" << k << ") disagrees with the serial count";
      CaseResult r;
      r.workload = w.name;
      r.threads = k;
      r.seconds = best;
      r.t1_seconds = t1_seconds;
      r.matches = matches;
      table.AddRow({w.name + " (" + TablePrinter::Count(w.graph->num_edges()) + " edges)",
                    std::to_string(k), TablePrinter::Seconds(r.seconds),
                    TablePrinter::Speedup(r.t1_seconds, r.seconds),
                    TablePrinter::Count(r.matches)});
      results.push_back(r);
      // Expected scaling on multi-core hosts: >= 0.6x the core count the
      // sweep can actually use (oversubscribed thread counts excluded).
      // The pinned case splits at most a few hundred entries into small
      // morsels and pays the thread wake-up per microsecond-long
      // execute, so it gets a softer 0.5x bar (t4 >= 2x t1).
      if (cores > 1 && static_cast<unsigned>(k) <= cores && k > 1) {
        double target = (w.exec_batch > 1 ? 0.5 : 0.6) * k;
        if (r.Speedup() < target) scaling_ok = false;
      }
    }
  }
  table.Print();
  std::printf(
      "\nShape: morsels carve the leading scan's vertex domain; workers run\n"
      "cloned allocation-free pipelines over a read-only graph, so speedup\n"
      "tracks the core count until the scan domain or memory bandwidth\n"
      "saturates. Single-core hosts time the oversubscribed (correctness)\n"
      "path only.\n");
  if (cores > 1 && !scaling_ok) {
    std::printf("WARNING: scaling below 0.6x cores on this host (see table).\n");
  }

  const char* json_path = std::getenv("APLUS_BENCH_JSON");
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    APLUS_CHECK(f != nullptr) << "cannot write " << json_path;
    std::fprintf(f, "{\n  \"bench\": \"bench_parallel_scaling\",\n  \"cores\": %u,\n", cores);
    std::fprintf(f, "  \"cases\": {\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      std::fprintf(f,
                   "    \"%s_t%d\": {\"seconds\": %.6f, \"threads\": %d, "
                   "\"speedup_vs_t1\": %.3f, \"matches\": %llu}%s\n",
                   r.workload.c_str(), r.threads, r.seconds, r.threads, r.Speedup(),
                   static_cast<unsigned long long>(r.matches), i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("Wrote per-case metrics to %s\n", json_path);
  }
  return 0;
}
