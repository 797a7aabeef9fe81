#ifndef APLUS_BENCHMARK_WORKLOAD_H_
#define APLUS_BENCHMARK_WORKLOAD_H_

// What one aplus_bench process runs: a workload, its run configuration,
// and the helpers the four workloads share.
//
// Span and sample names carry their unit as a suffix (`_s`, `_ms`,
// `_us`); main.cc turns every one of them into per-layer metrics of the
// same name, so a new span needs no other registration.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "harness.h"

namespace aplus {
namespace bench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;  // length of the timed phase
  bool smoke = false;     // tiny scale, 1 s phases
  bool trace = false;
  bool corrupt_oracle = false;  // flips one expected answer (the smoke lane's negative test)
  std::string workdir = ".";    // scratch files (segments)
};

struct RunResult {
  MetricTable metrics;
  uint64_t attempted = 0;  // requests (and checked answers) attempted
  uint64_t failed = 0;     // failed requests plus wrong answers
  // Run context recorded in the result JSON (scales, rates, phases).
  std::map<std::string, std::string> context;

  void AddContext(const std::string& key, double value);
};

void RunRecsWire(const RunConfig& config, RunResult* result);
void RunFraudAdhoc(const RunConfig& config, RunResult* result);
void RunIngestMixed(const RunConfig& config, RunResult* result);
void RunSegmentCold(const RunConfig& config, RunResult* result);

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

// Repetitions of the set-up (and of segment_cold's open).
inline constexpr int kSetupReps = 3;

// The timed set-up of a workload: `generate` (untimed, traced as
// datagen.generate_s) followed by `setup` (timed, with a SpeedMonitor
// beside it), kSetupReps times, each state released before the next
// set-up. Returns the last state, the one served, or null when a set-up
// failed. setup_s is the median of the set-up times scaled to the
// reference core speed (each time times the median speed factor of its
// own probes); wall_setup_s the median as measured.
std::unique_ptr<Database> TimedSetup(
    RunResult* result, const std::function<Graph()>& generate,
    const std::function<std::unique_ptr<Database>(Graph)>& setup);

// Disables tracing for its lifetime: oracle passes over reference
// databases must not count as the measured system's layers.
class TracePause {
 public:
  TracePause() : was_enabled_(tracer::Enabled()) { tracer::SetEnabled(false); }
  ~TracePause() { tracer::SetEnabled(was_enabled_); }
  TracePause(const TracePause&) = delete;
  TracePause& operator=(const TracePause&) = delete;

 private:
  bool was_enabled_;
};

// The benchmark's graphs: every edge joins two vertices drawn with a fixed
// power-law weight, vertex v weighing (v + 1)^-1/2 (so degrees have a
// power-law tail of exponent 3), and the seed only decides the wiring.
// The datagen generator grows its hubs by preferential attachment, which
// makes their share of all edges a random variable of the seed: index
// sizes, build times and per-request work then swung by 15-100% between
// seeds. Here every seed has the same expected degree of every vertex.
Graph PowerLawGraph(uint64_t num_vertices, double avg_degree, uint64_t seed);
// The LiveJournal analogue of Table I (vertex count times `scale`, the
// paper's average degree).
Graph LjAnalogue(double scale, uint64_t seed);

// Database construction plus BuildPrimaryIndexes (span
// index.build_primary_s).
std::unique_ptr<Database> BuildDatabase(Graph graph);
// ExecuteDdl under the span `span_name` (index.ddl_s.<view>). False, with
// the error on stderr, when the DDL is rejected.
bool RunDdl(Database* db, const char* span_name, const std::string& ddl);
// index.bytes_primary / bytes_secondary / edges_indexed and
// index_bytes_per_edge of `db`.
void RecordIndexMetrics(const Database& db, RunResult* result);

// Database::Prepare (span core.prepare_us). When the request is traced,
// ParseCypher first runs on its own under query.parse_us so the
// optimizer's share (prepare minus parse) can be derived.
std::unique_ptr<PreparedQuery> PrepareTraced(Database* db, const std::string& text);

// Binds every (name, value) pair (span core.bind_us) and executes (spans
// core.execute_us and `shape_span`), folding the output into an Answer.
struct ExecOutcome {
  Answer answer;
  bool ok = false;
  double exec_seconds = 0.0;  // as the engine reports it
};
ExecOutcome ExecuteTraced(PreparedQuery* query, const char* shape_span,
                          const std::vector<std::pair<std::string, Value>>& params,
                          int num_threads, FingerprintConsumer* consumer);

// Records one user request: its latency, and the engine-reported
// execution time beside the rest (request.exec_us, request.overhead_us).
void RecordRequestSplit(double latency_us, double exec_seconds);

// The vertices, in id order, that may anchor a request: those that have
// an out-edge and whose 2-hop reach (the summed degree of their in- and
// out-neighbours) is at most the 90th percentile. Requests anchored next
// to the hubs cost hundreds of times more than the rest, and a run's mean
// work would hinge on how many of them the seed's sample drew.
std::vector<vertex_id_t> LightSources(const Graph& graph);
// `count` anchors drawn from LightSources with `rng`.
std::vector<vertex_id_t> SampleSources(const Graph& graph, size_t count, Rng* rng);

// The timed phase of a run: `phase(seconds)` runs it and returns the
// requests it made. heap_mb (bytes held from malloc) and rss_mb (the
// resident set, once freed memory has been handed back) are taken right
// after it: what serving holds, not the set-up peak. In a traced run
// tracing alternates on and off every 250 ms, and trace.overhead_pct
// compares the scaled p50 latency of the traced and untraced halves.
PhaseLog MeasurePhase(const RunConfig& config, RunResult* result,
                      const std::function<PhaseLog(double seconds)>& phase);

// p50_ms, p99_ms and qps scaled to the reference core speed (see
// PhaseLog), the same as measured (wall_p50_ms, wall_p99_ms, wall_qps),
// core_speed, and the sample count behind the percentiles.
void RecordLatency(const PhaseLog& log, RunResult* result);

}  // namespace bench
}  // namespace aplus

#endif  // APLUS_BENCHMARK_WORKLOAD_H_
