#ifndef APLUS_QUERY_PLAN_H_
#define APLUS_QUERY_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "query/morsel.h"
#include "query/operators.h"

namespace aplus {

// The one result type of every execution: Plan::Execute fills `status`
// and `count`; PreparedQuery::Execute (core/session.h), which every
// query path runs through (prepared execution, one-shot Cypher,
// programmatic QueryGraph runs, wire requests), adds `error`, `rows` and
// `seconds`. Errors land in `status` + `error`, never in a magic count.
// The plan text is PreparedQuery::plan_text() or Database::Explain.
struct QueryOutcome {
  enum class Status : uint8_t {
    kOk = 0,
    kParseError,   // Cypher text did not parse
    kPlanError,    // no plan (disconnected / unsupported query)
    kBindError,    // unknown/unbound/type-mismatched parameter
    kInvalidated,  // indexes or graph changed since Prepare; re-prepare
    kExecError,    // execution failed
    // Execution aborted cleanly on a resource cap (the per-query memory
    // budget or the process ceiling); staged queries deliver no rows.
    kResourceExhausted,
    // Execution stopped at the deadline (set_deadline_millis, else
    // EngineConfig::query_timeout_ms). `count` carries the partial
    // match progress; staged queries deliver no rows, stage-less
    // projections may have streamed a partial prefix.
    kTimeout,
    // Execution stopped by PreparedQuery::Cancel() from another thread.
    // Partial-progress semantics match kTimeout.
    kCancelled,
    // Admission control rejected the execute: the concurrent-execute
    // slots were full and the wait queue was full or timed out
    // (EngineConfig::admission). Nothing ran; retry later.
    kOverloaded,
  };

  Status status = Status::kOk;
  std::string error;  // empty when ok()
  // Complete matches enumerated. Stage-less LIMIT queries stop early, so
  // count == min(LIMIT, matches) there; aggregate / ORDER BY queries
  // enumerate everything (their LIMIT caps the *output* rows).
  uint64_t count = 0;
  // Rows delivered through the sink pipeline: projected matches for
  // plain projections, post-aggregation/-ordering/-limit output rows for
  // staged queries (e.g. 1 for a global RETURN COUNT(*)), 0 for a bare
  // MATCH count.
  uint64_t rows = 0;
  double seconds = 0.0;

  bool ok() const { return status == Status::kOk; }
};

const char* ToString(QueryOutcome::Status status);

// The status of an execution that stopped for `reason`: kNone and a
// satisfied LIMIT are kOk, the others their namesake.
QueryOutcome::Status StatusOf(StopReason reason);

// A physical plan: a pipeline of push-based operators ending in a SinkOp.
// Plans are produced by the DP optimizer (src/optimizer) or built by hand
// via PlanBuilder for the benchmark harnesses.
//
// Plans are internally parallel (Execute(num_threads)) but not
// externally thread-safe: one Plan must not be executed from two threads
// at once. MatchStates and per-worker pipeline replicas persist across
// Execute calls, so repeated execution of the same plan (the serving
// pattern) is allocation-free in steady state.
class Plan {
 public:
  Plan(std::vector<std::unique_ptr<Operator>> ops, int num_query_vertices, int num_query_edges);

  // Runs the pipeline with `num_threads` workers (clamped to
  // [1, kMaxThreads]) using morsel-driven parallelism: the leading
  // ScanOp's vertex domain is carved into morsels handed out through an
  // atomic cursor, and each worker drives its own cloned pipeline replica
  // (private operator scratch, private MatchState, private SinkOp
  // callback copy) over the morsels it claims. A scan pinned to one
  // vertex followed by an enumerating ExtendOp splits that extend's list
  // instead: the calling thread fetches it once, and the workers claim
  // morsels of its entries, so all of them read the same list. Match
  // counts accumulate per worker and merge once at the end. Passing
  // num_threads > 1 to a plan whose SinkOp carries a callback is the
  // caller's acknowledgement of the SinkOp thread-safety contract.
  //
  // Returns the complete matches in `count` and, in `status`, why the
  // execution stopped, read from the token SetExecContext installed
  // (StatusOf; no token is kOk): a stopped execution's count is partial
  // progress. `error`, `rows` and `seconds` stay empty.
  QueryOutcome Execute(int num_threads);

  // One line per operator, root first (Figure 6 style).
  std::string Describe() const;

  // --- Prepared-query support (core/session.h) ---

  // Number of materialized pipelines: the serial pipeline plus every
  // worker replica created by a parallel Execute so far. Replicas
  // persist across Execute calls, so the count only grows.
  int num_pipelines() const { return 1 + static_cast<int>(workers_.size()); }
  // Terminal (sink) operator of pipeline `pipeline` in [0, num_pipelines).
  Operator* sink(int pipeline);
  // Appends the patchable $param slots of every pipeline. Pointers stay
  // valid until more replicas are created (collect again when
  // num_pipelines() changes).
  void CollectParamSlots(ParamSlots* slots);
  // Installs the cooperative stop token and memory budget on every
  // operator of every pipeline (current and future replicas); nullptrs
  // detach. LIMIT, deadlines, cancellation, and resource exhaustion all
  // stop execution through the token.
  void SetExecContext(ExecToken* token, MemoryBudget* budget);

  // Upper bound on the worker count of Execute(num_threads).
  static constexpr int kMaxThreads = 256;

  // --- Plan-clone support (core/plan_cache.cc) ---
  //
  // The primary pipeline's operators and the query dimensions, for
  // re-materializing an equivalent Plan (Operator::Clone per op) without
  // re-running the optimizer. Callers must not mutate the operators and
  // must not clone while this plan is executing.
  const std::vector<std::unique_ptr<Operator>>& primary_ops() const { return ops_; }
  int num_query_vertices() const { return num_query_vertices_; }
  int num_query_edges() const { return num_query_edges_; }

 private:
  // One parallel worker's pipeline replica; workers_[w] serves worker
  // w + 1 (worker 0 reuses the original ops_ / state_).
  struct WorkerPipeline {
    std::vector<std::unique_ptr<Operator>> ops;
    MatchState state;
  };

  uint64_t RunParallel(int k, ScanOp* scan);
  void EnsureWorkers(int num_replicas);
  // Pipeline `w`'s operators and state (0 = the primary).
  std::vector<std::unique_ptr<Operator>>& ops(int w) {
    return w == 0 ? ops_ : workers_[w - 1].ops;
  }
  MatchState& state(int w) { return w == 0 ? state_ : workers_[w - 1].state; }

  std::vector<std::unique_ptr<Operator>> ops_;
  int num_query_vertices_;
  int num_query_edges_;
  MatchState state_;  // worker 0 / serial state, reused across Execute calls
  std::vector<WorkerPipeline> workers_;
  MorselCursor cursor_;
  ExecToken* token_ = nullptr;
  MemoryBudget* budget_ = nullptr;
};

// Convenience builder used by benches and tests to assemble pipelines.
class PlanBuilder {
 public:
  PlanBuilder(const Graph* graph, const QueryGraph* query) : graph_(graph), query_(query) {}

  PlanBuilder& Scan(int var, std::vector<QueryComparison> preds = {});
  PlanBuilder& Extend(ListDescriptor list, std::vector<QueryComparison> residual = {},
                      bool closing = false);
  PlanBuilder& ExtendIntersect(std::vector<ListDescriptor> lists, int target_var,
                               std::vector<QueryComparison> residual = {});
  PlanBuilder& MultiExtend(std::vector<ListDescriptor> lists,
                           std::vector<QueryComparison> residual = {});
  PlanBuilder& Filter(std::vector<QueryComparison> preds);

  // Appends a counting SinkOp and finalizes.
  std::unique_ptr<Plan> Build(std::function<void(const MatchState&)> callback = nullptr);
  // Finalizes with a caller-supplied terminal operator (e.g. the serving
  // path's ProjectSinkOp).
  std::unique_ptr<Plan> BuildWithSink(std::unique_ptr<Operator> sink);

 private:
  const Graph* graph_;
  const QueryGraph* query_;
  std::vector<std::unique_ptr<Operator>> ops_;
};

}  // namespace aplus

#endif  // APLUS_QUERY_PLAN_H_
