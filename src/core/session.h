#ifndef APLUS_CORE_SESSION_H_
#define APLUS_CORE_SESSION_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/plan_cache.h"
#include "optimizer/dp_optimizer.h"
#include "query/cypher_parser.h"
#include "query/plan.h"
#include "query/row_sink.h"

namespace aplus {

class Database;

// A parsed + optimized query whose physical plan is reused across
// executions: Bind patches $param slots directly in the plan (no
// re-parse, no re-optimization), Execute streams typed row batches to a
// RowConsumer. Steady-state Bind + Execute performs zero heap
// allocations after warm-up (asserted by tests/zero_alloc_test.cc).
//
// Thread-safety: a PreparedQuery is NOT thread-safe — each Session and
// server statement leases its own instance from the database's
// PlanCache; never share one mid-execute. Execute(consumer, k > 1) runs
// the plan morsel-parallel; for plain projections the consumer's
// OnBatch then fires concurrently from the workers (the final partial
// flush is always on the calling thread). Staged queries (aggregation / ORDER BY) instead accumulate
// per-worker partial state, merge it once the workers joined, and
// deliver every batch from the calling thread.
class PreparedQuery {
 public:
  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  // Prepare status: a parse/plan failure is carried here and re-reported
  // by Execute (failed prepares are cheap error holders, never cached).
  bool ok() const { return status_ == QueryOutcome::Status::kOk; }
  QueryOutcome::Status status() const { return status_; }
  const std::string& error() const { return error_; }

  size_t num_params() const { return params_.size(); }
  const std::string& param_name(size_t i) const { return params_[i].name; }
  int FindParam(const std::string& name) const;

  // Binds $name to `value`, patching every parameter slot of the plan in
  // place. Returns false (and records bind_error()) on unknown names and
  // type mismatches; category-typed parameters also accept the category
  // value's string name. Bindings persist across Execute calls until
  // re-bound.
  bool Bind(const std::string& name, const Value& value);
  const std::string& bind_error() const { return bind_error_; }

  // Unbinds every parameter; Execute reports kBindError until they are
  // re-bound. A PlanCache lease does this when it returns its instance.
  void ClearBindings();

  // Runs the plan. Rows stream to `consumer` (may be null: rows are
  // counted, then dropped). `num_threads` is the worker count, as in
  // Plan::Execute.
  QueryOutcome Execute(RowConsumer* consumer = nullptr, int num_threads = 1);

  // Wall-clock deadline for each Execute, in milliseconds: every worker
  // polls it cooperatively and the execute returns kTimeout with partial
  // counters once it passes. 0 disables; a negative value (the default)
  // defers to the database's EngineConfig::query_timeout_ms.
  void set_deadline_millis(int64_t millis) { timeout_millis_ = millis; }
  int64_t deadline_millis() const { return timeout_millis_; }

  // Requests cooperative cancellation of the in-flight Execute (or the
  // next one, if none is running — effective until that Execute ends).
  // Safe to call from any thread; the only PreparedQuery member that is.
  void Cancel() { controls_.token.Cancel(); }

  // Per-query memory budget, in bytes, charged by the group/sort/project
  // arenas and plan scratch; crossing it returns kResourceExhausted.
  // 0 removes the cap; a negative value (the default) defers to the
  // database's EngineConfig::mem_cap_bytes.
  void set_mem_cap_bytes(int64_t bytes) { mem_cap_bytes_ = bytes; }

  // True while the plan is still valid against the database's index
  // store version and graph edge count; false means Execute will return
  // kInvalidated and the query must be re-prepared.
  bool current() const;

  // True when a plan cache should re-prepare: the plan is no longer
  // current(), or the graph's edge count left [prepared, 2 x prepared],
  // so the join order was costed on a graph that has since shrunk or
  // doubled (Database::PlanStale, the optimizer's own refresh rule).
  bool stale() const;

  // Figure 6-style plan rendering, made on the first call from this
  // query's own pattern, step outline and operators (so every clone
  // renders the same text); empty for a failed prepare. Like every member
  // but Cancel, not thread-safe.
  const std::string& plan_text() const;
  // Output schema: what the consumer receives per batch. For aggregate /
  // ORDER BY queries this is the post-stage schema (group keys and
  // aggregate results in RETURN order), not the projected inputs.
  const std::vector<ProjectColumn>& columns() const { return columns_; }
  bool has_limit() const { return has_limit_; }
  uint64_t limit() const { return limit_; }
  // True when the sink carries post-projection stages (aggregation /
  // ORDER BY / staged LIMIT).
  bool has_stages() const { return has_stages_; }
  // True when the query is a bare `RETURN COUNT(*)` (no grouping, no
  // ordering): the plan runs the counting sink with no row
  // materialization and Execute synthesizes the single output row from
  // the match count.
  bool count_star_only() const { return count_star_only_; }

 private:
  friend class Database;
  friend class PlanCache;

  explicit PreparedQuery(Database* db) : db_(db) {}

  // Puts an idle instance back into `master`'s state: parameters unbound,
  // the master's deadline and memory cap, no pending Cancel(), and an
  // empty memory budget (retained arenas are re-charged as they grow).
  void ResetTo(const PreparedQuery& master);

  struct ParamInfo {
    std::string name;
    ValueType expected = ValueType::kNull;
    prop_key_t key = kInvalidPropKey;
    int pin_var = -1;
    bool bound = false;
    Value value;
  };

  // True when the sink enforces LIMIT through the atomic row budget
  // (early scan termination). Stage-less plans only: a LIMIT below
  // aggregation, DISTINCT or ordering caps the *output* rows, which
  // requires the full match enumeration and is the emission cap of the
  // last stage (the sort's top-k, else the aggregate's group count)
  // during the Finish cascade. The COUNT(*) pushdown is also excluded —
  // its single output row needs the full enumeration. Fixed at Prepare:
  // the sink is built with it, and its last EXTEND counts only without
  // it.
  bool row_budget() const { return has_limit_ && !has_stages_ && !count_star_only_; }

  // Re-collects plan slots when the pipeline count changed (a parallel
  // Execute added replicas) and re-applies every bound parameter.
  void RefreshSlots();
  void ApplyParam(const ParamInfo& param, int index);

  Database* db_;
  QueryOutcome::Status status_ = QueryOutcome::Status::kOk;
  std::string error_;       // prepare-time error (parse/plan)
  std::string bind_error_;  // last Bind failure

  QueryGraph query_;  // placeholder-pinned pattern (kept for rendering/debugging)
  std::vector<ProjectColumn> columns_;
  bool has_limit_ = false;
  bool has_stages_ = false;
  bool count_star_only_ = false;
  uint64_t limit_ = 0;
  std::vector<ParamInfo> params_;
  RowBatch count_row_;  // the one-row COUNT(*) pushdown result, reused
  std::vector<ProjectSinkOp*> worker_sinks_;  // MergeStages scratch

  std::unique_ptr<Plan> plan_;
  ExecControls controls_;  // shared with every ProjectSinkOp replica
  std::vector<StepOutline> steps_;  // the optimizer's outline of plan_
  mutable std::string plan_text_;   // rendered by the first plan_text()
  uint64_t store_version_ = 0;
  uint64_t num_edges_ = 0;
  int64_t timeout_millis_ = -1;  // < 0: the database's config
  int64_t mem_cap_bytes_ = -1;   // < 0: the database's config

  ParamSlots slots_;
  int slots_pipelines_ = 0;
};

// A serving handle: a statement table from normalized query text to the
// instance leased from the database's PlanCache. A held lease whose plan
// is not stale() answers Prepare; otherwise the Session leases afresh,
// so DDL and ingest re-plan transparently and a text another Session
// prepared is a clone, not a second optimization. Not thread-safe: use
// one per thread (they may prepare concurrently); never outlive the
// Database.
class Session {
 public:
  // Statement table capacity: a long-lived session serving literal-
  // inlined (un-parameterized) texts must not grow without bound, so the
  // least-recently-used statement is released once this many are held.
  static constexpr size_t kMaxCachedQueries = PlanCache::kMaxEntries;

  explicit Session(Database* db) : db_(db) {}

  // Returns the held (or freshly leased) query for `text`. The pointer
  // stays valid until the statement is re-leased (stale), LRU-released,
  // or the session dies — so per-request code should call Prepare each
  // time (hits are cheap) rather than holding the pointer across
  // unrelated Prepares. Prepare failures are returned but not held.
  PreparedQuery* Prepare(const std::string& text);

  // One-shot convenience: Prepare (cached) + Execute. Parameterized
  // queries must go through Prepare/Bind.
  QueryOutcome Execute(const std::string& text, RowConsumer* consumer = nullptr,
                       int num_threads = 1);

  // This session's lookups: a hit is a held statement or a lease served
  // from a cached plan; a miss ran the optimizer.
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }
  size_t cache_size() const { return statements_.size(); }

 private:
  struct Statement {
    PlanCache::Lease lease;
    uint64_t last_used = 0;  // Prepare tick, for LRU release
  };

  Database* db_;
  std::unordered_map<std::string, Statement> statements_;
  PlanCache::Lease last_failed_;  // error holder, not held in the table
  uint64_t tick_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
};

// Cache key normalization: trims and collapses whitespace runs so
// formatting variants of one query share a plan.
std::string NormalizeQueryText(const std::string& text);

}  // namespace aplus

#endif  // APLUS_CORE_SESSION_H_
