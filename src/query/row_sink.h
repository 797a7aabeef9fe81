#ifndef APLUS_QUERY_ROW_SINK_H_
#define APLUS_QUERY_ROW_SINK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/operators.h"
#include "storage/graph.h"
#include "util/deadline.h"
#include "util/memory_tracker.h"

namespace aplus {

// One projected output column, resolved against the catalog at prepare
// time: a vertex/edge id (`ref.is_id`) or a property read. `type` is the
// column's output type; ids surface as kInt64.
struct ProjectColumn {
  std::string name;  // display name, e.g. "a2" or "r1.amount"
  QueryPropRef ref;
  ValueType type = ValueType::kInt64;
};

// A columnar batch of projected rows, owned by a ProjectSinkOp or a
// SinkStage and reused across executions (plan-lifetime buffers: after
// the first fill reaches the high-water mark, appending and clearing
// never allocate). Cells are typed: int64/bool/category payloads land in
// `ints`, doubles in `doubles`, strings as pointers into the property
// store's dictionary (valid while the graph outlives the batch and is
// not mutated).
class RowBatch {
 public:
  struct Column {
    std::string name;
    ValueType type = ValueType::kInt64;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<const std::string*> strings;
    std::vector<uint8_t> nulls;  // 1 = null cell
  };

  void Init(const std::vector<ProjectColumn>& cols, uint32_t capacity);

  uint32_t num_rows() const { return num_rows_; }
  uint32_t capacity() const { return capacity_; }
  size_t num_columns() const { return cols_.size(); }
  const Column& column(size_t i) const { return cols_[i]; }
  bool full() const { return num_rows_ >= capacity_; }
  bool empty() const { return num_rows_ == 0; }

  // Drops the rows, keeping the buffers' capacity.
  void Clear();

  // Appends one typed cell to column `col` (callers advance num_rows
  // once per row via AdvanceRow). Null cells push a type-matching zero
  // payload so the columns stay aligned.
  void AppendInt(size_t col, int64_t v) {
    cols_[col].ints.push_back(v);
    cols_[col].nulls.push_back(0);
  }
  void AppendDouble(size_t col, double v) {
    cols_[col].doubles.push_back(v);
    cols_[col].nulls.push_back(0);
  }
  void AppendString(size_t col, const std::string* v) {
    cols_[col].strings.push_back(v);
    cols_[col].nulls.push_back(0);
  }
  void AppendNull(size_t col);
  void AdvanceRow() { num_rows_++; }

  // Convenience accessor for tests/examples (materializes a Value; the
  // string case copies — hot consumers should read the typed columns).
  Value Cell(size_t col, uint32_t row) const;

 private:
  friend class ProjectSinkOp;
  std::vector<Column> cols_;
  uint32_t num_rows_ = 0;
  uint32_t capacity_ = 0;
};

// Receives full (and, at the end of an execution, partial) row batches:
// the one way a plan hands out per-match rows. Implemented by the
// serving caller; a plain virtual interface, so installing a consumer
// per execution never allocates. Under Execute(num_threads > 1) every
// worker streams its own batches concurrently — OnBatch must be
// thread-safe in that mode (the final partial flush always happens on
// the calling thread). Queries with sink stages (aggregation / ORDER
// BY) only deliver from the coordinating thread, after the workers'
// partial states merged.
class RowConsumer {
 public:
  virtual ~RowConsumer() = default;
  virtual void OnBatch(const RowBatch& batch) = 0;
};

// Execution-wide controls shared by every ProjectSinkOp replica (and
// every sink-stage chain) of one prepared query: the per-execution
// consumer, the LIMIT row budget of the stage-less fast path, the
// cooperative stop token (LIMIT / deadline / cancel / resource
// exhaustion) every operator polls, the per-query memory budget every
// transient arena charges, and the final output row counter. Owned by
// the PreparedQuery (stable address), reset before each execution.
struct ExecControls {
  RowConsumer* consumer = nullptr;
  // Claimed via fetch_sub by a row-budget sink (ProjectSinkOp).
  std::atomic<int64_t> rows_remaining{0};
  // Unified stop token: LIMIT satisfaction, deadline expiry, Cancel(),
  // and budget exhaustion all land here; token.reason() disambiguates.
  ExecToken token;
  // Per-query governor for group/sort/project arenas and plan scratch.
  // A failed Charge() requests kResourceExhausted on the token.
  MemoryBudget budget;
  // Rows delivered to (or counted for) the final consumer by a stage
  // chain. Only written single-threaded, during the Finish cascade.
  uint64_t rows_emitted = 0;

  // Charges `bytes` to the budget; on failure requests a stop with
  // kResourceExhausted and returns false.
  bool ChargeOrStop(uint64_t bytes) {
    if (budget.Charge(bytes)) return true;
    token.RequestStop(StopReason::kResourceExhausted);
    return false;
  }
};

// A typed columnar plan-lifetime buffer shared by the sink stages
// (group-key arenas, sort buffers); the member layout mirrors
// RowBatch::Column so generic cell helpers serve both.
struct ColumnArena {
  ValueType type = ValueType::kInt64;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<const std::string*> strings;
  std::vector<uint8_t> nulls;
};

// One post-projection stage of the composable sink pipeline
//   Project -> [GroupedAggregate] -> [Sort] -> [Limit] -> RowConsumer.
//
// During execution every worker pipeline owns a private clone of the
// chain: its ProjectSinkOp streams input batches into the chain head,
// and accumulating stages (aggregate, sort) buffer worker-local partial
// state without synchronization. After the workers join, the
// coordinating thread folds every worker chain into pipeline 0's chain
// stage-by-stage (Merge) and runs the Finish cascade on pipeline 0 only:
// each stage emits its result downstream, the terminal stage delivers to
// ExecControls::consumer. All buffers are plan-lifetime (zero
// steady-state allocation once warm, like the operators).
class SinkStage : public RowConsumer {
 public:
  explicit SinkStage(ExecControls* controls) : controls_(controls) {}

  void set_next(SinkStage* next) { next_ = next; }

  // Fresh clone with empty accumulated state for a worker pipeline
  // replica. The clone's next_ is unset; the caller rewires the chain.
  virtual std::unique_ptr<SinkStage> Clone() const = 0;
  // Drops accumulated state ahead of an execution (buffers keep their
  // capacity).
  virtual void Reset() = 0;
  // Folds a worker replica's partial state (the same position of its
  // chain) into this stage. Coordinating thread only.
  virtual void Merge(SinkStage& worker) = 0;
  // Folds every worker replica's partial state at once. The default is
  // the serial Merge fold; stages with an order-free merge (grouped
  // aggregation) override it to partition the work across `num_threads`
  // pool workers. Coordinating thread only; returns with the fold
  // complete.
  virtual void MergeAll(SinkStage* const* workers, int num_workers, int num_threads);
  // Emits this stage's result downstream (OnBatch on next_, or the final
  // consumer at the chain tail). Coordinating thread only; upstream
  // stages finish first.
  virtual void Finish() = 0;
  // True once the stage will discard any further input (a drained
  // LIMIT). Upstream Finish loops poll it to stop materializing output
  // nobody consumes.
  virtual bool Done() const { return false; }
  virtual std::string Describe() const = 0;
  // Re-points the stage at another prepared query's controls. Used when a
  // cloned sink-stage chain moves to a fresh PreparedQuery (the shared
  // plan cache clones plans across connections); never called while an
  // execution is in flight.
  virtual void RebindControls(ExecControls* controls) { controls_ = controls; }

 protected:
  // Emits `batch` downstream and clears it. The chain tail counts the
  // rows and hands them to the per-execution consumer (which may be
  // null: rows are counted, then dropped).
  void Deliver(RowBatch* batch);

  ExecControls* controls_;
  SinkStage* next_ = nullptr;
};

// One output item of a GroupedAggregateStage, in RETURN order.
struct AggSpec {
  AggFn fn = AggFn::kNone;  // kNone = group-key passthrough
  int input = -1;           // input-column index in the projected batch; -1 for COUNT(*)
  ValueType out_type = ValueType::kInt64;
  std::string name;
};

// Grouped aggregation over the projected input stream: group keys are
// the kNone specs, every other spec folds its input column with the
// aggregate function (nulls skipped; COUNT(*) counts rows). Groups live
// in columnar plan-lifetime arenas addressed through an open-addressing
// hash index; worker partials merge exactly (MIN/MAX/COUNT/SUM are
// order-free, AVG merges sum+count). With no group keys the stage is a
// global aggregate and always emits exactly one row (COUNT = 0 and null
// SUM/MIN/MAX/AVG on empty input).
class GroupedAggregateStage : public SinkStage {
 public:
  GroupedAggregateStage(std::vector<AggSpec> specs, std::vector<ValueType> input_types,
                        uint32_t batch_capacity, ExecControls* controls);

  void OnBatch(const RowBatch& batch) override;
  std::unique_ptr<SinkStage> Clone() const override;
  void Reset() override;
  void Merge(SinkStage& worker) override;
  // Hash-partitioned parallel merge: when the fold is large enough,
  // group ordinal ownership is split by HashGroup(g) % P across P
  // plan-lifetime partition stages, each merging its share of every
  // source table (this stage + all workers) on a pool worker. Group
  // hashes are deterministic across replicas (key cells hash by payload
  // bits / shared dictionary pointers), so partitions are disjoint and
  // exhaustive. Finish then emits partition by partition.
  void MergeAll(SinkStage* const* workers, int num_workers, int num_threads) override;
  void Finish() override;
  std::string Describe() const override;
  void RebindControls(ExecControls* controls) override;

  size_t num_groups() const { return num_groups_; }

 private:
  // Accumulator arena of one aggregate spec: `counts` is the non-null
  // input count (COUNT result, AVG divisor, empty-group detector),
  // `ints`/`doubles` the running SUM/MIN/MAX payload.
  struct AccArena {
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<int64_t> counts;
  };

  static constexpr uint32_t kEmptySlot = ~0u;

  // The key-cell helpers template over a column accessor `col_of(k)`
  // yielding the k-th key column of the probe side — a RowBatch::Column
  // for input rows, a ColumnArena for another stage's stored groups
  // (identical member layout) — so the input and merge paths share one
  // hash/equality/append implementation.
  template <typename ColFn>
  uint64_t HashKeys(ColFn&& col_of, uint32_t row) const;
  uint64_t HashGroup(uint32_t group) const;
  template <typename ColFn>
  bool GroupEquals(uint32_t group, ColFn&& col_of, uint32_t row) const;
  // Probes (inserting if absent) the group keyed by `col_of` cells at
  // `row`; returns the group ordinal.
  template <typename ColFn>
  uint32_t FindOrAddGroup(ColFn&& col_of, uint32_t row, uint64_t hash);
  template <typename ColFn>
  void AppendKey(ColFn&& col_of, uint32_t row);
  void GrowSlots();
  void AccumulateRow(uint32_t group, const RowBatch& batch, uint32_t row);
  void EnsureGlobalGroup();
  // Folds source group `og` of `src` into local group `g` (the per-spec
  // accumulator combine shared by Merge and MergePartitionFrom).
  void FoldGroupFrom(uint32_t g, const GroupedAggregateStage& src, uint32_t og);
  // Merges the groups of `src` whose hash lands in partition `part` of
  // `num_parts` (the parallel MergeAll worker body).
  void MergePartitionFrom(const GroupedAggregateStage& src, uint32_t num_parts, uint32_t part);
  // Emits `src`'s groups through this stage's output batch.
  void EmitGroupsFrom(const GroupedAggregateStage& src);

  // Below this many total groups the partitioned merge's fan-out costs
  // more than the serial fold it replaces.
  static constexpr size_t kParallelMergeMinGroups = 1024;

  std::vector<AggSpec> specs_;
  std::vector<ValueType> input_types_;
  std::vector<int> key_inputs_;     // input columns of the kNone specs, in spec order
  std::vector<ColumnArena> keys_;   // one per key_inputs_ entry
  std::vector<AccArena> accs_;      // one per aggregate spec, in spec order
  // True when some aggregate reads an input column (needs the per-row
  // null scan); a pure COUNT(*) global aggregate instead adds
  // batch.num_rows() per delivery, keeping `RETURN COUNT(*)` O(1) per
  // batch on top of the counting scan.
  bool needs_row_scan_ = false;
  std::vector<uint32_t> agg_specs_;  // spec indices with fn != kNone
  std::vector<uint32_t> slots_;      // open-addressing index: group ordinal or kEmptySlot
  size_t num_groups_ = 0;
  uint32_t batch_capacity_;
  RowBatch out_;
  // Estimated bytes one group adds across keys_/accs_/slots_, charged
  // against ExecControls::budget when track_mem_ (partition stages
  // re-materialize already-charged groups and do not track).
  uint64_t bytes_per_group_ = 0;
  bool track_mem_ = true;
  // Plan-lifetime partition stages of the parallel MergeAll; > 0 in
  // merged_parts_ means the last merge was partitioned and Finish reads
  // the partitions instead of this stage's own table.
  std::vector<std::unique_ptr<GroupedAggregateStage>> parts_;
  int merged_parts_ = 0;
};

// RETURN DISTINCT over a plain projection: the degenerate grouped
// aggregation — every output column is a group key and there are zero
// aggregates — so deduplication inherits the open-addressing group
// table, the memory-budget charging, and the exact hash-partitioned
// parallel merge for free. Output order is the group-discovery order of
// the merged table (deterministic serially; follow with ORDER BY for a
// stable parallel order, as with any aggregation).
class DistinctStage : public GroupedAggregateStage {
 public:
  DistinctStage(const std::vector<ProjectColumn>& schema, uint32_t batch_capacity,
                ExecControls* controls);

  std::unique_ptr<SinkStage> Clone() const override;
  std::string Describe() const override;

 private:
  std::vector<ProjectColumn> schema_;  // kept for Clone
  uint32_t capacity_;
};

// One ORDER BY key over the stage's input schema.
struct SortKeySpec {
  int col = -1;  // input-column index
  bool desc = false;
};

// Buffers the full input stream in columnar plan-lifetime arenas and
// emits it in key order at Finish. Nulls order last under ASC (first
// under DESC); ties on the configured keys break by the remaining
// columns ascending, so output order is deterministic up to fully
// identical rows. Worker partials concatenate at Merge — the sort itself
// runs once, on the merged buffer (std::sort / std::partial_sort over an
// index permutation: in-place, allocation-free). A `limit` below
// kNoLimit caps the emission (the query's `ORDER BY ... LIMIT n`): the
// stage partial_sorts and emits only the top n rows itself, so no
// trailing LimitStage is needed.
class SortStage : public SinkStage {
 public:
  static constexpr uint64_t kNoLimit = ~0ull;

  SortStage(std::vector<ProjectColumn> schema, std::vector<SortKeySpec> keys, uint64_t limit,
            uint32_t batch_capacity, ExecControls* controls);

  void OnBatch(const RowBatch& batch) override;
  std::unique_ptr<SinkStage> Clone() const override;
  void Reset() override;
  void Merge(SinkStage& worker) override;
  void Finish() override;
  std::string Describe() const override;

 private:
  // Three-way compare of buffered rows a, b under column `col` (null =
  // +infinity; NaN orders between the numbers and null so the
  // comparator stays a strict weak ordering on arbitrary doubles).
  int CompareCell(int col, uint32_t a, uint32_t b) const;
  bool RowLess(uint32_t a, uint32_t b) const;

  std::vector<ProjectColumn> schema_;
  std::vector<SortKeySpec> keys_;
  std::vector<int> tiebreak_cols_;  // non-key columns, fixed at construction
  uint64_t limit_;                  // kNoLimit = emit everything
  std::vector<ColumnArena> cols_;
  size_t num_buffered_ = 0;
  std::vector<uint32_t> order_;  // sort permutation scratch
  RowBatch out_;
  // Estimated bytes one buffered row adds across cols_ + order_, charged
  // against ExecControls::budget as the buffer grows.
  uint64_t bytes_per_row_ = 0;
};

// Caps the output at `limit` rows. Stage form of LIMIT, used whenever
// aggregation or ordering precedes it (the stage-less fast path claims
// rows from ExecControls::rows_remaining instead and stops the scans
// early). Pass-through during Finish only: upstream stages never emit
// mid-execution.
class LimitStage : public SinkStage {
 public:
  LimitStage(std::vector<ProjectColumn> schema, uint64_t limit, uint32_t batch_capacity,
             ExecControls* controls);

  void OnBatch(const RowBatch& batch) override;
  std::unique_ptr<SinkStage> Clone() const override;
  void Reset() override;
  void Merge(SinkStage& worker) override { (void)worker; }
  void Finish() override;
  bool Done() const override { return remaining_ == 0; }
  std::string Describe() const override;

 private:
  std::vector<ProjectColumn> schema_;
  uint64_t limit_;
  uint64_t remaining_;
  RowBatch out_;
};

// Terminal operator of the serving path: materializes the projection of
// every complete match into its columnar RowBatch and hands full batches
// to the head of its sink-stage chain (or straight to the consumer when
// the chain is empty). Counting is the degenerate projection (no
// columns, no stages, no row budget — only MatchState::count advances);
// it never reads its controls, which may then be null (the counting
// sink of PlanBuilder::Build and DpOptimizer::Optimize). With a
// stage-less LIMIT (`row_budget`, fixed at Prepare), rows are claimed
// from the shared atomic budget so the total emitted across all workers
// is exactly min(limit, matches), and the stop flag cuts the scans
// short.
class ProjectSinkOp : public Operator {
 public:
  ProjectSinkOp(const Graph* graph, std::vector<ProjectColumn> cols, uint32_t batch_capacity,
                ExecControls* controls, bool row_budget,
                std::vector<std::unique_ptr<SinkStage>> stages = {});

  void Run(MatchState* state) override;
  std::unique_ptr<Operator> Clone() const override;
  // One line naming the projected columns (the first of ChainLines).
  std::string Describe() const;

  // Delivers the pending partial batch (if any) into this pipeline's
  // stage chain / consumer and clears it. Called on the coordinating
  // thread after the plan finishes; worker replicas flush their own full
  // batches inline.
  void Flush();
  // Drops any pending rows and accumulated stage state (pre-execution
  // reset; buffers keep their capacity).
  void ResetBatch();
  // Folds every worker chain at once, letting each stage parallelize its
  // own fold across `num_threads` pool workers (SinkStage::MergeAll).
  void MergeAllStages(ProjectSinkOp* const* workers, int num_workers, int num_threads);
  // Runs the Finish cascade: every stage emits downstream, the tail
  // delivers to ExecControls::consumer and counts rows_emitted.
  void FinishStages();

  // Re-points this sink and its whole stage chain at `controls` (plan
  // cloning across PreparedQuery instances; see SinkStage).
  void RebindControls(ExecControls* controls);

  // A budgeted LIMIT claims a row per match, so it must see each one.
  bool counts_only() const override { return cols_.empty() && stages_.empty() && !row_budget_; }
  int num_stages() const { return static_cast<int>(stages_.size()); }
  const SinkStage* stage(int i) const { return stages_[i].get(); }
  // Describe() of the projection plus every stage, most-downstream last
  // (used by the plan printer to render the sink chain).
  std::vector<std::string> ChainLines() const;

 private:
  void AppendRow(const MatchState& state);
  void WireStages();

  const Graph* graph_;
  std::vector<ProjectColumn> cols_;
  uint32_t batch_capacity_;
  ExecControls* controls_;
  bool row_budget_;
  std::vector<std::unique_ptr<SinkStage>> stages_;
  RowBatch batch_;
  std::vector<SinkStage*> stage_scratch_;  // MergeAllStages worker list, reused
};

}  // namespace aplus

#endif  // APLUS_QUERY_ROW_SINK_H_
