#ifndef APLUS_TESTS_ROW_COLLECTOR_H_
#define APLUS_TESTS_ROW_COLLECTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "query/plan.h"
#include "query/row_sink.h"
#include "test_threads.h"

namespace aplus {

// Collects every cell of every delivered batch. Mutex-guarded, since a
// parallel execute delivers batches from its workers concurrently.
struct RowCollector : RowConsumer {
  std::mutex mu;
  std::vector<std::vector<Value>> rows;
  void OnBatch(const RowBatch& batch) override {
    std::lock_guard<std::mutex> lock(mu);
    for (uint32_t r = 0; r < batch.num_rows(); ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < batch.num_columns(); ++c) row.push_back(batch.Cell(c, r));
      rows.push_back(std::move(row));
    }
  }
};

// Counts delivered rows; safe under a parallel execute.
struct RowCounter : RowConsumer {
  std::atomic<uint64_t> rows{0};
  void OnBatch(const RowBatch& batch) override {
    rows.fetch_add(batch.num_rows(), std::memory_order_relaxed);
  }
};

// Calls `fn` on every delivered batch, on the delivering thread.
struct BatchHook : RowConsumer {
  explicit BatchHook(std::function<void(const RowBatch&)> f) : fn(std::move(f)) {}
  std::function<void(const RowBatch&)> fn;
  void OnBatch(const RowBatch& batch) override { fn(batch); }
};

// The enumerating end of a hand-built plan (PlanBuilder::BuildWithSink):
// projects the IDs of query vertices `vars` in batches of `batch` rows
// to `consumer`, which it installs in `controls`.
inline std::unique_ptr<ProjectSinkOp> VertexIdSink(const Graph& graph, const std::vector<int>& vars,
                                                   RowConsumer* consumer, ExecControls* controls,
                                                   uint32_t batch = 64) {
  controls->consumer = consumer;
  std::vector<ProjectColumn> cols;
  for (int var : vars) {
    cols.push_back({"v" + std::to_string(var), QueryPropRef{var, false, kInvalidPropKey, true},
                    ValueType::kInt64});
  }
  return std::make_unique<ProjectSinkOp>(&graph, std::move(cols), batch, controls,
                                         /*row_budget=*/false);
}

// Runs `plan`, which ends in a VertexIdSink, and then delivers each
// pipeline's partial batch, as PreparedQuery::Execute does; returns the
// match count (RunCount).
inline uint64_t RunDelivering(Plan& plan, int threads = TestThreads()) {
  const uint64_t count = RunCount(plan, threads);
  for (int i = 0; i < plan.num_pipelines(); ++i) {
    static_cast<ProjectSinkOp*>(plan.sink(i))->Flush();
  }
  return count;
}

}  // namespace aplus

#endif  // APLUS_TESTS_ROW_COLLECTOR_H_
