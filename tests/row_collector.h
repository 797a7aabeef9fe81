#ifndef APLUS_TESTS_ROW_COLLECTOR_H_
#define APLUS_TESTS_ROW_COLLECTOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "query/row_sink.h"

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

}  // namespace aplus

#endif  // APLUS_TESTS_ROW_COLLECTOR_H_
