#ifndef APLUS_UTIL_MEMORY_BUDGET_H_
#define APLUS_UTIL_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>

namespace aplus {

// Per-query memory governor. All transient execution arenas (group-by
// tables, sort buffers, projection batches, extend scratch) charge their
// growth here; a failed charge means the query must stop with
// RESOURCE_EXHAUSTED instead of growing without bound. Charges also add to
// one process-wide total shared by all queries, which each query compares
// against its own ceiling (its database's), so databases with different
// ceilings in one process do not govern each other's queries.
//
// Thread model: one MemoryBudget is shared by all worker replicas of a
// plan; Charge/Release are lock-free and safe from any worker. Reset()
// must only run between executions.
class MemoryBudget {
 public:
  // The limit that refused a charge.
  enum class Limit : uint8_t { kNone, kQueryCap, kProcessCeiling };

  ~MemoryBudget() { Reset(0); }

  // Returns the previous charges to the process pool and installs a new
  // per-query cap and process ceiling (0 = none). Call at the start of
  // each execution.
  void Reset(uint64_t cap_bytes, uint64_t ceiling_bytes = 0);

  // Charges `bytes` against the per-query cap and, with the process-wide
  // total, against this query's process ceiling.
  // Returns false (after undoing the charge) if either would be exceeded
  // or the `alloc` fault point fires; the caller must treat that as
  // resource exhaustion. Never throws, never allocates.
  bool Charge(uint64_t bytes);
  // The limit that refused a charge since the last Reset() (kNone when
  // none did, or only the fault point).
  Limit refused_by() const { return refused_by_.load(std::memory_order_relaxed); }

  // Returns bytes previously charged (clamped to the outstanding amount).
  void Release(uint64_t bytes);

  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t cap() const { return cap_; }

  // Bytes charged by every MemoryBudget of the process.
  static uint64_t ProcessUsed();

 private:
  std::atomic<uint64_t> used_{0};
  std::atomic<Limit> refused_by_{Limit::kNone};
  // 0 = none; written only by Reset().
  uint64_t cap_ = 0;
  uint64_t ceiling_ = 0;
};

}  // namespace aplus

#endif  // APLUS_UTIL_MEMORY_BUDGET_H_
