#include "util/memory_budget.h"

#include "util/fault.h"

namespace aplus {

namespace {
std::atomic<uint64_t> g_process_used{0};
}  // namespace

void MemoryBudget::Reset(uint64_t cap_bytes, uint64_t ceiling_bytes) {
  const uint64_t prev = used_.exchange(0, std::memory_order_relaxed);
  if (prev != 0) g_process_used.fetch_sub(prev, std::memory_order_relaxed);
  refused_by_.store(Limit::kNone, std::memory_order_relaxed);
  cap_ = cap_bytes;
  ceiling_ = ceiling_bytes;
}

bool MemoryBudget::Charge(uint64_t bytes) {
  if (bytes == 0) return true;
  if (fault::ShouldFail(fault::kAlloc)) return false;
  const uint64_t local =
      used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  const uint64_t global =
      g_process_used.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  const bool over_cap = cap_ != 0 && local > cap_;
  if (over_cap || (ceiling_ != 0 && global > ceiling_)) {
    refused_by_.store(over_cap ? Limit::kQueryCap : Limit::kProcessCeiling,
                      std::memory_order_relaxed);
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    g_process_used.fetch_sub(bytes, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void MemoryBudget::Release(uint64_t bytes) {
  // Clamp to the outstanding amount so a stale release cannot underflow
  // the process pool.
  uint64_t cur = used_.load(std::memory_order_relaxed);
  while (true) {
    const uint64_t give = bytes < cur ? bytes : cur;
    if (give == 0) return;
    if (used_.compare_exchange_weak(cur, cur - give,
                                    std::memory_order_relaxed)) {
      g_process_used.fetch_sub(give, std::memory_order_relaxed);
      return;
    }
  }
}

uint64_t MemoryBudget::ProcessUsed() {
  return g_process_used.load(std::memory_order_relaxed);
}

}  // namespace aplus
