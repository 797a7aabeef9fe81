#include "util/memory_tracker.h"

#include <cstdio>

#include "util/fault.h"
#include "util/logging.h"

namespace aplus {

int MemoryTracker::RegisterCategory(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  bytes_.push_back(0);
  return static_cast<int>(names_.size() - 1);
}

void MemoryTracker::Set(int category, size_t bytes) {
  APLUS_CHECK_GE(category, 0);
  APLUS_CHECK_LT(static_cast<size_t>(category), bytes_.size());
  bytes_[category] = bytes;
}

void MemoryTracker::Add(int category, int64_t delta) {
  APLUS_CHECK_GE(category, 0);
  APLUS_CHECK_LT(static_cast<size_t>(category), bytes_.size());
  bytes_[category] = static_cast<size_t>(static_cast<int64_t>(bytes_[category]) + delta);
}

size_t MemoryTracker::Get(int category) const {
  APLUS_CHECK_GE(category, 0);
  APLUS_CHECK_LT(static_cast<size_t>(category), bytes_.size());
  return bytes_[category];
}

size_t MemoryTracker::Total() const {
  size_t total = 0;
  for (size_t b : bytes_) total += b;
  return total;
}

std::string MemoryTracker::Report() const {
  std::string out;
  char line[256];
  for (size_t i = 0; i < names_.size(); ++i) {
    std::snprintf(line, sizeof(line), "%s: %zu bytes (%.2f MB)\n", names_[i].c_str(), bytes_[i],
                  static_cast<double>(bytes_[i]) / (1024.0 * 1024.0));
    out += line;
  }
  return out;
}

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
