#ifndef APLUS_CORE_PLAN_CACHE_H_
#define APLUS_CORE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace aplus {

class Database;
class PreparedQuery;

// The database's one plan cache, keyed on normalized query text: a text
// is parsed and optimized once per plan epoch however many Sessions and
// server connections run it.
//
// Each entry holds a never-executed "master" PreparedQuery (the clone
// template) and a pool of idle instances. Acquire() checks an instance
// out as a Lease (a pool pop, a clone of the master, or on a miss a
// fresh Database::Prepare that becomes the master); its owner Binds and
// Executes it without locks. Dropping the lease returns the instance to
// the pool in the master's state (PreparedQuery::ResetTo).
//
// An entry whose master is PreparedQuery::stale() is dropped at the next
// Acquire of its text; beyond kMaxEntries texts the least recently
// acquired is evicted. Leases outlive both (and the cache itself) and
// are discarded on return.
//
// Thread-safe. Acquire runs once per statement preparation (a server
// PREPARE, a Session miss), never per execute, so one mutex guards the
// map. Misses are serialized and re-check the map, so each text is
// optimized exactly once even when threads race on it.
class PlanCache {
  struct Entry;
  struct Returner {  // a Lease's deleter: back into the entry's pool
    std::weak_ptr<Entry> entry;  // empty for a failed prepare; expired once dropped
    void operator()(PreparedQuery* query) const;
  };

 public:
  static constexpr size_t kMaxEntries = 256;

  // Exclusive, move-only ownership of one checked-out instance.
  class Lease {
   public:
    // Never null once acquired. A failed prepare (parse or plan error)
    // rides along uncached so its status and error() surface as usual.
    PreparedQuery* get() const { return query_.get(); }
    PreparedQuery* operator->() const { return query_.get(); }
    // True when served from a cached plan: no parse, no optimizer.
    bool hit() const { return hit_; }

   private:
    friend class PlanCache;
    std::unique_ptr<PreparedQuery, Returner> query_;
    bool hit_ = false;
  };

  explicit PlanCache(Database* db) : db_(db) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Checks an instance out for `text`.
  Lease Acquire(const std::string& text);

  // Acquires served from a cached plan, and those that ran the optimizer.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t size() const;

 private:
  // Idle instances kept per entry; returns beyond it are dropped.
  static constexpr size_t kMaxPooledPerEntry = 64;

  // The hit path: an instance of the fresh entry for `key`, or an empty
  // lease (dropping the entry if it is stale).
  Lease Checkout(const std::string& key);

  Database* db_;
  std::mutex miss_mu_;  // serializes misses; taken before mu_
  mutable std::mutex mu_;  // guards map_, tick_ and each Entry::last_used
  std::unordered_map<std::string, std::shared_ptr<Entry>> map_;
  uint64_t tick_ = 0;  // Acquire counter, for LRU eviction
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace aplus

#endif  // APLUS_CORE_PLAN_CACHE_H_
