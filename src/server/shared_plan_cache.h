#ifndef APLUS_SERVER_SHARED_PLAN_CACHE_H_
#define APLUS_SERVER_SHARED_PLAN_CACHE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/database.h"

namespace aplus {

// Cross-session shared plan cache: one map over ALL connections keyed on
// normalized query text, so a query is parsed + optimized once per text
// per graph epoch — not once per connection (Session's cache is
// per-thread and rebuilds the same plan N times for N connections).
//
// Structure:
//   * The map is mutex-sharded (hash(text) % kNumShards); shard critical
//     sections only touch the map, never prepare or clone.
//   * Each entry holds a "master" PreparedQuery that is NEVER executed —
//     it is the clone template — plus a pool of idle instances.
//   * Acquire() checks an instance out (pool pop, or
//     Database::ClonePrepared from the master under the entry mutex);
//     the caller owns it exclusively until Release(), so Bind/Execute on
//     a checked-out instance take no locks at all.
//   * Version invalidation is Session::Prepare's: an entry is stale when
//     its master is (PreparedQuery::stale — the index-store version
//     moved, or ingest grew or shrank the graph past plan quality).
//     Stale entries are dropped whole — instances still checked out
//     drain back through Release() and are discarded there.
//
// A hit is an Acquire served from the shared plan (pool pop or clone) —
// no parse, no optimizer. After warmup a steady request mix should sit
// well above 90% (tests/server_test.cc and aplus_loadgen assert it).
class SharedPlanCache {
 public:
  explicit SharedPlanCache(Database* db) : db_(db), shards_(kNumShards) {}

  // Move-only handle to a checked-out instance. valid() is false only
  // when Prepare itself failed; the failed PreparedQuery rides along so
  // the caller can surface error()/status through the normal path.
  struct Lease {
    PreparedQuery* query = nullptr;
    bool hit = false;  // served from the shared plan (no re-optimize)

    bool valid() const { return query != nullptr && query->ok(); }

   private:
    friend class SharedPlanCache;
    std::shared_ptr<void> entry;  // keeps the Entry alive while checked out
    std::unique_ptr<PreparedQuery> owned;
  };

  // Checks an instance out for `text`. Never returns a null Lease.query.
  // `options` apply on misses only (the first prepare of a text fixes
  // the batch size for every later clone).
  Lease Acquire(const std::string& text, const PrepareOptions& options = {});

  // Returns the instance to its entry's pool (bindings cleared), or
  // drops it when the entry went stale/evicted meanwhile.
  void Release(Lease* lease);

  // Drops every entry (DDL hook / tests). Checked-out instances keep
  // executing and are discarded on Release.
  void Clear();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t size() const;

 private:
  static constexpr size_t kNumShards = 16;
  // Idle instances kept per entry; beyond this, Release drops the
  // instance instead (bounds idle memory under connection churn).
  static constexpr size_t kMaxPooledPerEntry = 64;

  struct Entry {
    std::string key;
    std::mutex mu;  // guards master (as clone source) + pool
    std::unique_ptr<PreparedQuery> master;  // clone template; never executed
    std::vector<std::unique_ptr<PreparedQuery>> pool;
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<Entry>> map;
  };

  Shard& ShardFor(const std::string& key);

  Database* db_;
  std::vector<Shard> shards_;
  // Serializes Database::Prepare across worker threads: the cached
  // optimizer rebuild inside Prepare is not concurrency-safe (ROADMAP
  // carry-over), and misses are rare after warmup by design.
  std::mutex prepare_mu_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace aplus

#endif  // APLUS_SERVER_SHARED_PLAN_CACHE_H_
