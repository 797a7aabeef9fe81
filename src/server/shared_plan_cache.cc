#include "server/shared_plan_cache.h"

#include <functional>

namespace aplus {

SharedPlanCache::Shard& SharedPlanCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kNumShards];
}

SharedPlanCache::Lease SharedPlanCache::Acquire(const std::string& text,
                                                const PrepareOptions& options) {
  const std::string key = NormalizeQueryText(text);
  Shard& shard = ShardFor(key);
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      if (it->second->master->stale()) {
        shard.map.erase(it);  // instances drain back through Release and drop
      } else {
        entry = it->second;
      }
    }
  }
  Lease lease;
  if (entry != nullptr) {
    // Hit: pool pop, or clone from the shared optimized plan. Cloning
    // under the entry mutex serializes same-text checkouts only; other
    // texts proceed in parallel.
    std::lock_guard<std::mutex> lock(entry->mu);
    if (!entry->pool.empty()) {
      lease.owned = std::move(entry->pool.back());
      entry->pool.pop_back();
    } else {
      lease.owned = db_->ClonePrepared(*entry->master);
    }
    lease.query = lease.owned.get();
    lease.entry = entry;
    lease.hit = true;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return lease;
  }
  // Miss: parse + optimize the master outside any shard lock, then
  // publish. A racing miss on the same text may publish first; adopt
  // the winner's entry and donate our master to its pool.
  misses_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<PreparedQuery> master;
  {
    std::lock_guard<std::mutex> prepare_lock(prepare_mu_);
    master = db_->Prepare(text, options);
  }
  if (!master->ok()) {
    // Failed prepares are cheap error holders and never cached (the
    // Session contract); hand the holder itself out.
    lease.owned = std::move(master);
    lease.query = lease.owned.get();
    return lease;
  }
  auto fresh = std::make_shared<Entry>();
  fresh->key = key;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end() && !it->second->master->stale()) {
      entry = it->second;  // lost the publish race
    } else {
      fresh->master = std::move(master);
      shard.map[key] = fresh;
      entry = fresh;
    }
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (master != nullptr) {
    // Race loser: our fully prepared master becomes this lease's
    // instance — the optimizer work is not wasted.
    lease.owned = std::move(master);
  } else if (!entry->pool.empty()) {
    lease.owned = std::move(entry->pool.back());
    entry->pool.pop_back();
  } else {
    lease.owned = db_->ClonePrepared(*entry->master);
  }
  lease.query = lease.owned.get();
  lease.entry = entry;
  return lease;
}

void SharedPlanCache::Release(Lease* lease) {
  if (lease->owned == nullptr) return;
  std::shared_ptr<Entry> entry = std::static_pointer_cast<Entry>(lease->entry);
  if (entry != nullptr && lease->owned->ok() && !entry->master->stale()) {
    // A pooled instance must not leak the previous owner's parameter
    // values into the next checkout: clear the bound flags so Execute
    // refuses until the new owner binds.
    lease->owned->ClearBindings();
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->pool.size() < kMaxPooledPerEntry) {
      entry->pool.push_back(std::move(lease->owned));
    }
  }
  lease->owned.reset();
  lease->query = nullptr;
  lease->entry.reset();
}

void SharedPlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
}

size_t SharedPlanCache::size() const {
  size_t total = 0;
  for (const Shard& shard : const_cast<SharedPlanCache*>(this)->shards_) {
    std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(shard.mu));
    total += shard.map.size();
  }
  return total;
}

}  // namespace aplus
