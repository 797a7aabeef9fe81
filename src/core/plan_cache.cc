#include "core/plan_cache.h"

#include <algorithm>
#include <vector>

#include "core/database.h"

namespace aplus {

struct PlanCache::Entry {
  std::unique_ptr<PreparedQuery> master;  // clone template; never executed
  uint64_t last_used = 0;
  std::mutex mu;  // guards pool
  std::vector<std::unique_ptr<PreparedQuery>> pool;
};

void PlanCache::Returner::operator()(PreparedQuery* query) const {
  std::unique_ptr<PreparedQuery> owned(query);  // freed after the lock if not pooled
  std::shared_ptr<Entry> live = entry.lock();
  if (live == nullptr) return;
  std::lock_guard<std::mutex> lock(live->mu);
  if (live->pool.size() < kMaxPooledPerEntry) {
    owned->ResetTo(*live->master);
    live->pool.push_back(std::move(owned));
  }
}

PlanCache::Lease PlanCache::Acquire(const std::string& text, const PrepareOptions& options) {
  const std::string key = NormalizeQueryText(text);
  Lease lease = Checkout(key);
  if (lease.get() != nullptr) return lease;
  std::lock_guard<std::mutex> miss_lock(miss_mu_);
  lease = Checkout(key);  // a racing miss on the same text may have published it
  if (lease.get() != nullptr) return lease;
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto entry = std::make_shared<Entry>();
  entry->master = db_->Prepare(text, options);
  if (!entry->master->ok()) {
    lease.query_.reset(entry->master.release());  // failed prepares are not cached
    return lease;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (map_.size() >= kMaxEntries) {
      map_.erase(std::min_element(map_.begin(), map_.end(), [](const auto& a, const auto& b) {
        return a.second->last_used < b.second->last_used;
      }));
    }
    entry->last_used = ++tick_;
    map_[key] = entry;
  }
  lease.query_ = {db_->ClonePrepared(*entry->master).release(), Returner{entry}};
  return lease;
}

PlanCache::Lease PlanCache::Checkout(const std::string& key) {
  Lease lease;
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return lease;
    if (it->second->master->stale()) {
      map_.erase(it);
      return lease;
    }
    entry = it->second;
    entry->last_used = ++tick_;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<PreparedQuery> query;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (!entry->pool.empty()) {
      query = std::move(entry->pool.back());
      entry->pool.pop_back();
    }
  }
  // The master is immutable once published, so clones need no lock.
  if (query == nullptr) query = db_->ClonePrepared(*entry->master);
  lease.query_ = {query.release(), Returner{entry}};
  lease.hit_ = true;
  return lease;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace aplus
