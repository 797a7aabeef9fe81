#ifndef APLUS_INDEX_MAINTENANCE_H_
#define APLUS_INDEX_MAINTENANCE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "index/index_store.h"
#include "storage/graph.h"

namespace aplus {

// Orchestrates index maintenance (Section IV-C) across the primary and
// secondary A+ indexes of a store. The caller first applies the edge to
// the graph (AddEdge + property writes), then calls OnEdgeInserted; the
// maintainer propagates through every index:
//   1. the edge enters the update buffers of both primary indexes (pages
//      merge automatically when a buffer fills);
//   2. each VP index buffers an update of the edge's owner page;
//   3. each EP index buffers updates of the pages the two delta queries
//      of Section IV-C touch (the adjacent bound edges' lists, and the
//      edge's own list).
// The view predicates are evaluated when a buffered page merges: the
// merge re-derives the page's lists from the primary indexes.
// Finalize() (or IndexStore::FlushAll) merges all buffers; the indexes
// are exact with respect to the graph afterwards.
//
// Concurrent serving mode (EnterConcurrentMode): primary-page deltas are
// published to lock-free readers instead of auto-merging, and the
// maintainer drives merges through its cost model — either inline on the
// ingest thread or on a dedicated background merger thread that compacts
// deltas into fresh sorted runs and retires the old ones through the
// EpochManager once every reader has drained. Secondary indexes resolve
// offsets against primary runs non-atomically and must not exist while
// the mode is active (Database::BeginConcurrentIngest enforces this).
class Maintainer {
 public:
  Maintainer(const Graph* graph, IndexStore* store) : graph_(graph), store_(store) {}
  ~Maintainer();

  void OnEdgeInserted(edge_id_t e);

  // Deletes `e` from every index (the graph row is tombstoned by the
  // indexes only; graph storage is append-only).
  void OnEdgeDeleted(edge_id_t e);

  void Finalize();

  // --- Concurrent serving (the tentpole of the epoch layer) ---

  // Switches the primaries to delta-publishing maintenance: inserts and
  // deletes accumulate in per-page PageDeltas visible to snapshot probes
  // and merge per the cost model below. With `background_merge` a
  // dedicated thread compacts scheduled pages; otherwise merges run
  // inline on the ingest thread once a page crosses its threshold.
  // Requires no secondary indexes.
  void EnterConcurrentMode(bool background_merge);
  // Stops the merger, flushes every remaining delta and re-enables
  // auto-merging. The indexes are exact w.r.t. the graph afterwards.
  void ExitConcurrentMode();
  bool concurrent_mode() const { return concurrent_.load(std::memory_order_acquire); }

  // Merge cost model (the Section IV-C amortization argument, adapted to
  // delta pages): a probe pays O(d) to scan a page's delta of d entries
  // while a merge pays O(r + d) to rebuild a run of r entries. Merging
  // after d entries amortizes the rebuild to O(r/d) per buffered update,
  // so larger runs demand proportionally more buffered entries before a
  // merge — bounded below to keep tiny pages from thrashing and above by
  // the delta capacity that forces an inline merge.
  static uint32_t MergeThreshold(uint32_t run_entries);

  // Pages compacted by the background merger thread so far.
  uint64_t background_merges() const {
    return background_merges_.load(std::memory_order_relaxed);
  }

 private:
  void MaybeScheduleMerge(PrimaryIndex* index, edge_id_t e);
  void MergerLoop();

  const Graph* graph_;
  IndexStore* store_;

  std::atomic<bool> concurrent_{false};
  bool background_ = false;

  struct MergeTask {
    PrimaryIndex* index;
    uint32_t page;
  };
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<MergeTask> queue_;
  std::set<std::pair<PrimaryIndex*, uint32_t>> queued_;  // dedup
  bool stop_merger_ = false;
  std::thread merger_;
  std::atomic<uint64_t> background_merges_{0};
};

}  // namespace aplus

#endif  // APLUS_INDEX_MAINTENANCE_H_
