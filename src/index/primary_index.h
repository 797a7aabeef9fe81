#ifndef APLUS_INDEX_PRIMARY_INDEX_H_
#define APLUS_INDEX_PRIMARY_INDEX_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "index/adj_list_slice.h"
#include "index/index_config.h"
#include "index/list_page.h"
#include "storage/graph.h"
#include "storage/types.h"

namespace aplus {

// Maximum number of configured sort criteria (the paper's workloads use
// at most two, e.g. neighbour label then neighbour ID).
inline constexpr int kMaxSortKeys = 3;

// Sort key tuple of one list entry: the configured keys followed by the
// implicit neighbour-ID / edge-ID tie breakers.
struct SortKey {
  std::array<int64_t, kMaxSortKeys> keys{};
  int num_keys = 0;
  vertex_id_t nbr = 0;
  edge_id_t eid = 0;

  bool operator<(const SortKey& other) const {
    for (int i = 0; i < num_keys; ++i) {
      if (keys[i] != other.keys[i]) return keys[i] < other.keys[i];
    }
    if (nbr != other.nbr) return nbr < other.nbr;
    return eid < other.eid;
  }
};

// Encodes a double so that int64 comparison preserves double ordering.
int64_t EncodeDoubleSortKey(double d);
// Nulls sort last (Section III-A2).
inline constexpr int64_t kNullSortKey = INT64_MAX;

// Sort-key component of a list entry (edge e pointing at neighbour nbr)
// under one sort criterion. Shared by index builds and the MULTI-EXTEND
// merge, which re-derives entry keys at probe time.
int64_t EntrySortKey(const Graph& graph, const SortCriterion& criterion, edge_id_t e,
                     vertex_id_t nbr);
// The property part of EntrySortKey: the key of id `id` in `col` (nulls
// and ids past the column's end sort last).
int64_t ColumnSortKey(const PropertyColumn* col, uint64_t id);

// Reusable scratch for materializing a merged run+delta view of one
// list. Owned by the probing ListDescriptor (cloned per worker replica),
// so the no-delta fast path performs no allocation at all and the slow
// path amortizes its buffers across probes.
struct ListMergeScratch {
  struct Add {
    uint32_t pos;  // insertion index within the probed run range
    uint32_t bucket;
    SortKey key;
    vertex_id_t nbr;
    edge_id_t eid;
  };
  std::vector<vertex_id_t> nbrs;
  std::vector<edge_id_t> eids;
  std::vector<Add> adds;
  std::vector<edge_id_t> deletes;
  // One-block decode cache for packed (segment-backed) lists, wired into
  // the returned slice so repeated point probes amortize varint decodes.
  codec::PackedCursor packed_cursor;
};

// A primary A+ index (Section III-A): one of the two mandatory indexes
// (forward or backward) that stores every edge of the graph in a nested
// CSR partitioned first by vertex ID (in pages of 64 vertices), then by
// the configured categorical criteria, with the most granular ID lists
// sorted by the configured criteria.
//
// Unlike existing GDBMSs, the secondary partitioning and the sorting are
// reconfigurable at runtime (RECONFIGURE PRIMARY INDEXES): Build() can be
// called again with a new config, which is exactly the paper's index
// reconfiguration (the IR column of Table II).
//
// Build() is the bucketed page build of index/page_build.h: one pass in
// edge-id order scatters a 16-byte {slot, nbr, eid} entry per edge into
// its page's range of one transient array (freed before Build returns),
// then each page is counting-sorted by slot, which yields its CSR, and
// each list is sorted on its own. Page merges run the same two stages
// over the page's surviving and buffered edges.
//
// Concurrency model: each page slot holds an immutable sorted run and an
// optional PageDelta behind atomic pointers. Readers (GetListSnapshot)
// are lock-free; they load run-then-delta with acquire semantics and
// merge the two views at probe time. All mutation — InsertEdge,
// DeleteEdge, merges, Build — serializes on an internal writer mutex, so
// one ingest thread and one background merger can run against any number
// of readers. PrefetchList starts the loads of one list the same way,
// stage by stage, so that a query operator can overlap the misses of
// many lists before it reads any of them. Replaced runs/deltas are
// retired through the global EpochManager and freed only after every
// reader that could hold a pointer into them has unpinned. During
// concurrent serving the page vector must be pre-sized with
// ReservePages (growing it would move the slots under the readers);
// secondary indexes resolve offsets against primary runs non-atomically
// and are therefore unsupported while writers are active (enforced by
// Database::BeginConcurrentIngest).
class PrimaryIndex {
 public:
  PrimaryIndex(const Graph* graph, Direction direction);
  ~PrimaryIndex();

  // (Re)builds the whole index under `config`. Returns build seconds.
  double Build(const IndexConfig& config);

  Direction direction() const { return direction_; }
  const IndexConfig& config() const { return config_; }
  const Graph* graph() const { return graph_; }

  // Owner vertex whose list stores edge `e` (src for FW, dst for BW) and
  // the neighbour stored in the list entry.
  vertex_id_t OwnerOf(edge_id_t e) const {
    return direction_ == Direction::kFwd ? graph_->edge_src(e) : graph_->edge_dst(e);
  }
  vertex_id_t NbrOf(edge_id_t e) const {
    return direction_ == Direction::kFwd ? graph_->edge_dst(e) : graph_->edge_src(e);
  }

  // Constant-time list access against the sorted run only. `cats` fixes
  // a prefix of the partition criteria (Section III-A1): empty = the
  // whole list of v, one value = the level-1 sublist, and so on. Any
  // prefix is one contiguous range. Requires a clean index (no pending
  // delta entries) for exact results; concurrent probes use
  // GetListSnapshot instead.
  AdjListSlice GetList(vertex_id_t v, const std::vector<category_t>& cats) const;
  AdjListSlice GetFullList(vertex_id_t v) const;

  // Like GetList but merges the page's delta buffer into the view when
  // one is pending: run entries suppressed by `deletes` are skipped and
  // buffered inserts are spliced in at their sorted position, using
  // `scratch` for the materialized copy. When the page has no relevant
  // delta this degenerates to the zero-copy run slice. The caller must
  // hold an epoch pin for the lifetime of the returned slice.
  AdjListSlice GetListSnapshot(vertex_id_t v, const std::vector<category_t>& cats,
                               ListMergeScratch* scratch) const;

  // One stage of loading the list GetListSnapshot(v, cats) would return,
  // without waiting for it, so that the cache misses of several lists
  // overlap (ExtendOp's next-hop prefetch). Each stage reads only what
  // the stage before it prefetched, so a caller runs stage k over a
  // whole group of lists before stage k + 1:
  //   0: loads the page's run and delta with the snapshot's acquire
  //      loads and prefetches the list's CSR bounds and the delta's
  //      header, if any;
  //   1: reads the CSR bounds and prefetches the first line of the
  //      neighbour and edge IDs or, for a packed run, the skip entry of
  //      the codec block holding the list's first entry;
  //   2: (packed runs only) reads that skip entry and prefetches the
  //      block's first two lines.
  // Returns whether a later stage has work for this list. An empty list
  // prefetches no data, and a `v` past the pages is a no-op. The caller
  // must hold an epoch pin, as for GetListSnapshot: a merge may retire
  // the run it loads.
  static constexpr int kPrefetchStages = 3;
  bool PrefetchList(int stage, vertex_id_t v, const std::vector<category_t>& cats) const;

  // Base pointers of v's full ID list; secondary indexes resolve their
  // vertex-relative offsets against these.
  void GetListBase(vertex_id_t v, const vertex_id_t** nbrs, const edge_id_t** eids,
                   uint32_t* len) const;

  // Category of edge/nbr under one partitioning criterion (nulls map to
  // the extra last slot).
  category_t CategoryOf(const PartitionCriterion& criterion, edge_id_t e, vertex_id_t nbr) const;
  // Flattened partition path of an entry across all criteria of `config`.
  uint32_t BucketOf(const IndexConfig& config, const std::vector<uint32_t>& fanouts, edge_id_t e,
                    vertex_id_t nbr) const;

  int64_t SortKeyComponent(const SortCriterion& criterion, edge_id_t e, vertex_id_t nbr) const;
  SortKey ComputeSortKey(const IndexConfig& config, edge_id_t e, vertex_id_t nbr) const;

  const PartitionLevels& levels() const { return levels_; }
  uint32_t fanout_product() const { return levels_.product(); }
  uint32_t num_pages() const { return static_cast<uint32_t>(pages_.size()); }
  const IdListPage& page(uint32_t p) const {
    return *pages_[p].run.load(std::memory_order_acquire);
  }

  size_t MemoryBytes() const;
  // Bytes of the partitioning-level CSRs only (the Dp overhead of
  // Table II comes from this component).
  size_t PartitionLevelBytes() const;
  uint64_t num_edges_indexed() const {
    return num_edges_indexed_.load(std::memory_order_relaxed);
  }
  double build_seconds() const { return build_seconds_; }

  // --- Maintenance (Section IV-C) ---
  // Buffers the insertion of edge `e` (must already exist in the graph);
  // the page merges automatically when its buffer fills up, unless auto
  // merge is off (background-merge mode), in which case only a full
  // PageDelta forces an inline merge.
  void InsertEdge(edge_id_t e);
  // Buffers the deletion of `e`; reclaimed at the next page merge.
  void DeleteEdge(edge_id_t e);
  // Merges all pending deltas. Non-snapshot queries require a clean index.
  void FlushUpdates();
  // Merges one page's pending delta (no-op when clean).
  void FlushPage(uint32_t page_idx);
  bool HasPendingUpdates() const {
    return pending_updates_.load(std::memory_order_relaxed) > 0;
  }

  // Pre-sizes the page vector for concurrent serving: the slot array
  // must not grow (and thus move) while lock-free readers index into it.
  void ReservePages(uint64_t max_vertices);

  // Installs sealed segment-backed pages: each IdListPage views arrays
  // inside a read-only mapping the caller keeps alive for the index's
  // lifetime (Database::OpenFromSegment holds the Segment). Replaces any
  // built state; must run before readers exist. Mutation of a
  // segment-backed index is rejected upstream (DDL / ingest guards).
  void AttachSegmentPages(const IndexConfig& config,
                          std::vector<std::unique_ptr<IdListPage>> pages, uint64_t num_edges);
  // Background-merge mode: the maintainer decides when to merge, pages
  // only force an inline merge when a delta side fills up entirely.
  void set_auto_merge(bool on) { auto_merge_ = on; }
  bool auto_merge() const { return auto_merge_; }

  // Delta occupancy of one page (inserts + deletes) and length of its
  // sorted run; the maintainer's merge cost model reads these.
  uint32_t DeltaEntries(uint32_t page_idx) const;
  uint32_t RunEntries(uint32_t page_idx) const;

  // Buffer capacity per page before an automatic merge.
  static constexpr uint32_t kUpdateBufferCapacity = 32;

 private:
  // One page's published state. Only ever mutated under writer_mu_;
  // readers load the pointers with acquire semantics. Moves happen only
  // while the vector grows under writer_mu_ with no concurrent readers
  // (enforced by ReservePages in concurrent mode).
  struct PageSlot {
    std::atomic<const IdListPage*> run{nullptr};
    std::atomic<PageDelta*> delta{nullptr};

    PageSlot() = default;
    PageSlot(PageSlot&& other) noexcept
        : run(other.run.load(std::memory_order_relaxed)),
          delta(other.delta.load(std::memory_order_relaxed)) {
      other.run.store(nullptr, std::memory_order_relaxed);
      other.delta.store(nullptr, std::memory_order_relaxed);
    }
    PageSlot(const PageSlot&) = delete;
    PageSlot& operator=(const PageSlot&) = delete;
  };

  // Installs `config` and its fan-outs, retiring every page.
  void ResetLocked(const IndexConfig& config);
  // A sorted run over `edges` (all owned by one page, in any order).
  std::unique_ptr<IdListPage> BuildRun(const std::vector<edge_id_t>& edges) const;
  // Publishes `run` as the page's new sorted run and clears its delta;
  // the old run/delta are retired through the EpochManager.
  void PublishRun(uint32_t page_idx, std::unique_ptr<IdListPage> run);
  void MergePageLocked(uint32_t page_idx);
  void GrowPagesLocked(uint32_t page_idx);
  AdjListSlice SliceFromRun(const IdListPage* run, vertex_id_t v,
                            const std::vector<category_t>& cats,
                            codec::PackedCursor* cursor = nullptr) const;
  uint32_t PageOf(vertex_id_t v) const { return v / kGroupSize; }

  const Graph* graph_;
  Direction direction_;
  IndexConfig config_;
  PartitionLevels levels_;
  std::vector<PageSlot> pages_;
  std::atomic<uint64_t> num_edges_indexed_{0};
  std::atomic<uint64_t> pending_updates_{0};
  bool auto_merge_ = true;
  bool pages_reserved_ = false;
  double build_seconds_ = 0.0;
  // Serializes every mutator (ingest writer, background merger, DDL).
  mutable std::mutex writer_mu_;
};

}  // namespace aplus

#endif  // APLUS_INDEX_PRIMARY_INDEX_H_
