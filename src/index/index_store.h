#ifndef APLUS_INDEX_INDEX_STORE_H_
#define APLUS_INDEX_INDEX_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "index/ep_index.h"
#include "index/primary_index.h"
#include "index/vp_index.h"

namespace aplus {

// The INDEX STORE of Section IV-A: owns the two mandatory primary A+
// indexes plus every secondary index, and exposes their metadata (type,
// direction, partitioning structure, sorting criterion, view predicate)
// to the optimizer's index matcher.
class IndexStore {
 public:
  explicit IndexStore(const Graph* graph);

  // Builds (or rebuilds, i.e. RECONFIGUREs) both primary indexes under
  // `config`. Returns total build seconds (the IR column of Table II).
  double BuildPrimary(const IndexConfig& config);

  PrimaryIndex* primary(Direction dir) {
    return dir == Direction::kFwd ? primary_fwd_.get() : primary_bwd_.get();
  }
  const PrimaryIndex* primary(Direction dir) const {
    return dir == Direction::kFwd ? primary_fwd_.get() : primary_bwd_.get();
  }

  // Creates and builds a secondary vertex-partitioned index over `view`
  // in direction `dir`. Returns the new index (owned by the store) and
  // reports build seconds through `*build_seconds` if non-null.
  VpIndex* CreateVpIndex(const OneHopViewDef& view, const IndexConfig& config, Direction dir,
                         double* build_seconds = nullptr);

  // Creates and builds a secondary edge-partitioned index, every bound
  // edge's list materialized.
  EpIndex* CreateEpIndex(const TwoHopViewDef& view, const IndexConfig& config,
                         double* build_seconds = nullptr);

  void DropSecondaryIndexes();

  const std::vector<std::unique_ptr<VpIndex>>& vp_indexes() const { return vp_indexes_; }
  const std::vector<std::unique_ptr<EpIndex>>& ep_indexes() const { return ep_indexes_; }
  std::vector<std::unique_ptr<VpIndex>>& vp_indexes() { return vp_indexes_; }
  std::vector<std::unique_ptr<EpIndex>>& ep_indexes() { return ep_indexes_; }

  VpIndex* FindVpIndex(const std::string& name, Direction dir);
  EpIndex* FindEpIndex(const std::string& name);

  size_t PrimaryMemoryBytes() const;
  size_t SecondaryMemoryBytes() const;
  size_t TotalMemoryBytes() const { return PrimaryMemoryBytes() + SecondaryMemoryBytes(); }

  // Total |E_indexed| across primary + secondary indexes (the column of
  // Table IV).
  uint64_t TotalEdgesIndexed() const;

  // Merges every pending update buffer (queries require clean indexes).
  void FlushAll();
  bool HasPendingUpdates() const;

  // Pre-sizes both primary indexes' page vectors for a concurrent ingest
  // phase (the slot arrays must not grow under lock-free readers) and
  // checks no secondary indexes exist. Must be called while quiesced.
  void PrepareForConcurrentIngest(uint64_t max_vertices);

  // Installs sealed segment-backed pages into one primary index; the
  // pages view a read-only mapping that the caller keeps alive for the
  // store's lifetime (Database::OpenFromSegment holds the Segment).
  // Requires no secondary indexes and no readers.
  void AttachSegment(Direction dir, const IndexConfig& config,
                     std::vector<std::unique_ptr<IdListPage>> pages, uint64_t num_edges);

  const Graph* graph() const { return graph_; }

  // Monotonic counter bumped whenever the set or configuration of
  // indexes changes; lets the Database cache its optimizer and prepared
  // queries validate against DDL. Reads are lock-free (serving threads
  // revalidate plans while a writer may be running DDL-adjacent code).
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

 private:
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }

  const Graph* graph_;
  std::atomic<uint64_t> version_{0};
  std::unique_ptr<PrimaryIndex> primary_fwd_;
  std::unique_ptr<PrimaryIndex> primary_bwd_;
  std::vector<std::unique_ptr<VpIndex>> vp_indexes_;
  std::vector<std::unique_ptr<EpIndex>> ep_indexes_;
};

}  // namespace aplus

#endif  // APLUS_INDEX_INDEX_STORE_H_
