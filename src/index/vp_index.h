#ifndef APLUS_INDEX_VP_INDEX_H_
#define APLUS_INDEX_VP_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "index/adj_list_slice.h"
#include "index/index_config.h"
#include "index/offset_list.h"
#include "index/primary_index.h"
#include "view/compiled_predicate.h"
#include "view/view_def.h"

namespace aplus {

// A secondary vertex-partitioned A+ index (Section III-B1): a 1-hop view
// (arbitrary selection over edges) partitioned by vertex ID, then by the
// configured nested criteria, sorted by the configured criteria, and
// stored as offset lists into the primary index's ID lists
// (Section III-B3).
//
// Two storage modes (Section III-B3):
//  * Shared partitioning levels — when the view has no predicate and the
//    partitioning structure equals the primary index's, the lists hold
//    the same edges with identical boundaries and only the sort order
//    differs, so the primary CSR levels are reused and only permuted
//    offset lists are stored (the D+VPt configuration of Table III).
//  * Own partitioning levels — with a predicate or different
//    partitioning, each page carries its own CSR (Figure 3a bottom-right).
class VpIndex {
 public:
  // `primary` must be the primary index of the same direction. The view
  // predicate may reference eadj, vs, vd and vnbr.
  VpIndex(const Graph* graph, const PrimaryIndex* primary, OneHopViewDef view,
          IndexConfig config);

  double Build();

  const std::string& name() const { return view_.name; }
  const OneHopViewDef& view() const { return view_; }
  const IndexConfig& config() const { return config_; }
  Direction direction() const { return primary_->direction(); }
  const PrimaryIndex* primary() const { return primary_; }
  bool shares_partition_levels() const { return shared_levels_; }

  // Constant-time list access; same contract as PrimaryIndex::GetList,
  // with `cats` interpreted against this index's partition criteria.
  AdjListSlice GetList(vertex_id_t v, const std::vector<category_t>& cats) const;
  AdjListSlice GetFullList(vertex_id_t v) const { return GetList(v, {}); }

  uint32_t num_pages() const { return static_cast<uint32_t>(pages_.size()); }
  const OffsetListPage& page(uint32_t p) const { return *pages_[p]; }

  size_t MemoryBytes() const;
  uint64_t num_edges_indexed() const { return num_edges_indexed_; }
  double build_seconds() const { return build_seconds_; }

  // Maintenance (Section IV-C): evaluates the view predicate against the
  // new edge and buffers an update for the owner's page. Returns the
  // page index whose buffer just filled (and should be merged via
  // RebuildGroup after flushing the primary page), or -1. The Maintainer
  // orchestrates the merge ordering; exactness is guaranteed once both
  // the primary index and this index are flushed.
  int64_t InsertEdge(edge_id_t e);
  // Rebuilds the offset lists of every owner in `page_idx` from the
  // primary page (used after a primary merge invalidates offsets).
  void RebuildGroup(uint32_t page_idx);
  void FlushUpdates();
  bool HasPendingUpdates() const { return pending_total_ > 0; }

  static constexpr uint32_t kUpdateBufferCapacity = 32;

 private:
  struct BuildScratch;

  bool EvalViewPred(edge_id_t e, vertex_id_t nbr) const;
  // Builds one page with the bucketed page build (index/page_build.h).
  void BuildGroup(uint32_t page_idx, BuildScratch* scratch);

  const Graph* graph_;
  const PrimaryIndex* primary_;
  OneHopViewDef view_;
  CompiledPredicate compiled_;  // view_.pred
  IndexConfig config_;
  bool shared_levels_ = false;
  PartitionLevels levels_;
  std::vector<std::unique_ptr<OffsetListPage>> pages_;
  std::vector<uint32_t> pending_;  // buffered-update counts per page
  uint64_t pending_total_ = 0;
  uint64_t num_edges_indexed_ = 0;
  double build_seconds_ = 0.0;
};

}  // namespace aplus

#endif  // APLUS_INDEX_VP_INDEX_H_
