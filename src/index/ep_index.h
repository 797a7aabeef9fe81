#ifndef APLUS_INDEX_EP_INDEX_H_
#define APLUS_INDEX_EP_INDEX_H_

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

class ListKeys;

// A secondary edge-partitioned A+ index (Section III-B2): a 2-hop view
// partitioned by the ID of the bound edge eb, then by the configured
// nested criteria over the adjacent edge eadj / neighbour vnbr, stored as
// offset lists into the anchor vertex's primary ID list.
//
// The adjacency of eb = (vs, vd) is one of the four kinds of EpKind; e.g.
// Destination-FW stores, for each eb, the subset of vd's forward edges
// that satisfy the view predicate together with eb. The predicate must
// reference both edges (enforced at construction), otherwise the lists
// would be duplicates of a 1-hop view's lists.
//
// Build is anchor-major. The view predicate is compiled once into typed
// comparisons (CompiledPredicate) split into bound-side (eb, vs, vd),
// adjacent-side (eadj, vnbr) and cross conjuncts. Worker threads take
// ranges of anchor vertices; for each anchor they read its base list
// once, drop the entries failing the adjacent-side conjuncts, compute
// each entry's partition bucket and sort key once (neither depends on
// eb), order the entries by (bucket, key) and gather the cross
// conjuncts' adjacent operands in that order. Every eb anchored there
// then runs only the typed cross-conjunct filter over that gather, and
// the passing offsets come out already in list order. A grouping by eb
// finally assembles the 64-edge offset-list pages. Single-page rebuilds
// (RebuildGroup) derive a page eb by eb through the same gather and
// filter, so pages are byte-identical whichever path built them.
class EpIndex {
 public:
  // `primary_fwd`/`primary_bwd` are the primary indexes; the one matching
  // AdjDirection(view.kind) provides the base lists the offsets resolve
  // against. Build() materializes every bound edge's list.
  EpIndex(const Graph* graph, const PrimaryIndex* primary_fwd, const PrimaryIndex* primary_bwd,
          TwoHopViewDef view, IndexConfig config);

  double Build();

  const std::string& name() const { return view_.name; }
  const TwoHopViewDef& view() const { return view_; }
  const IndexConfig& config() const { return config_; }
  EpKind kind() const { return view_.kind; }

  // The vertex whose primary list eb's adjacency is a subset of.
  vertex_id_t AnchorOf(edge_id_t eb) const {
    return AnchorIsDst(view_.kind) ? graph_->edge_dst(eb) : graph_->edge_src(eb);
  }
  // The primary index the offsets resolve against.
  const PrimaryIndex* base_primary() const { return base_primary_; }

  // Constant-time adjacency of edge `eb`; `cats` fixes a prefix of this
  // index's partition criteria.
  AdjListSlice GetList(edge_id_t eb, const std::vector<category_t>& cats) const;
  AdjListSlice GetFullList(edge_id_t eb) const { return GetList(eb, {}); }

  uint32_t num_pages() const { return static_cast<uint32_t>(pages_.size()); }
  // Offset-list page p: the lists of bound edges [64p, 64p + 64).
  const OffsetListPage& page(uint32_t p) const { return *pages_[p]; }

  size_t MemoryBytes() const;
  uint64_t num_edges_indexed() const { return num_edges_indexed_; }
  double build_seconds() const { return build_seconds_; }

  // Maintenance (Section IV-C). Inserting e marks the pages of the two
  // delta queries pending: (1) every existing bound edge e may become an
  // adjacent edge of; (2) e's own (possibly empty) list. Their lists are
  // re-derived, view predicate included, when the page merges. Updates
  // are buffered per 64-edge page; the returned page indexes have full
  // buffers and should be merged (RebuildGroup) after the primary
  // indexes are flushed — the Maintainer orchestrates this ordering.
  std::vector<uint32_t> InsertEdge(edge_id_t e);
  void RebuildGroup(uint32_t page_idx);
  void FlushUpdates();
  bool HasPendingUpdates() const { return pending_total_ > 0; }

  // Larger than the VP buffer: one insertion marks every bound edge
  // anchored at the shared vertex, so EP pages fill much faster and the
  // group re-derivation must amortize over more buffered updates.
  static constexpr uint32_t kUpdateBufferCapacity = 256;

 private:
  // One entry of an EP list under construction: its partition bucket
  // within eb's slot and its offset into the anchor's base list.
  struct ListEntry {
    uint32_t bucket;
    uint32_t offset;
  };
  struct EntrySpan {
    const ListEntry* data = nullptr;
    uint32_t size = 0;
  };
  // One anchor's base list in (bucket, key) order, with the cross
  // conjuncts' adjacent operands gathered (defined in the .cc).
  struct AnchorScratch;

  void PrepareAnchor(vertex_id_t anchor, AnchorScratch* scratch) const;
  // Appends eb's list, in list order, from its prepared anchor.
  void SelectEntries(edge_id_t eb, AnchorScratch* scratch, std::vector<ListEntry>* out) const;
  // Writes one page from its kGroupSize slots' lists; returns its entry
  // count. `offsets` is scratch.
  uint64_t AssemblePage(OffsetListPage* page, const EntrySpan* slots,
                        std::vector<uint32_t>* offsets) const;
  // The anchor-major build of every page over `num_threads` threads.
  void BuildAll(uint32_t num_threads);
  // Derives one page eb by eb and returns its entry count without
  // touching num_edges_indexed_.
  uint64_t BuildPage(uint32_t page_idx, const ListKeys& keys);
  bool MarkPending(uint32_t page_idx);

  const Graph* graph_;
  const PrimaryIndex* primary_fwd_;
  const PrimaryIndex* primary_bwd_;
  const PrimaryIndex* base_primary_;
  TwoHopViewDef view_;
  CompiledPredicate compiled_;  // view_.pred
  IndexConfig config_;
  PartitionLevels levels_;
  std::vector<std::unique_ptr<OffsetListPage>> pages_;
  std::vector<uint32_t> pending_;
  uint64_t pending_total_ = 0;
  uint64_t num_edges_indexed_ = 0;
  double build_seconds_ = 0.0;
};

}  // namespace aplus

#endif  // APLUS_INDEX_EP_INDEX_H_
