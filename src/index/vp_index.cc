#include "index/vp_index.h"

#include <algorithm>

#include "util/logging.h"
#include "util/timer.h"

namespace aplus {

VpIndex::VpIndex(const Graph* graph, const PrimaryIndex* primary, OneHopViewDef view,
                 IndexConfig config)
    : graph_(graph), primary_(primary), view_(std::move(view)), config_(std::move(config)) {
  shared_levels_ = view_.pred.IsTrue() && config_.SamePartitioning(primary_->config());
  for (const Comparison& cmp : view_.pred.conjuncts()) {
    APLUS_CHECK(cmp.lhs.site != PropSite::kBoundEdge &&
                (cmp.rhs_is_const || cmp.rhs_ref.site != PropSite::kBoundEdge))
        << "1-hop view predicates cannot reference eb";
  }
  compiled_ = CompiledPredicate(graph_, view_.pred);
}

bool VpIndex::EvalViewPred(edge_id_t e, vertex_id_t nbr) const {
  if (compiled_.IsTrue()) return true;
  EvalContext ctx;
  ctx.graph = graph_;
  ctx.adj_edge = e;
  ctx.nbr = nbr;
  ctx.src = graph_->edge_src(e);
  ctx.dst = graph_->edge_dst(e);
  return compiled_.Eval(ctx);
}

double VpIndex::Build() {
  WallTimer timer;
  fanouts_.clear();
  fanout_product_ = 1;
  for (const PartitionCriterion& p : config_.partitions) {
    uint32_t fanout = PartitionFanout(graph_->catalog(), p);
    fanouts_.push_back(fanout);
    fanout_product_ *= fanout;
  }
  pages_.clear();
  uint32_t num_pages = primary_->num_pages();
  pages_.reserve(num_pages);
  for (uint32_t p = 0; p < num_pages; ++p) pages_.push_back(std::make_unique<OffsetListPage>());
  num_edges_indexed_ = 0;
  for (uint32_t p = 0; p < num_pages; ++p) BuildGroup(p);
  build_seconds_ = timer.ElapsedSeconds();
  return build_seconds_;
}

void VpIndex::BuildGroup(uint32_t page_idx) {
  OffsetListPage& page = *pages_[page_idx];
  uint64_t nv = graph_->num_vertices();
  vertex_id_t first = page_idx * kGroupSize;
  vertex_id_t last = static_cast<vertex_id_t>(
      std::min<uint64_t>(nv, static_cast<uint64_t>(first) + kGroupSize));

  struct Entry {
    uint32_t bucket;  // slot * fanout_product + partition path
    SortKey key;
    uint32_t offset;  // position within the owner's full primary list
  };
  std::vector<Entry> entries;

  for (vertex_id_t v = first; v < last; ++v) {
    const vertex_id_t* nbrs;
    const edge_id_t* eids;
    uint32_t len;
    primary_->GetListBase(v, &nbrs, &eids, &len);
    uint32_t slot = v % kGroupSize;
    for (uint32_t i = 0; i < len; ++i) {
      edge_id_t e = eids[i];
      vertex_id_t nbr = nbrs[i];
      if (!EvalViewPred(e, nbr)) continue;
      Entry entry;
      entry.bucket = shared_levels_
                         ? slot  // shared mode keeps primary bucket order implicitly
                         : slot * fanout_product_ +
                               primary_->BucketOf(config_, fanouts_, e, nbr);
      entry.key = primary_->ComputeSortKey(config_, e, nbr);
      entry.offset = i;
      entries.push_back(entry);
    }
  }

  if (shared_levels_) {
    // Identical boundaries to the primary page: re-sort within each
    // innermost primary sublist only. Recompute buckets as the primary
    // innermost slot so grouping matches primary sublist boundaries.
    const IdListPage& ppage = primary_->page(page_idx);
    uint32_t pfp = primary_->fanout_product();
    // Assign each entry its primary innermost bucket (entry.bucket holds
    // the owner slot at this point): the bucket is the last CSR position
    // in the owner's range whose start is <= the absolute entry position.
    for (Entry& entry : entries) {
      uint32_t slot_base = entry.bucket * pfp;
      uint32_t abs_pos = ppage.csr[slot_base] + entry.offset;
      const uint32_t* begin_it = ppage.csr + slot_base;
      const uint32_t* end_it = ppage.csr + slot_base + pfp + 1;
      const uint32_t* it = std::upper_bound(begin_it, end_it, abs_pos);
      entry.bucket = slot_base + static_cast<uint32_t>(it - begin_it) - 1;
    }
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      if (a.bucket != b.bucket) return a.bucket < b.bucket;
      return a.key < b.key;
    });
    std::vector<uint32_t> offsets;
    offsets.reserve(entries.size());
    for (const Entry& entry : entries) offsets.push_back(entry.offset);
    page.csr.clear();
    page.SetOffsets(offsets);
  } else {
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      if (a.bucket != b.bucket) return a.bucket < b.bucket;
      return a.key < b.key;
    });
    uint32_t slots = kGroupSize * fanout_product_;
    page.csr.assign(slots + 1, 0);
    for (const Entry& entry : entries) page.csr[entry.bucket + 1]++;
    for (uint32_t s = 0; s < slots; ++s) page.csr[s + 1] += page.csr[s];
    std::vector<uint32_t> offsets;
    offsets.reserve(entries.size());
    for (const Entry& entry : entries) offsets.push_back(entry.offset);
    page.SetOffsets(offsets);
  }
  num_edges_indexed_ += entries.size();
}

AdjListSlice VpIndex::GetList(vertex_id_t v, const std::vector<category_t>& cats) const {
  uint32_t page_idx = v / kGroupSize;
  if (page_idx >= pages_.size()) return AdjListSlice();
  const OffsetListPage& page = *pages_[page_idx];

  AdjListSlice slice;
  const edge_id_t* base_eids;
  uint32_t base_len;
  primary_->GetListBase(v, &slice.nbrs, &base_eids, &base_len);
  slice.edges = base_eids;
  slice.offset_width = page.width;

  if (shared_levels_) {
    // Reuse the primary CSR (identical boundaries).
    APLUS_DCHECK(cats.size() <= primary_->fanouts().size());
    const IdListPage& ppage = primary_->page(page_idx);
    uint32_t pfp = primary_->fanout_product();
    uint32_t start = (v % kGroupSize) * pfp;
    uint32_t span = pfp;
    for (size_t i = 0; i < cats.size(); ++i) {
      span /= primary_->fanouts()[i];
      start += cats[i] * span;
    }
    uint32_t begin = ppage.csr[start];
    uint32_t end = ppage.csr[start + span];
    slice.offsets = page.bytes.data() + static_cast<size_t>(begin) * page.width;
    slice.len = end - begin;
    return slice;
  }

  APLUS_DCHECK(cats.size() <= fanouts_.size());
  if (page.csr.empty()) return AdjListSlice();
  uint32_t start = (v % kGroupSize) * fanout_product_;
  uint32_t span = fanout_product_;
  for (size_t i = 0; i < cats.size(); ++i) {
    span /= fanouts_[i];
    start += cats[i] * span;
  }
  uint32_t begin = page.csr[start];
  uint32_t end = page.csr[start + span];
  slice.offsets = page.bytes.data() + static_cast<size_t>(begin) * page.width;
  slice.len = end - begin;
  return slice;
}

size_t VpIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& page : pages_) bytes += page->MemoryBytes();
  return bytes;
}

int64_t VpIndex::InsertEdge(edge_id_t e) {
  vertex_id_t owner = primary_->OwnerOf(e);
  // The predicate is evaluated eagerly as in Section IV-C. The page is
  // marked pending regardless of the outcome because a primary-page merge
  // may shift the offsets of the owner's other edges.
  (void)EvalViewPred(e, primary_->NbrOf(e));
  uint32_t page_idx = owner / kGroupSize;
  while (pages_.size() <= page_idx) pages_.push_back(std::make_unique<OffsetListPage>());
  if (pending_.size() < pages_.size()) pending_.resize(pages_.size(), 0);
  pending_[page_idx]++;
  pending_total_++;
  return pending_[page_idx] >= kUpdateBufferCapacity ? static_cast<int64_t>(page_idx) : -1;
}

void VpIndex::FlushUpdates() {
  if (pending_total_ == 0) return;
  for (uint32_t p = 0; p < pending_.size(); ++p) {
    if (pending_[p] > 0) RebuildGroup(p);
  }
  APLUS_CHECK_EQ(pending_total_, 0u);
}

void VpIndex::RebuildGroup(uint32_t page_idx) {
  if (page_idx >= pages_.size()) return;
  // Subtract the group's previous contribution before re-deriving it
  // (BuildGroup adds the new count back).
  OffsetListPage& page = *pages_[page_idx];
  num_edges_indexed_ -= page.num_entries();
  BuildGroup(page_idx);
  if (page_idx < pending_.size()) {
    pending_total_ -= pending_[page_idx];
    pending_[page_idx] = 0;
  }
}

}  // namespace aplus
