#include "index/vp_index.h"

#include <algorithm>
#include <string>

#include "index/page_build.h"
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

// Buffers of the page build, reused across the pages of one build.
struct VpIndex::BuildScratch {
  BuildScratch(const Graph& graph, const IndexConfig& config, const std::vector<uint32_t>& fanouts)
      : keys(graph, config, fanouts), sorter(&keys) {}
  // `sorter` points at `keys`.
  BuildScratch(const BuildScratch&) = delete;
  BuildScratch& operator=(const BuildScratch&) = delete;

  ListKeys keys;
  PageSorter<OffsetEntry> sorter;
  std::vector<OffsetEntry> entries;
  std::vector<uint32_t> shared_csr;  // shared levels: equals the primary's, then dropped
  std::vector<uint32_t> offsets;
};

double VpIndex::Build() {
  WallTimer timer;
  std::string error;
  APLUS_CHECK(ResolveFanouts(graph_->catalog(), config_.partitions, &levels_, &error)) << error;
  pages_.clear();
  uint32_t num_pages = primary_->num_pages();
  pages_.reserve(num_pages);
  for (uint32_t p = 0; p < num_pages; ++p) pages_.push_back(std::make_unique<OffsetListPage>());
  num_edges_indexed_ = 0;
  BuildScratch scratch(*graph_, config_, levels_.fanouts);
  for (uint32_t p = 0; p < num_pages; ++p) BuildGroup(p, &scratch);
  build_seconds_ = timer.ElapsedSeconds();
  return build_seconds_;
}

void VpIndex::BuildGroup(uint32_t page_idx, BuildScratch* scratch) {
  OffsetListPage& page = *pages_[page_idx];
  uint64_t nv = graph_->num_vertices();
  vertex_id_t first = page_idx * kGroupSize;
  vertex_id_t last = static_cast<vertex_id_t>(
      std::min<uint64_t>(nv, static_cast<uint64_t>(first) + kGroupSize));

  // With shared levels an entry's slot is the primary's innermost bucket
  // holding it, so the lists keep the primary's boundaries and only
  // their order changes.
  const uint32_t fp = shared_levels_ ? primary_->fanout_product() : levels_.product();
  std::vector<OffsetEntry>& entries = scratch->entries;
  entries.clear();
  for (vertex_id_t v = first; v < last; ++v) {
    const vertex_id_t* nbrs;
    const edge_id_t* eids;
    uint32_t len;
    primary_->GetListBase(v, &nbrs, &eids, &len);
    if (len == 0) continue;
    uint32_t slot_base = (v % kGroupSize) * fp;
    if (shared_levels_) {
      // No view predicate: every entry of v is in the view.
      const uint32_t* csr = primary_->page(page_idx).csr + slot_base;
      uint32_t i = 0;
      for (uint32_t b = 0; b < fp; ++b) {
        for (uint32_t end = csr[b + 1] - csr[0]; i < end; ++i) {
          entries.push_back({slot_base + b, nbrs[i], eids[i], i});
        }
      }
      continue;
    }
    for (uint32_t i = 0; i < len; ++i) {
      if (!EvalViewPred(eids[i], nbrs[i])) continue;
      uint32_t slot = slot_base + scratch->keys.BucketOf(eids[i], nbrs[i]);
      entries.push_back({slot, nbrs[i], eids[i], i});
    }
  }

  uint32_t num_slots = kGroupSize * fp;
  std::vector<uint32_t>& csr = shared_levels_ ? scratch->shared_csr : page.csr;
  csr.assign(num_slots + 1, 0);
  const OffsetEntry* sorted =
      scratch->sorter.Sort(entries.data(), entries.size(), num_slots, csr.data());
  scratch->offsets.resize(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) scratch->offsets[i] = sorted[i].offset;
  page.SetOffsets(scratch->offsets);
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

  // With shared levels the primary's CSR holds the same boundaries.
  if (!shared_levels_ && page.csr.empty()) return AdjListSlice();
  const PartitionLevels& levels = shared_levels_ ? primary_->levels() : levels_;
  const uint32_t* csr = shared_levels_ ? primary_->page(page_idx).csr : page.csr.data();
  APLUS_DCHECK(cats.size() <= levels.fanouts.size());
  auto [first, last] = levels.Buckets(v % kGroupSize, cats);
  slice.offsets = page.bytes.data() + static_cast<size_t>(csr[first]) * page.width;
  slice.len = csr[last] - csr[first];
  return slice;
}

size_t VpIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& page : pages_) bytes += page->MemoryBytes();
  return bytes;
}

int64_t VpIndex::InsertEdge(edge_id_t e) {
  vertex_id_t owner = primary_->OwnerOf(e);
  // The owner's page is marked pending whatever the view predicate says
  // of e: a primary-page merge may shift the offsets of the owner's other
  // edges, and RebuildGroup evaluates the predicate on the exact lists.
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
  BuildScratch scratch(*graph_, config_, levels_.fanouts);
  BuildGroup(page_idx, &scratch);
  if (page_idx < pending_.size()) {
    pending_total_ -= pending_[page_idx];
    pending_[page_idx] = 0;
  }
}

}  // namespace aplus
