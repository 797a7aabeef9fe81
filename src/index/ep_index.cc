#include "index/ep_index.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "index/page_build.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace aplus {

EpIndex::EpIndex(const Graph* graph, const PrimaryIndex* primary_fwd,
                 const PrimaryIndex* primary_bwd, TwoHopViewDef view, IndexConfig config)
    : graph_(graph),
      primary_fwd_(primary_fwd),
      primary_bwd_(primary_bwd),
      view_(std::move(view)),
      config_(std::move(config)) {
  APLUS_CHECK(view_.pred.HasCrossEdgeConjunct())
      << "2-hop view " << view_.name
      << " must have a predicate accessing both edges (Section III-B2)";
  compiled_ = CompiledPredicate(graph_, view_.pred);
  base_primary_ = AdjDirection(view_.kind) == Direction::kFwd ? primary_fwd : primary_bwd;
}

bool EpIndex::EvalViewPred(edge_id_t eb, edge_id_t eadj, vertex_id_t nbr) const {
  EvalContext ctx;
  ctx.graph = graph_;
  ctx.bound_edge = eb;
  ctx.adj_edge = eadj;
  ctx.nbr = nbr;
  ctx.src = graph_->edge_src(eb);
  ctx.dst = graph_->edge_dst(eb);
  return compiled_.Eval(ctx);
}

struct EpIndex::AnchorScratch {
  explicit AnchorScratch(const ListKeys* list_keys) : keys(list_keys) {}

  struct Candidate {
    uint32_t bucket;
    uint32_t offset;
    SortKey key;  // key.eid / key.nbr are the entry's eadj / vnbr
  };
  const ListKeys* keys;  // the build's partition and sort criteria
  vertex_id_t anchor = kInvalidVertex;
  std::vector<Candidate> candidates;  // in (bucket, key) order
  CompiledPredicate::AdjBatch batch;  // aligned with `candidates`
  CompiledPredicate::BoundTerms terms;
  std::vector<uint32_t> sel;
};

void EpIndex::PrepareAnchor(vertex_id_t anchor, AnchorScratch* scratch) const {
  scratch->anchor = anchor;
  std::vector<AnchorScratch::Candidate>& candidates = scratch->candidates;
  candidates.clear();
  const vertex_id_t* nbrs;
  const edge_id_t* eids;
  uint32_t len;
  base_primary_->GetListBase(anchor, &nbrs, &eids, &len);
  const ListKeys& keys = *scratch->keys;
  for (uint32_t i = 0; i < len; ++i) {
    edge_id_t eadj = eids[i];
    vertex_id_t nbr = nbrs[i];
    if (!compiled_.PassesAdjSide(eadj, nbr)) continue;
    candidates.push_back({keys.BucketOf(eadj, nbr), i, keys.KeyOf(eadj, nbr)});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const AnchorScratch::Candidate& a, const AnchorScratch::Candidate& b) {
              if (a.bucket != b.bucket) return a.bucket < b.bucket;
              return a.key < b.key;
            });
  scratch->batch.Clear();
  for (const AnchorScratch::Candidate& c : candidates) {
    compiled_.Gather(c.key.eid, c.key.nbr, &scratch->batch);
  }
  scratch->sel.resize(candidates.size());
}

void EpIndex::SelectEntries(edge_id_t eb, AnchorScratch* scratch,
                            std::vector<ListEntry>* out) const {
  if (!compiled_.BindBound(eb, &scratch->terms)) return;
  uint32_t n = compiled_.SelectCross(scratch->terms, scratch->batch, scratch->sel.data());
  for (uint32_t k = 0; k < n; ++k) {
    const AnchorScratch::Candidate& c = scratch->candidates[scratch->sel[k]];
    if (c.key.eid == eb) continue;  // a 2-path uses two distinct edges
    out->push_back({c.bucket, c.offset});
  }
}

uint64_t EpIndex::AssemblePage(OffsetListPage* page, const EntrySpan* slots,
                               std::vector<uint32_t>* offsets) const {
  uint32_t num_slots = kGroupSize * levels_.product();
  page->csr.assign(num_slots + 1, 0);
  offsets->clear();
  for (uint32_t s = 0; s < kGroupSize; ++s) {
    uint32_t base = s * levels_.product();
    for (uint32_t k = 0; k < slots[s].size; ++k) {
      const ListEntry& entry = slots[s].data[k];
      page->csr[base + entry.bucket + 1]++;
      offsets->push_back(entry.offset);
    }
  }
  for (uint32_t s = 0; s < num_slots; ++s) page->csr[s + 1] += page->csr[s];
  page->SetOffsets(*offsets);
  return offsets->size();
}

uint64_t EpIndex::BuildPage(uint32_t page_idx, const ListKeys& keys) {
  edge_id_t first = static_cast<edge_id_t>(page_idx) * kGroupSize;
  edge_id_t last = std::min<uint64_t>(graph_->num_edges(), first + kGroupSize);
  AnchorScratch scratch(&keys);
  std::vector<ListEntry> entries;
  size_t begins[kGroupSize + 1] = {};
  for (edge_id_t eb = first; eb < last; ++eb) {
    begins[eb - first] = entries.size();
    vertex_id_t anchor = AnchorOf(eb);
    if (anchor != scratch.anchor) PrepareAnchor(anchor, &scratch);
    SelectEntries(eb, &scratch, &entries);
  }
  begins[last - first] = entries.size();
  EntrySpan slots[kGroupSize];
  for (uint32_t s = 0; s < last - first; ++s) {
    slots[s] = {entries.data() + begins[s], static_cast<uint32_t>(begins[s + 1] - begins[s])};
  }
  std::vector<uint32_t> offsets;
  return AssemblePage(pages_[page_idx].get(), slots, &offsets);
}

namespace {

// Cores this process may run on: its affinity mask, so a build pinned to
// one core does not time-slice workers there.
uint32_t UsableCores() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    return static_cast<uint32_t>(CPU_COUNT(&allowed));
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

void EpIndex::BuildAll(uint32_t num_threads) {
  uint64_t ne = graph_->num_edges();
  uint64_t nv = graph_->num_vertices();
  // The bound edges grouped by anchor, ascending within each anchor.
  std::vector<uint64_t> anchor_begin(nv + 1, 0);
  for (edge_id_t eb = 0; eb < ne; ++eb) anchor_begin[AnchorOf(eb) + 1]++;
  for (uint64_t v = 0; v < nv; ++v) anchor_begin[v + 1] += anchor_begin[v];
  std::vector<edge_id_t> by_anchor(ne);
  {
    std::vector<uint64_t> cursor(anchor_begin.begin(), anchor_begin.end() - 1);
    for (edge_id_t eb = 0; eb < ne; ++eb) by_anchor[cursor[AnchorOf(eb)]++] = eb;
  }

  // Where each eb's list landed: a worker's buffer and a range in it.
  struct Placement {
    uint32_t worker = 0;
    uint32_t size = 0;
    uint64_t begin = 0;
  };
  std::vector<Placement> placements(ne);
  std::vector<std::vector<ListEntry>> buffers(num_threads);
  const ListKeys keys(*graph_, config_, levels_.fanouts);
  constexpr uint64_t kAnchorsPerClaim = 64;
  std::atomic<uint64_t> next_anchor{0};
  ThreadPool::Global().ParallelRun(static_cast<int>(num_threads), [&](int worker) {
    AnchorScratch scratch(&keys);
    std::vector<ListEntry>& out = buffers[worker];
    while (true) {
      uint64_t begin = next_anchor.fetch_add(kAnchorsPerClaim);
      if (begin >= nv) break;
      uint64_t end = std::min(nv, begin + kAnchorsPerClaim);
      for (uint64_t v = begin; v < end; ++v) {
        if (anchor_begin[v] == anchor_begin[v + 1]) continue;
        PrepareAnchor(static_cast<vertex_id_t>(v), &scratch);
        for (uint64_t k = anchor_begin[v]; k < anchor_begin[v + 1]; ++k) {
          edge_id_t eb = by_anchor[k];
          size_t start = out.size();
          SelectEntries(eb, &scratch, &out);
          placements[eb] = {static_cast<uint32_t>(worker),
                            static_cast<uint32_t>(out.size() - start), start};
        }
      }
    }
  });

  uint32_t num_pages = static_cast<uint32_t>(pages_.size());
  std::atomic<uint32_t> next_page{0};
  std::atomic<uint64_t> total_indexed{0};
  ThreadPool::Global().ParallelRun(static_cast<int>(num_threads), [&](int) {
    std::vector<uint32_t> offsets;
    uint64_t local = 0;
    while (true) {
      uint32_t p = next_page.fetch_add(1);
      if (p >= num_pages) break;
      EntrySpan slots[kGroupSize];
      for (uint32_t s = 0; s < kGroupSize; ++s) {
        edge_id_t eb = static_cast<edge_id_t>(p) * kGroupSize + s;
        if (eb >= ne) break;
        const Placement& placed = placements[eb];
        slots[s] = {buffers[placed.worker].data() + placed.begin, placed.size};
      }
      local += AssemblePage(pages_[p].get(), slots, &offsets);
    }
    total_indexed.fetch_add(local);
  });
  num_edges_indexed_ = total_indexed.load();
}

double EpIndex::Build() {
  WallTimer timer;
  std::string error;
  APLUS_CHECK(ResolveFanouts(graph_->catalog(), config_.partitions, &levels_, &error)) << error;
  uint64_t ne = graph_->num_edges();
  uint32_t num_pages = static_cast<uint32_t>((ne + kGroupSize - 1) / kGroupSize);
  pages_.clear();
  pages_.reserve(num_pages);
  for (uint32_t p = 0; p < num_pages; ++p) pages_.push_back(std::make_unique<OffsetListPage>());
  num_edges_indexed_ = 0;

  // The paper creates edge-partitioned indexes with 16 threads
  // (Section V-A) while everything else stays single-threaded.
  uint32_t num_threads = std::min<uint32_t>(UsableCores(), 16);
  if (num_pages < 2 * num_threads) num_threads = 1;
  BuildAll(num_threads);
  pending_.assign(pages_.size(), 0);
  pending_total_ = 0;
  build_seconds_ = timer.ElapsedSeconds();
  return build_seconds_;
}

AdjListSlice EpIndex::GetList(edge_id_t eb, const std::vector<category_t>& cats) const {
  uint32_t page_idx = static_cast<uint32_t>(eb / kGroupSize);
  if (page_idx >= pages_.size()) return AdjListSlice();
  const OffsetListPage& page = *pages_[page_idx];
  if (page.csr.empty()) return AdjListSlice();
  APLUS_DCHECK(cats.size() <= levels_.fanouts.size());

  AdjListSlice slice;
  const edge_id_t* base_eids;
  uint32_t base_len;
  vertex_id_t anchor = AnchorOf(eb);
  base_primary_->GetListBase(anchor, &slice.nbrs, &base_eids, &base_len);
  slice.edges = base_eids;
  slice.offset_width = page.width;

  auto [first, last] = levels_.Buckets(static_cast<uint32_t>(eb % kGroupSize), cats);
  uint32_t begin = page.csr[first];
  slice.offsets = page.bytes.data() + static_cast<size_t>(begin) * page.width;
  slice.len = page.csr[last] - begin;
  return slice;
}

size_t EpIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& page : pages_) bytes += page->MemoryBytes();
  return bytes;
}

bool EpIndex::MarkPending(uint32_t page_idx) {
  while (pages_.size() <= page_idx) pages_.push_back(std::make_unique<OffsetListPage>());
  if (pending_.size() < pages_.size()) pending_.resize(pages_.size(), 0);
  pending_[page_idx]++;
  pending_total_++;
  return pending_[page_idx] >= kUpdateBufferCapacity;
}

std::vector<uint32_t> EpIndex::InsertEdge(edge_id_t e) {
  std::vector<uint32_t> full_pages;
  auto mark = [&](uint32_t page_idx) {
    if (MarkPending(page_idx)) {
      for (uint32_t p : full_pages) {
        if (p == page_idx) return;
      }
      full_pages.push_back(page_idx);
    }
  };
  // Delta query 1 (Section IV-C): e becomes the adjacent edge eadj of
  // every bound edge eb whose anchor equals e's near endpoint under the
  // base direction. Those candidate ebs are the in-edges of the shared
  // vertex for Destination-* kinds (eb points into its anchor) and the
  // out-edges for Source-* kinds.
  vertex_id_t shared = base_primary_->OwnerOf(e);
  vertex_id_t far = base_primary_->NbrOf(e);
  const PrimaryIndex* candidates = AnchorIsDst(view_.kind) ? primary_bwd_ : primary_fwd_;
  AdjListSlice ebs = candidates->GetFullList(shared);
  for (uint32_t i = 0; i < ebs.size(); ++i) {
    edge_id_t eb = ebs.EdgeAt(i);
    if (eb == e) continue;
    // The predicate evaluation is the paper's delta-query work; the page
    // is marked pending either way because inserting e into the shared
    // vertex's primary list shifts the offsets every eb anchored there
    // resolves against.
    (void)EvalViewPred(eb, e, far);
    mark(static_cast<uint32_t>(eb / kGroupSize));
  }
  // Delta query 2: create e's own (possibly empty) list by scanning its
  // anchor's base adjacency. The predicate evaluations here mirror the
  // second loop of Section IV-C; the page rederivation at merge time
  // recomputes the exact lists.
  vertex_id_t anchor = AnchorOf(e);
  AdjListSlice adj = base_primary_->GetFullList(anchor);
  for (uint32_t i = 0; i < adj.size(); ++i) {
    edge_id_t eadj = adj.EdgeAt(i);
    if (eadj == e) continue;
    (void)EvalViewPred(e, eadj, adj.NbrAt(i));
  }
  mark(static_cast<uint32_t>(e / kGroupSize));
  return full_pages;
}

void EpIndex::RebuildGroup(uint32_t page_idx) {
  if (page_idx >= pages_.size()) return;
  num_edges_indexed_ -= pages_[page_idx]->num_entries();
  num_edges_indexed_ += BuildPage(page_idx, ListKeys(*graph_, config_, levels_.fanouts));
  if (page_idx < pending_.size()) {
    pending_total_ -= pending_[page_idx];
    pending_[page_idx] = 0;
  }
}

void EpIndex::FlushUpdates() {
  if (pending_total_ == 0) return;
  for (uint32_t p = 0; p < pending_.size(); ++p) {
    if (pending_[p] > 0) RebuildGroup(p);
  }
  APLUS_CHECK_EQ(pending_total_, 0u);
}

}  // namespace aplus
