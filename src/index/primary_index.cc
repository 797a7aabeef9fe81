#include "index/primary_index.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "index/page_build.h"
#include "util/epoch.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/timer.h"

namespace aplus {

int64_t EncodeDoubleSortKey(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  // Map IEEE-754 to a monotonically increasing unsigned space, then shift
  // into signed space so plain int64 comparison preserves double order.
  if (bits >> 63) {
    bits = ~bits;
  } else {
    bits |= 0x8000000000000000ULL;
  }
  return static_cast<int64_t>(bits ^ 0x8000000000000000ULL);
}

PrimaryIndex::PrimaryIndex(const Graph* graph, Direction direction)
    : graph_(graph), direction_(direction) {}

PrimaryIndex::~PrimaryIndex() {
  for (PageSlot& slot : pages_) {
    delete slot.run.load(std::memory_order_relaxed);
    delete slot.delta.load(std::memory_order_relaxed);
  }
}

category_t PrimaryIndex::CategoryOf(const PartitionCriterion& criterion, edge_id_t e,
                                    vertex_id_t nbr) const {
  switch (criterion.source) {
    case PartitionSource::kEdgeLabel:
      return graph_->edge_label(e);
    case PartitionSource::kNbrLabel:
      return graph_->vertex_label(nbr);
    case PartitionSource::kEdgeProp: {
      const PropertyColumn* col = graph_->edge_props().column(criterion.key);
      APLUS_CHECK(col != nullptr);
      return col->GetCategoryOrNullSlot(e);
    }
    case PartitionSource::kNbrProp: {
      const PropertyColumn* col = graph_->vertex_props().column(criterion.key);
      APLUS_CHECK(col != nullptr);
      return col->GetCategoryOrNullSlot(nbr);
    }
  }
  return 0;
}

uint32_t PrimaryIndex::BucketOf(const IndexConfig& config, const std::vector<uint32_t>& fanouts,
                                edge_id_t e, vertex_id_t nbr) const {
  uint32_t bucket = 0;
  for (size_t i = 0; i < config.partitions.size(); ++i) {
    category_t cat = CategoryOf(config.partitions[i], e, nbr);
    APLUS_DCHECK(cat < fanouts[i]) << "category out of range";
    bucket = bucket * fanouts[i] + cat;
  }
  return bucket;
}

int64_t ColumnSortKey(const PropertyColumn* col, uint64_t id) {
  APLUS_CHECK(col != nullptr);
  if (id >= col->size() || col->IsNull(id)) return kNullSortKey;
  switch (col->type()) {
    case ValueType::kInt64:
    case ValueType::kBool:
      return col->GetInt64(id);
    case ValueType::kCategory:
      return col->GetCategoryOrNullSlot(id);
    case ValueType::kDouble:
      return EncodeDoubleSortKey(col->GetDouble(id));
    default:
      APLUS_CHECK(false) << "sort criterion on unsupported type " << ToString(col->type());
  }
  return 0;
}

int64_t EntrySortKey(const Graph& graph, const SortCriterion& criterion, edge_id_t e,
                     vertex_id_t nbr) {
  switch (criterion.source) {
    case SortSource::kNbrId:
      return nbr;
    case SortSource::kNbrLabel:
      return graph.vertex_label(nbr);
    case SortSource::kEdgeProp:
      return ColumnSortKey(graph.edge_props().column(criterion.key), e);
    case SortSource::kNbrProp:
      return ColumnSortKey(graph.vertex_props().column(criterion.key), nbr);
  }
  return 0;
}

int64_t PrimaryIndex::SortKeyComponent(const SortCriterion& criterion, edge_id_t e,
                                       vertex_id_t nbr) const {
  return EntrySortKey(*graph_, criterion, e, nbr);
}

SortKey PrimaryIndex::ComputeSortKey(const IndexConfig& config, edge_id_t e,
                                     vertex_id_t nbr) const {
  SortKey key;
  APLUS_CHECK_LE(config.sorts.size(), static_cast<size_t>(kMaxSortKeys));
  key.num_keys = static_cast<int>(config.sorts.size());
  for (int i = 0; i < key.num_keys; ++i) {
    key.keys[i] = SortKeyComponent(config.sorts[i], e, nbr);
  }
  key.nbr = nbr;
  key.eid = e;
  return key;
}

void PrimaryIndex::ResetLocked(const IndexConfig& config) {
  config_ = config;
  std::string error;
  APLUS_CHECK(ResolveFanouts(graph_->catalog(), config_.partitions, &levels_, &error)) << error;
  // A rebuild is DDL: callers quiesce queries first, but retire the old
  // versions anyway so the protocol is uniform.
  for (PageSlot& slot : pages_) {
    EpochManager::Global().Retire(slot.run.load(std::memory_order_relaxed));
    EpochManager::Global().Retire(slot.delta.load(std::memory_order_relaxed));
    slot.run.store(nullptr, std::memory_order_relaxed);
    slot.delta.store(nullptr, std::memory_order_relaxed);
  }
}

namespace {

// Stages 2 and 3 of the page build over one page's entries.
std::unique_ptr<IdListPage> SealRun(const PageEntry* entries, size_t n, uint32_t fanout_product,
                                    PageSorter<PageEntry>* sorter) {
  auto page = std::make_unique<IdListPage>();
  uint32_t num_slots = kGroupSize * fanout_product;
  page->csr_store.resize(num_slots + 1);
  const PageEntry* sorted = sorter->Sort(entries, n, num_slots, page->csr_store.data());
  page->nbr_store.resize(n);
  page->eid_store.resize(n);
  for (size_t i = 0; i < n; ++i) {
    page->nbr_store[i] = sorted[i].nbr;
    page->eid_store[i] = sorted[i].eid;
  }
  page->Seal();
  return page;
}

}  // namespace

double PrimaryIndex::Build(const IndexConfig& config) {
  WallTimer timer;
  std::lock_guard<std::mutex> lock(writer_mu_);
  ResetLocked(config);
  uint64_t nv = graph_->num_vertices();
  uint32_t num_pages = static_cast<uint32_t>((nv + kGroupSize - 1) / kGroupSize);
  if (pages_.size() < num_pages) {
    pages_.reserve(num_pages);
    while (pages_.size() < num_pages) pages_.emplace_back();
  } else {
    pages_.resize(num_pages);
  }

  // Stage 1: scatter every edge, in edge-id order, into its page's range.
  uint64_t ne = graph_->num_edges();
  std::vector<uint64_t> page_begin(num_pages + 1, 0);
  for (edge_id_t e = 0; e < ne; ++e) page_begin[PageOf(OwnerOf(e)) + 1]++;
  for (uint32_t p = 0; p < num_pages; ++p) page_begin[p + 1] += page_begin[p];
  ListKeys keys(*graph_, config_, levels_.fanouts);
  std::unique_ptr<PageEntry[]> entries(new PageEntry[ne]);
  {
    std::vector<uint64_t> cursor(page_begin.begin(), page_begin.end() - 1);
    for (edge_id_t e = 0; e < ne; ++e) {
      vertex_id_t owner = OwnerOf(e);
      vertex_id_t nbr = NbrOf(e);
      entries[cursor[PageOf(owner)]++] = {
          (owner % kGroupSize) * levels_.product() + keys.BucketOf(e, nbr), nbr, e};
    }
  }

  // Stages 2 and 3, page by page.
  PageSorter<PageEntry> sorter(&keys);
  for (uint32_t p = 0; p < num_pages; ++p) {
    pages_[p].run.store(SealRun(entries.get() + page_begin[p], page_begin[p + 1] - page_begin[p],
                                levels_.product(), &sorter)
                            .release(),
                        std::memory_order_release);
  }
  num_edges_indexed_.store(ne, std::memory_order_relaxed);
  pending_updates_.store(0, std::memory_order_relaxed);
  EpochManager::Global().TryReclaim();
  build_seconds_ = timer.ElapsedSeconds();
  return build_seconds_;
}

std::unique_ptr<IdListPage> PrimaryIndex::BuildRun(const std::vector<edge_id_t>& edges) const {
  ListKeys keys(*graph_, config_, levels_.fanouts);
  std::vector<PageEntry> entries;
  entries.reserve(edges.size());
  for (edge_id_t e : edges) {
    vertex_id_t owner = OwnerOf(e);
    vertex_id_t nbr = NbrOf(e);
    entries.push_back({(owner % kGroupSize) * levels_.product() + keys.BucketOf(e, nbr), nbr, e});
  }
  PageSorter<PageEntry> sorter(&keys);
  return SealRun(entries.data(), entries.size(), levels_.product(), &sorter);
}

AdjListSlice PrimaryIndex::SliceFromRun(const IdListPage* run, vertex_id_t v,
                                        const std::vector<category_t>& cats,
                                        codec::PackedCursor* cursor) const {
  if (run == nullptr || run->csr_len == 0) return AdjListSlice();
  auto [first, last] = levels_.Buckets(v % kGroupSize, cats);
  uint32_t begin = run->csr[first];
  AdjListSlice slice;
  slice.len = run->csr[last] - begin;
  if (run->is_packed()) {
    slice.packed = run->packed;
    slice.packed_base = begin;
    slice.cursor = cursor;
    return slice;
  }
  slice.nbrs = run->nbrs + begin;
  slice.edges = run->eids + begin;
  return slice;
}

AdjListSlice PrimaryIndex::GetList(vertex_id_t v, const std::vector<category_t>& cats) const {
  APLUS_DCHECK(v < graph_->num_vertices());
  APLUS_DCHECK(cats.size() <= levels_.fanouts.size()) << "partition path too long";
  if (PageOf(v) >= pages_.size()) return AdjListSlice();
  return SliceFromRun(pages_[PageOf(v)].run.load(std::memory_order_acquire), v, cats);
}

AdjListSlice PrimaryIndex::GetFullList(vertex_id_t v) const { return GetList(v, {}); }

AdjListSlice PrimaryIndex::GetListSnapshot(vertex_id_t v, const std::vector<category_t>& cats,
                                           ListMergeScratch* scratch) const {
  APLUS_DCHECK(cats.size() <= levels_.fanouts.size()) << "partition path too long";
  uint32_t page_idx = PageOf(v);
  if (page_idx >= pages_.size()) return AdjListSlice();
  const PageSlot& slot = pages_[page_idx];
  // Load run before delta: the merge publishes in the opposite order
  // (delta cleared, then new run installed), so a probe either sees a
  // consistent pre-merge pair, the post-merge pair, or — transiently —
  // the old run with no delta, which is a valid earlier snapshot. It can
  // never see a delta entry twice.
  const IdListPage* run = slot.run.load(std::memory_order_acquire);
  const PageDelta* delta = slot.delta.load(std::memory_order_acquire);
  codec::PackedCursor* cursor = scratch != nullptr ? &scratch->packed_cursor : nullptr;
  if (delta == nullptr) return SliceFromRun(run, v, cats, cursor);
  // Segment-backed (packed) pages never carry deltas: every mutation
  // path is rejected on a segment-backed database.
  APLUS_DCHECK(run == nullptr || !run->is_packed());
  uint32_t ni = delta->num_inserts.load(std::memory_order_acquire);
  uint32_t nd = delta->num_deletes.load(std::memory_order_acquire);
  if (ni == 0 && nd == 0) return SliceFromRun(run, v, cats, cursor);

  // Does any delta entry belong to this owner at all?
  bool relevant = false;
  for (uint32_t i = 0; i < ni && !relevant; ++i) relevant = OwnerOf(delta->inserts[i]) == v;
  for (uint32_t i = 0; i < nd && !relevant; ++i) relevant = OwnerOf(delta->deletes[i]) == v;
  if (!relevant) return SliceFromRun(run, v, cats, cursor);

  // Requested bucket range within the page: the bucket bounds place the
  // adds.
  uint32_t base = (v % kGroupSize) * levels_.product();
  auto [first, last] = levels_.Buckets(v % kGroupSize, cats);
  bool has_run = run != nullptr && run->csr_len != 0;
  uint32_t begin = has_run ? run->csr[first] : 0;
  uint32_t end = has_run ? run->csr[last] : 0;

  scratch->deletes.clear();
  for (uint32_t i = 0; i < nd; ++i) {
    if (OwnerOf(delta->deletes[i]) == v) scratch->deletes.push_back(delta->deletes[i]);
  }
  auto is_deleted = [&](edge_id_t e) {
    for (edge_id_t d : scratch->deletes) {
      if (d == e) return true;
    }
    return false;
  };

  scratch->adds.clear();
  for (uint32_t i = 0; i < ni; ++i) {
    edge_id_t e = delta->inserts[i];
    if (OwnerOf(e) != v || is_deleted(e)) continue;
    vertex_id_t nbr = NbrOf(e);
    uint32_t bucket = base + BucketOf(config_, levels_.fanouts, e, nbr);
    if (bucket < first || bucket >= last) continue;
    ListMergeScratch::Add add;
    add.bucket = bucket;
    add.key = ComputeSortKey(config_, e, nbr);
    add.nbr = nbr;
    add.eid = e;
    add.pos = 0;
    scratch->adds.push_back(add);
  }
  if (scratch->adds.empty() && scratch->deletes.empty()) {
    return SliceFromRun(run, v, cats, cursor);
  }

  // Sorted insertion position of each add inside its bucket's run range
  // (keys within a bucket are sorted, so binary search applies).
  for (ListMergeScratch::Add& add : scratch->adds) {
    if (!has_run) {
      add.pos = 0;
      continue;
    }
    uint32_t lo = run->csr[add.bucket];
    uint32_t hi = run->csr[add.bucket + 1];
    while (lo < hi) {
      uint32_t mid = lo + (hi - lo) / 2;
      SortKey mid_key = ComputeSortKey(config_, run->eids[mid], run->nbrs[mid]);
      if (add.key < mid_key) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    add.pos = lo;
  }
  std::sort(scratch->adds.begin(), scratch->adds.end(),
            [](const ListMergeScratch::Add& a, const ListMergeScratch::Add& b) {
              if (a.pos != b.pos) return a.pos < b.pos;
              if (a.bucket != b.bucket) return a.bucket < b.bucket;
              return a.key < b.key;
            });

  scratch->nbrs.clear();
  scratch->eids.clear();
  scratch->nbrs.reserve(end - begin + scratch->adds.size());
  scratch->eids.reserve(end - begin + scratch->adds.size());
  size_t ai = 0;
  for (uint32_t p = begin; p <= end; ++p) {
    while (ai < scratch->adds.size() && scratch->adds[ai].pos <= p) {
      scratch->nbrs.push_back(scratch->adds[ai].nbr);
      scratch->eids.push_back(scratch->adds[ai].eid);
      ++ai;
    }
    if (p == end) break;
    if (!scratch->deletes.empty() && is_deleted(run->eids[p])) continue;
    scratch->nbrs.push_back(run->nbrs[p]);
    scratch->eids.push_back(run->eids[p]);
  }

  AdjListSlice slice;
  slice.nbrs = scratch->nbrs.data();
  slice.edges = scratch->eids.data();
  slice.len = static_cast<uint32_t>(scratch->eids.size());
  return slice;
}

bool PrimaryIndex::PrefetchList(int stage, vertex_id_t v,
                                const std::vector<category_t>& cats) const {
  if (PageOf(v) >= pages_.size()) return false;
  const PageSlot& slot = pages_[PageOf(v)];
  // Run before delta, as GetListSnapshot loads them.
  const IdListPage* run = slot.run.load(std::memory_order_acquire);
  if (stage == 0) {
    const PageDelta* delta = slot.delta.load(std::memory_order_acquire);
    if (delta != nullptr) __builtin_prefetch(delta);
  }
  if (run == nullptr || run->csr_len == 0) return false;
  auto [first, last] = levels_.Buckets(v % kGroupSize, cats);
  if (stage == 0) {
    __builtin_prefetch(run->csr + first);
    __builtin_prefetch(run->csr + last);
    return true;
  }
  const uint32_t begin = run->csr[first];
  if (run->csr[last] == begin) return false;
  if (!run->is_packed()) {
    __builtin_prefetch(run->nbrs + begin);
    __builtin_prefetch(run->eids + begin);
    return false;
  }
  // A non-empty list starts below the stream's entry count, so its block
  // has a skip entry.
  const uint32_t block = begin / codec::kBlockEntries;
  if (stage == 1) {
    __builtin_prefetch(codec::SkipEntry(run->packed, block));
    return true;
  }
  // The second line may lie past the stream; a prefetch never faults.
  const uint8_t* data = run->packed + codec::SkipAt(run->packed, block);
  __builtin_prefetch(data);
  __builtin_prefetch(data + 64);
  return false;
}

void PrimaryIndex::GetListBase(vertex_id_t v, const vertex_id_t** nbrs, const edge_id_t** eids,
                               uint32_t* len) const {
  const IdListPage* run =
      PageOf(v) < pages_.size() ? pages_[PageOf(v)].run.load(std::memory_order_acquire) : nullptr;
  // Only secondary-index paths resolve base pointers, and secondaries
  // are rejected on segment-backed graphs — a packed run here is a bug.
  APLUS_CHECK(run == nullptr || !run->is_packed()) << "GetListBase on a packed segment page";
  AdjListSlice list = SliceFromRun(run, v, {});
  *nbrs = list.nbrs;
  *eids = list.edges;
  *len = list.len;
}

size_t PrimaryIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const PageSlot& slot : pages_) {
    const IdListPage* run = slot.run.load(std::memory_order_acquire);
    if (run != nullptr) bytes += run->MemoryBytes();
    const PageDelta* delta = slot.delta.load(std::memory_order_acquire);
    if (delta != nullptr) bytes += delta->MemoryBytes();
  }
  return bytes;
}

size_t PrimaryIndex::PartitionLevelBytes() const {
  size_t bytes = 0;
  for (const PageSlot& slot : pages_) {
    const IdListPage* run = slot.run.load(std::memory_order_acquire);
    if (run != nullptr) bytes += static_cast<size_t>(run->csr_len) * sizeof(uint32_t);
  }
  return bytes;
}

void PrimaryIndex::ReservePages(uint64_t max_vertices) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  uint32_t num_pages = static_cast<uint32_t>((max_vertices + kGroupSize - 1) / kGroupSize);
  pages_.reserve(num_pages);
  while (pages_.size() < num_pages) {
    pages_.emplace_back();
    pages_.back().run.store(BuildRun({}).release(), std::memory_order_release);
  }
  pages_reserved_ = true;
}

void PrimaryIndex::AttachSegmentPages(const IndexConfig& config,
                                      std::vector<std::unique_ptr<IdListPage>> pages,
                                      uint64_t num_edges) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  ResetLocked(config);
  pages_.clear();
  pages_.reserve(pages.size());
  for (auto& page : pages) {
    pages_.emplace_back();
    pages_.back().run.store(page.release(), std::memory_order_release);
  }
  num_edges_indexed_.store(num_edges, std::memory_order_relaxed);
  pending_updates_.store(0, std::memory_order_relaxed);
  EpochManager::Global().TryReclaim();
}

void PrimaryIndex::GrowPagesLocked(uint32_t page_idx) {
  // The graph may have grown past the pages built at Build() time.
  // Growing moves the slot array, so it is only legal while no reader
  // is active; concurrent serving pre-sizes via ReservePages.
  APLUS_CHECK(!pages_reserved_ || page_idx < pages_.size())
      << "edge insert beyond the page range reserved for concurrent ingest";
  while (pages_.size() <= page_idx) {
    pages_.emplace_back();
    pages_.back().run.store(BuildRun({}).release(), std::memory_order_release);
  }
}

void PrimaryIndex::InsertEdge(edge_id_t e) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  vertex_id_t owner = OwnerOf(e);
  uint32_t page_idx = PageOf(owner);
  GrowPagesLocked(page_idx);
  PageSlot& slot = pages_[page_idx];
  PageDelta* delta = slot.delta.load(std::memory_order_relaxed);
  if (delta != nullptr &&
      (delta->num_inserts.load(std::memory_order_relaxed) >= PageDelta::kCapacity ||
       fault::ShouldFail(fault::kDeltaFull))) {
    // The fault point fakes a full delta buffer, forcing the inline
    // merge path that normally only fires under sustained skew.
    MergePageLocked(page_idx);
    delta = nullptr;
  }
  if (delta == nullptr) {
    delta = new PageDelta();
    slot.delta.store(delta, std::memory_order_release);
  }
  uint32_t nd = delta->num_deletes.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < nd; ++i) {
    // A pending delete of the same id would suppress this insert at
    // merge time; flushing first keeps the ordering unambiguous.
    APLUS_CHECK(delta->deletes[i] != e) << "reinserting edge " << e << " with a pending delete";
  }
  uint32_t n = delta->num_inserts.load(std::memory_order_relaxed);
  delta->inserts[n] = e;
  delta->num_inserts.store(n + 1, std::memory_order_release);
  pending_updates_.fetch_add(1, std::memory_order_relaxed);
  num_edges_indexed_.fetch_add(1, std::memory_order_relaxed);
  if (auto_merge_ && n + 1 >= kUpdateBufferCapacity) MergePageLocked(page_idx);
}

void PrimaryIndex::DeleteEdge(edge_id_t e) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  vertex_id_t owner = OwnerOf(e);
  uint32_t page_idx = PageOf(owner);
  APLUS_CHECK_LT(page_idx, pages_.size());
  PageSlot& slot = pages_[page_idx];

  // The edge must exist: either in the sorted run or still buffered.
  const IdListPage* run = slot.run.load(std::memory_order_relaxed);
  PageDelta* delta = slot.delta.load(std::memory_order_relaxed);
  bool found = false;
  if (run != nullptr) {
    APLUS_CHECK(!run->is_packed()) << "mutating a segment-backed page";
    for (uint32_t i = 0; i < run->num_entries; ++i) {
      if (run->eids[i] == e) {
        found = true;
        break;
      }
    }
  }
  uint32_t ni = delta != nullptr ? delta->num_inserts.load(std::memory_order_relaxed) : 0;
  uint32_t nd = delta != nullptr ? delta->num_deletes.load(std::memory_order_relaxed) : 0;
  for (uint32_t i = 0; i < ni && !found; ++i) found = delta->inserts[i] == e;
  for (uint32_t i = 0; i < nd; ++i) {
    APLUS_CHECK(delta->deletes[i] != e) << "edge " << e << " deleted twice";
  }
  APLUS_CHECK(found) << "edge " << e << " not found for deletion";

  if (delta != nullptr && nd >= PageDelta::kCapacity) {
    MergePageLocked(page_idx);
    delta = nullptr;
    nd = 0;
  }
  if (delta == nullptr) {
    delta = new PageDelta();
    slot.delta.store(delta, std::memory_order_release);
  }
  delta->deletes[nd] = e;
  delta->num_deletes.store(nd + 1, std::memory_order_release);
  pending_updates_.fetch_add(1, std::memory_order_relaxed);
  num_edges_indexed_.fetch_sub(1, std::memory_order_relaxed);
  if (auto_merge_ && nd + 1 >= kUpdateBufferCapacity) MergePageLocked(page_idx);
}

void PrimaryIndex::MergePageLocked(uint32_t page_idx) {
  PageSlot& slot = pages_[page_idx];
  const IdListPage* old_run = slot.run.load(std::memory_order_relaxed);
  PageDelta* delta = slot.delta.load(std::memory_order_relaxed);
  if (delta == nullptr) return;
  uint32_t ni = delta->num_inserts.load(std::memory_order_relaxed);
  uint32_t nd = delta->num_deletes.load(std::memory_order_relaxed);
  if (ni == 0 && nd == 0) return;

  auto is_deleted = [&](edge_id_t e) {
    for (uint32_t i = 0; i < nd; ++i) {
      if (delta->deletes[i] == e) return true;
    }
    return false;
  };
  APLUS_CHECK(old_run == nullptr || !old_run->is_packed()) << "merging a segment-backed page";
  std::vector<edge_id_t> edges;
  edges.reserve((old_run != nullptr ? old_run->num_entries : 0) + ni);
  if (old_run != nullptr) {
    for (uint32_t i = 0; i < old_run->num_entries; ++i) {
      if (!is_deleted(old_run->eids[i])) edges.push_back(old_run->eids[i]);
    }
  }
  for (uint32_t i = 0; i < ni; ++i) {
    if (!is_deleted(delta->inserts[i])) edges.push_back(delta->inserts[i]);
  }
  PublishRun(page_idx, BuildRun(edges));
  uint64_t merged = ni + nd;
  APLUS_CHECK_GE(pending_updates_.load(std::memory_order_relaxed), merged);
  pending_updates_.fetch_sub(merged, std::memory_order_relaxed);
}

void PrimaryIndex::PublishRun(uint32_t page_idx, std::unique_ptr<IdListPage> run) {
  PageSlot& slot = pages_[page_idx];
  const IdListPage* old_run = slot.run.load(std::memory_order_relaxed);
  PageDelta* old_delta = slot.delta.load(std::memory_order_relaxed);
  // Clear the delta *before* installing the run that absorbed it: a
  // reader loading run-then-delta then either misses the delta (a valid
  // earlier snapshot) or sees the new run with no delta — never the new
  // run plus the already-merged delta (which would duplicate entries).
  slot.delta.store(nullptr, std::memory_order_release);
  slot.run.store(run.release(), std::memory_order_release);
  EpochManager& epochs = EpochManager::Global();
  epochs.Retire(old_run);
  epochs.Retire(old_delta);
  epochs.Advance();
}

// DeltaEntries/RunEntries feed the maintainer's merge cost model from
// the ingest thread, which holds no epoch pin: writer_mu_ is what keeps
// the background merger from retiring and freeing the pointers mid-read
// (all retirement happens under the mutex, so a pointer loaded here is
// current and cannot be reclaimed before we release it).
uint32_t PrimaryIndex::DeltaEntries(uint32_t page_idx) const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (page_idx >= pages_.size()) return 0;
  const PageDelta* delta = pages_[page_idx].delta.load(std::memory_order_acquire);
  if (delta == nullptr) return 0;
  return delta->num_inserts.load(std::memory_order_acquire) +
         delta->num_deletes.load(std::memory_order_acquire);
}

uint32_t PrimaryIndex::RunEntries(uint32_t page_idx) const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (page_idx >= pages_.size()) return 0;
  const IdListPage* run = pages_[page_idx].run.load(std::memory_order_acquire);
  return run != nullptr ? run->num_entries : 0;
}

void PrimaryIndex::FlushPage(uint32_t page_idx) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (page_idx >= pages_.size()) return;
  MergePageLocked(page_idx);
}

void PrimaryIndex::FlushUpdates() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  for (uint32_t p = 0; p < pages_.size(); ++p) MergePageLocked(p);
  APLUS_CHECK_EQ(pending_updates_.load(std::memory_order_relaxed), 0u);
  EpochManager::Global().TryReclaim();
}

}  // namespace aplus
