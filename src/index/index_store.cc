#include "index/index_store.h"

#include "util/logging.h"

namespace aplus {

IndexStore::IndexStore(const Graph* graph)
    : graph_(graph),
      primary_fwd_(std::make_unique<PrimaryIndex>(graph, Direction::kFwd)),
      primary_bwd_(std::make_unique<PrimaryIndex>(graph, Direction::kBwd)) {}

double IndexStore::BuildPrimary(const IndexConfig& config) {
  BumpVersion();
  double seconds = primary_fwd_->Build(config);
  seconds += primary_bwd_->Build(config);
  // A reconfiguration invalidates secondary indexes' offsets; rebuild.
  for (auto& vp : vp_indexes_) vp->Build();
  for (auto& ep : ep_indexes_) ep->Build();
  return seconds;
}

VpIndex* IndexStore::CreateVpIndex(const OneHopViewDef& view, const IndexConfig& config,
                                   Direction dir, double* build_seconds) {
  BumpVersion();
  auto index = std::make_unique<VpIndex>(graph_, primary(dir), view, config);
  double seconds = index->Build();
  if (build_seconds != nullptr) *build_seconds = seconds;
  vp_indexes_.push_back(std::move(index));
  return vp_indexes_.back().get();
}

EpIndex* IndexStore::CreateEpIndex(const TwoHopViewDef& view, const IndexConfig& config,
                                   double* build_seconds) {
  BumpVersion();
  auto index =
      std::make_unique<EpIndex>(graph_, primary_fwd_.get(), primary_bwd_.get(), view, config);
  double seconds = index->Build();
  if (build_seconds != nullptr) *build_seconds = seconds;
  ep_indexes_.push_back(std::move(index));
  return ep_indexes_.back().get();
}

void IndexStore::DropSecondaryIndexes() {
  BumpVersion();
  vp_indexes_.clear();
  ep_indexes_.clear();
}

VpIndex* IndexStore::FindVpIndex(const std::string& name, Direction dir) {
  for (auto& vp : vp_indexes_) {
    if (vp->name() == name && vp->direction() == dir) return vp.get();
  }
  return nullptr;
}

EpIndex* IndexStore::FindEpIndex(const std::string& name) {
  for (auto& ep : ep_indexes_) {
    if (ep->name() == name) return ep.get();
  }
  return nullptr;
}

size_t IndexStore::PrimaryMemoryBytes() const {
  return primary_fwd_->MemoryBytes() + primary_bwd_->MemoryBytes();
}

size_t IndexStore::SecondaryMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& vp : vp_indexes_) bytes += vp->MemoryBytes();
  for (const auto& ep : ep_indexes_) bytes += ep->MemoryBytes();
  return bytes;
}

uint64_t IndexStore::TotalEdgesIndexed() const {
  // Both primary directions index every edge; the paper's |E_indexed|
  // column counts the forward primary once plus each secondary index.
  uint64_t total = primary_fwd_->num_edges_indexed();
  for (const auto& vp : vp_indexes_) total += vp->num_edges_indexed();
  for (const auto& ep : ep_indexes_) total += ep->num_edges_indexed();
  return total;
}

void IndexStore::FlushAll() {
  primary_fwd_->FlushUpdates();
  primary_bwd_->FlushUpdates();
  for (auto& vp : vp_indexes_) vp->FlushUpdates();
  for (auto& ep : ep_indexes_) ep->FlushUpdates();
}

void IndexStore::PrepareForConcurrentIngest(uint64_t max_vertices) {
  APLUS_CHECK(vp_indexes_.empty() && ep_indexes_.empty())
      << "secondary indexes are unsupported during concurrent ingest";
  primary_fwd_->ReservePages(max_vertices);
  primary_bwd_->ReservePages(max_vertices);
}

void IndexStore::AttachSegment(Direction dir, const IndexConfig& config,
                               std::vector<std::unique_ptr<IdListPage>> pages,
                               uint64_t num_edges) {
  APLUS_CHECK(vp_indexes_.empty() && ep_indexes_.empty())
      << "attach segment pages before creating secondary indexes";
  BumpVersion();
  primary(dir)->AttachSegmentPages(config, std::move(pages), num_edges);
}

bool IndexStore::HasPendingUpdates() const {
  if (primary_fwd_->HasPendingUpdates() || primary_bwd_->HasPendingUpdates()) return true;
  for (const auto& vp : vp_indexes_) {
    if (vp->HasPendingUpdates()) return true;
  }
  for (const auto& ep : ep_indexes_) {
    if (ep->HasPendingUpdates()) return true;
  }
  return false;
}

}  // namespace aplus
