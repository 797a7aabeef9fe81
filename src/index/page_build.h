#ifndef APLUS_INDEX_PAGE_BUILD_H_
#define APLUS_INDEX_PAGE_BUILD_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "index/index_config.h"
#include "index/primary_index.h"
#include "storage/graph.h"
#include "storage/types.h"
#include "util/logging.h"

namespace aplus {

// The bucketed page build behind every in-memory list build of the
// index layer: primary runs (PrimaryIndex::Build and every page merge)
// and VP offset pages. It has three stages:
//   1. Scatter. The caller writes one compact entry per list entry,
//      {slot, nbr, eid}, where slot = (owner % 64) * fanout_product +
//      ListKeys::BucketOf(...). A full build writes them in edge-id order
//      into each page's range of one array.
//   2. PageSorter::Sort counting-sorts one page's entries by slot. The
//      histogram's prefix sum is the page's CSR.
//   3. It then sorts each list on its own: by (nbr, eid) under the
//      default vnbr.ID sort, otherwise by (keys..., nbr, eid) with the
//      keys computed once per entry.
// A page comes out equal to one sorted by (slot, SortKey) as a whole:
// nbr and eid are SortKey's tie breakers.

// One list entry of a primary page build (16 bytes).
struct PageEntry {
  uint32_t slot;
  vertex_id_t nbr;
  edge_id_t eid;
};

// One list entry of a VP page build; `offset` is the entry's position in
// its owner's full primary list.
struct OffsetEntry {
  uint32_t slot;
  vertex_id_t nbr;
  edge_id_t eid;
  uint32_t offset;
};

// The partition and sort criteria of one IndexConfig, resolved against
// the graph's columns once per build. The EP build orders each anchor's
// base list by it too.
class ListKeys {
 public:
  ListKeys(const Graph& graph, const IndexConfig& config, const std::vector<uint32_t>& fanouts);

  // Flattened partition path of an entry (PrimaryIndex::BucketOf).
  uint32_t BucketOf(edge_id_t e, vertex_id_t nbr) const {
    uint32_t bucket = 0;
    for (const Level& level : levels_) {
      category_t cat;
      if (level.column != nullptr) {
        cat = level.column->GetCategoryOrNullSlot(level.on_edge ? e : nbr);
      } else {
        cat = level.on_edge ? graph_->edge_label(e) : graph_->vertex_label(nbr);
      }
      APLUS_DCHECK(cat < level.fanout) << "category out of range";
      bucket = bucket * level.fanout + cat;
    }
    return bucket;
  }

  // True when lists are ordered by (nbr, eid) alone: no sort criterion,
  // or only vnbr.ID.
  bool nbr_order() const { return nbr_order_; }

  // Sort key of an entry (PrimaryIndex::ComputeSortKey).
  SortKey KeyOf(edge_id_t e, vertex_id_t nbr) const;

 private:
  struct Level {
    uint32_t fanout;
    bool on_edge;                  // keyed on the edge, else on the neighbour
    const PropertyColumn* column;  // null for a label level
  };
  struct Key {
    SortSource source;
    const PropertyColumn* column;  // property sources only
  };

  const Graph* graph_;
  std::vector<Level> levels_;
  std::vector<Key> keys_;
  bool nbr_order_ = true;
};

// Stages 2 and 3 for one page at a time, reusing its buffers across the
// pages of a build.
template <typename Entry>
class PageSorter {
 public:
  explicit PageSorter(const ListKeys* keys) : keys_(keys) {}

  // Orders entries [in, in + n), whose slots are below num_slots, by slot
  // and then list order, and writes the page CSR to csr[0..num_slots].
  // The returned array stays valid until the next call.
  const Entry* Sort(const Entry* in, size_t n, uint32_t num_slots, uint32_t* csr) {
    std::fill(csr, csr + num_slots + 1, 0u);
    for (size_t i = 0; i < n; ++i) csr[in[i].slot + 1]++;
    for (uint32_t s = 0; s < num_slots; ++s) csr[s + 1] += csr[s];
    sorted_.resize(n);
    // csr[s] is slot s's write cursor, which leaves it at the start of
    // slot s + 1; shifting by one restores the CSR.
    for (size_t i = 0; i < n; ++i) sorted_[csr[in[i].slot]++] = in[i];
    for (uint32_t s = num_slots; s > 0; --s) csr[s] = csr[s - 1];
    csr[0] = 0;
    for (uint32_t s = 0; s < num_slots; ++s) {
      if (csr[s + 1] - csr[s] > 1) SortList(sorted_.data() + csr[s], sorted_.data() + csr[s + 1]);
    }
    return sorted_.data();
  }

 private:
  void SortList(Entry* first, Entry* last) {
    if (keys_->nbr_order()) {
      std::sort(first, last, [](const Entry& a, const Entry& b) {
        return a.nbr != b.nbr ? a.nbr < b.nbr : a.eid < b.eid;
      });
      return;
    }
    keyed_.clear();
    for (Entry* it = first; it != last; ++it) {
      keyed_.emplace_back(keys_->KeyOf(it->eid, it->nbr), *it);
    }
    std::sort(keyed_.begin(), keyed_.end(),
              [](const std::pair<SortKey, Entry>& a, const std::pair<SortKey, Entry>& b) {
                return a.first < b.first;
              });
    for (const std::pair<SortKey, Entry>& k : keyed_) *first++ = k.second;
  }

  const ListKeys* keys_;
  std::vector<Entry> sorted_;
  std::vector<std::pair<SortKey, Entry>> keyed_;
};

}  // namespace aplus

#endif  // APLUS_INDEX_PAGE_BUILD_H_
