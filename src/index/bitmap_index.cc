#include "index/bitmap_index.h"

#include "util/logging.h"
#include "util/timer.h"
#include "view/compiled_predicate.h"

namespace aplus {

BitmapIndex::BitmapIndex(const Graph* graph, const PrimaryIndex* primary, OneHopViewDef view)
    : graph_(graph), primary_(primary), view_(std::move(view)) {}

double BitmapIndex::Build() {
  WallTimer timer;
  num_edges_indexed_ = 0;
  page_bits_.assign(primary_->num_pages(), {});
  CompiledPredicate pred(graph_, view_.pred);
  for (uint32_t p = 0; p < primary_->num_pages(); ++p) {
    const IdListPage& page = primary_->page(p);
    APLUS_CHECK(!page.is_packed()) << "bitmap indexes require raw primary pages";
    size_t num_entries = page.num_entries;
    std::vector<uint64_t>& bits = page_bits_[p];
    bits.assign((num_entries + 63) / 64, 0);
    for (size_t i = 0; i < num_entries; ++i) {
      edge_id_t e = page.eids[i];
      EvalContext ctx;
      ctx.graph = graph_;
      ctx.adj_edge = e;
      ctx.nbr = page.nbrs[i];
      ctx.src = graph_->edge_src(e);
      ctx.dst = graph_->edge_dst(e);
      if (pred.Eval(ctx)) {
        bits[i >> 6] |= 1ULL << (i & 63);
        ++num_edges_indexed_;
      }
    }
  }
  build_seconds_ = timer.ElapsedSeconds();
  return build_seconds_;
}

BitmapIndex::BitmapSlice BitmapIndex::GetBits(vertex_id_t v,
                                              const std::vector<category_t>& cats) const {
  BitmapSlice slice;
  uint32_t page_idx = v / kGroupSize;
  if (page_idx >= page_bits_.size()) return slice;
  const IdListPage& page = primary_->page(page_idx);
  auto [first, last] = primary_->levels().Buckets(v % kGroupSize, cats);
  slice.words = page_bits_[page_idx].data();
  slice.bit_offset = page.csr[first];
  slice.len = page.csr[last] - page.csr[first];
  return slice;
}

size_t BitmapIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& bits : page_bits_) bytes += bits.capacity() * sizeof(uint64_t);
  return bytes;
}

}  // namespace aplus
