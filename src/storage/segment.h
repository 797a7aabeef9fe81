#ifndef APLUS_STORAGE_SEGMENT_H_
#define APLUS_STORAGE_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/index_config.h"
#include "index/list_page.h"
#include "storage/graph.h"

namespace aplus {

class IndexStore;

// Sealed segment tier: one immutable, mmap-friendly file holding a graph
// snapshot plus both primary A+ indexes in their final on-disk layout,
// so reopening skips the whole index build (bucket computation, sorting,
// CSR assembly) and pages fault in lazily.
//
// File layout ("APSG", version 1, little-endian):
//
//   SegmentHeader        fixed 64 bytes: magic, version, file size, and
//                        the (offset, size) of the graph section and of
//                        the two index sections
//   graph section        an "APLS" snapshot stream (storage/serialize.h);
//                        copied into an in-memory Graph at open — graph
//                        columns are the mutable side of the engine and
//                        stay heap-backed
//   per-index data arena 8-byte-aligned page payloads: the partition CSR
//                        of every page followed by either flat
//                        nbr/eid arrays (raw pages) or a delta/varint
//                        stream (packed pages, storage/codec.h)
//   per-index metadata   IndexConfig criteria, edge/page counts, and one
//                        PageRecord per page pointing into the arena
//
// Index sections are zero-copy: OpenSegment validates them (bounds,
// CSR monotonicity, codec structure, ID ranges) and builds IdListPage
// views that point straight into the read-only mapping. The Segment owns
// the mapping and must outlive every index attached to it
// (Database::OpenFromSegment keeps it alive for the database's
// lifetime).
//
// Environment knobs (read at seal / open time):
//   APLUS_SEGMENT_COMPRESS = auto|on|off
//     auto (default): pack a page's adjacency iff its largest owner list
//     has <= 128 entries — hub pages stay raw so the SIMD frontier
//     kernels keep operating on flat arrays; on/off force one side.
//   APLUS_SEGMENT_MADVISE = auto|random|sequential|willneed|off
//     madvise(2) hint applied to the mapping; auto = random (point
//     probes dominate the probe-heavy read path).

// Per-page adjacency representation statistics of a sealed file, for the
// bytes/edge benchmark and logs.
struct SegmentStats {
  uint64_t file_bytes = 0;
  uint64_t graph_bytes = 0;
  uint32_t raw_pages = 0;
  uint32_t packed_pages = 0;
  // Adjacency payload bytes (both directions, CSR excluded).
  uint64_t raw_adj_bytes = 0;
  uint64_t packed_adj_bytes = 0;
  // What the packed pages would occupy as flat nbr/eid arrays.
  uint64_t packed_adj_unpacked_bytes = 0;
  uint64_t csr_bytes = 0;
};

// One direction's sealed index, as parsed from a mapping: the config it
// was built under and one view-only IdListPage per vertex group, ready
// for PrimaryIndex::AttachSegmentPages.
struct SegmentIndexPart {
  IndexConfig config;
  uint64_t num_edges = 0;
  std::vector<std::unique_ptr<IdListPage>> pages;
};

// An open, validated segment mapping. Movable state lives behind the
// unique_ptr returned by OpenSegment; the destructor unmaps.
class Segment {
 public:
  ~Segment();
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  // The graph copied out of the snapshot section. The caller may move it
  // out (index page views point into the mapping, not the graph).
  Graph& graph() { return graph_; }
  // Sealed pages of one direction; AttachSegment consumes `pages`.
  SegmentIndexPart& part(Direction dir) {
    return parts_[dir == Direction::kFwd ? 0 : 1];
  }
  const SegmentStats& stats() const { return stats_; }
  const std::string& path() const { return path_; }

 private:
  friend std::unique_ptr<Segment> OpenSegment(const std::string& path, std::string* error);
  Segment() = default;

  void* base_ = nullptr;
  size_t map_size_ = 0;
  Graph graph_;
  SegmentIndexPart parts_[2];
  SegmentStats stats_;
  std::string path_;
};

// Writes the sealed segment file for `graph` + `store` at `path`. Both
// primary indexes must be built and clean (no pending deltas) — the
// Database seal path flushes first.
//
// The file is streamed in one forward pass into a temporary file beside
// `path` (`path`.XXXXXX, same filesystem), the header is patched in at
// offset 0, and the temporary is renamed over `path`. A reader that
// already maps an older file at `path` keeps that file's inode and so
// its snapshot. On any failure the temporary is unlinked, `path` is left
// as it was, and false is returned with a "seal: ..." description in
// *error that names the system error. The seal does not fsync the file
// or its directory: a crash right after it returns may lose the file.
bool SealSegment(const Graph& graph, const IndexStore& store, const std::string& path,
                 std::string* error);

// Maps `path` read-only and validates every section; returns null with a
// typed description in *error on any structural violation (truncation,
// bad magic/version, out-of-bounds offsets, non-monotone CSRs, malformed
// codec streams, out-of-range vertex/edge IDs). Never aborts on
// untrusted input.
std::unique_ptr<Segment> OpenSegment(const std::string& path, std::string* error);

}  // namespace aplus

#endif  // APLUS_STORAGE_SEGMENT_H_
