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
// plus both primary A+ indexes in their final layout. Opening it copies
// nothing: the graph columns and the index pages are views into the
// read-only mapping, so reopening skips the whole index build and pages
// fault in lazily. It is the engine's one persisted format.
//
// File layout ("APSG", version 3, little-endian). The header and three
// sections tile the file in this order; every section starts 8-byte
// aligned and is a multiple of 8 bytes long:
//
//   SegmentHeader   fixed 96 bytes: magic, version, file size, each
//                   section's (offset, size, CRC32C), where each index
//                   section's metadata starts, and the header's own
//                   CRC32C
//   graph section   num_vertices, num_edges; the catalog (labels,
//                   property metadata, category names); each string
//                   column's dictionary; then 8-byte-aligned columns:
//                   u16 vertex labels, u32 edge src, u32 edge dst, u16
//                   edge labels, and per property column its null bytes
//                   and payload (PropertyColumn::PayloadWidth)
//   FW / BW index   a data arena of 8-byte-aligned page payloads (the
//   sections        partition CSR of every page, then either flat
//                   nbr/eid arrays (raw pages) or a delta/varint stream
//                   (packed pages, storage/codec.h)), then the metadata:
//                   IndexConfig criteria, edge/page counts and one
//                   PageRecord per page pointing into the arena
//
// OpenSegment verifies every CRC32C before it reads a section, then
// validates what a checksum cannot vouch for: every label, endpoint and
// category or string code against the catalog (one linear pass over the
// columns), and per index page the bounds, CSR monotonicity, codec
// structure and ID ranges. The Graph and the IdListPage views point
// straight into the mapping. The Segment owns the mapping and must
// outlive the graph and every index attached to it
// (Database::OpenFromSegment keeps it alive for the database's
// lifetime). The mapping is advised MADV_RANDOM: point probes dominate.
//
// Environment knob (read at seal time):
//   APLUS_SEGMENT_COMPRESS = auto|on|off
//     auto (default): pack a page's adjacency iff its largest owner list
//     has <= 128 entries — hub pages stay raw so the SIMD frontier
//     kernels keep operating on flat arrays; on/off force one side.

inline constexpr uint32_t kSegmentMagic = 0x47535041;  // "APSG"
inline constexpr uint32_t kSegmentVersion = 3;

// Sections in file order.
enum SegmentSection : int { kGraphSection = 0, kFwdIndexSection = 1, kBwdIndexSection = 2 };
inline constexpr int kNumSegmentSections = 3;

// The fixed file header. Offsets are absolute file offsets.
struct SegmentHeader {
  uint32_t magic;
  uint32_t version;
  uint64_t file_size;
  uint64_t section_off[kNumSegmentSections];
  uint64_t section_size[kNumSegmentSections];
  uint64_t index_meta_off[2];  // [0] FW, [1] BW: metadata start in its section
  uint32_t section_crc[kNumSegmentSections];
  uint32_t header_crc;  // CRC32C of the header bytes before this field
};
static_assert(sizeof(SegmentHeader) == 96);

// Per-page adjacency representation statistics of a sealed file, for the
// bytes/edge benchmark and logs.
struct SegmentStats {
  uint64_t file_bytes = 0;
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

  // The mapped graph: its columns are views into the mapping, so it may
  // move out of the Segment but must not outlive it.
  Graph& graph() { return graph_; }
  // Sealed pages of one direction; AttachSegment consumes `pages`.
  SegmentIndexPart& part(Direction dir) {
    return parts_[dir == Direction::kFwd ? 0 : 1];
  }
  const SegmentStats& stats() const { return stats_; }
  const std::string& path() const { return path_; }
  // The read-only mapping of the whole file.
  const uint8_t* data() const { return static_cast<const uint8_t*>(base_); }

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

// Page layout of a seal: kAuto packs pages whose largest list is short
// (hub pages stay raw for the SIMD kernels), kOn every page, kOff none.
enum class CompressMode { kAuto, kOn, kOff };

// Writes the sealed segment file for `graph` + `store` at `path`, its
// pages laid out as `mode` says. Both primary indexes must be built and
// clean (no pending deltas) — the Database seal path flushes first.
//
// The file is streamed in one forward pass into a temporary file beside
// `path` (`path`.XXXXXX, same filesystem), the header is patched in at
// offset 0, and the temporary is renamed over `path`. A reader that
// already maps an older file at `path` keeps that file's inode and so
// its snapshot. On any failure the temporary is unlinked, `path` is left
// as it was, and false is returned with a "seal: ..." description in
// *error that names the system error. The temporary is fsynced before
// the rename and the directory after it, so once the seal returns true
// the new file survives a crash. (When only the directory fsync fails,
// the new file is already in place but false is returned: it may not
// survive a crash.)
bool SealSegment(const Graph& graph, const IndexStore& store, const std::string& path,
                 CompressMode mode, std::string* error);

// Maps `path` read-only, verifies every checksum and validates every
// section; returns null with a typed "segment: ..." description in
// *error on any violation (truncation, bad magic, an unsupported
// version, a checksum mismatch, out-of-bounds offsets, out-of-range
// labels or codes, non-monotone CSRs, malformed codec streams,
// out-of-range vertex/edge IDs). Never aborts on untrusted input.
std::unique_ptr<Segment> OpenSegment(const std::string& path, std::string* error);

}  // namespace aplus

#endif  // APLUS_STORAGE_SEGMENT_H_
