#ifndef APLUS_STORAGE_CODEC_H_
#define APLUS_STORAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/types.h"

namespace aplus {
namespace codec {

// Delta/varint codec for sealed adjacency lists (the cold-list
// representation of the segment tier, cf. ROADMAP "beyond-RAM scale").
//
// A packed stream encodes the (nbr, eid) entry sequence of one index
// page, little-endian and byte-aligned:
//
//   u32 num_entries
//   u32 num_blocks                   == ceil(num_entries / kBlockEntries)
//   u32 skip[num_blocks]             byte offset of block b from stream start
//   ...varint blocks...
//
// Block b covers entries [b*kBlockEntries, min(n, (b+1)*kBlockEntries)).
// Its first entry stores `nbr` and `eid` as plain LEB128 varints;
// subsequent entries store zigzag varints of the deltas against the
// previous entry. Zigzag (not plain delta) because only *buckets* are
// sorted by neighbour ID — across bucket boundaries, and under
// property-sort configurations, deltas go negative.
//
// The skip table is what keeps point probes cheap: entry i is reached by
// jumping to skip[i / kBlockEntries] and decoding at most
// kBlockEntries - 1 predecessors. Batch decodes walk blocks linearly.
inline constexpr uint32_t kBlockEntries = 32;
inline constexpr size_t kHeaderBytes = 2 * sizeof(uint32_t);

// Appends the packed stream of `n` entries to `*out` and returns the
// number of bytes appended. n == 0 writes the 8-byte empty header.
size_t PackAdjacency(const vertex_id_t* nbrs, const edge_id_t* eids, uint32_t n,
                     std::vector<uint8_t>* out);

// Entry count declared by a stream header (caller guarantees >= 8
// readable bytes).
inline uint32_t PackedNumEntries(const uint8_t* stream) {
  uint32_t n;
  __builtin_memcpy(&n, stream, sizeof(n));
  return n;
}

// Reference scalar decoder: decodes entries [begin, begin + count) into
// out_nbrs / out_eids (either may be null to skip that side). The stream
// must be valid (see ValidatePacked) and begin + count <= num_entries.
void DecodeRange(const uint8_t* stream, uint32_t begin, uint32_t count, vertex_id_t* out_nbrs,
                 edge_id_t* out_eids);

// Point decode of one entry (block jump + partial block decode).
vertex_id_t DecodeNbrAt(const uint8_t* stream, uint32_t i);
edge_id_t DecodeEidAt(const uint8_t* stream, uint32_t i);

// One checked walk over a stream of `avail` readable bytes: header in
// bounds, block count consistent with the entry count, skip entries in
// bounds and increasing, every varint ending inside the stream (else
// kMalformed); every decoded neighbour below `num_vertices` and edge ID
// below `num_edges` (else kIdOutOfRange). On kOk, *stream_bytes
// (optional) is the stream's size. Never reads past stream + avail.
enum class PackedCheck { kOk, kMalformed, kIdOutOfRange };
PackedCheck ValidatePacked(const uint8_t* stream, size_t avail, uint64_t num_vertices,
                           uint64_t num_edges, size_t* stream_bytes = nullptr);

// One-block decode cache for repeated point access into the same stream
// (sequential enumeration, galloping probes). Owned by the probing
// scratch — one per plan list per worker replica — so use is
// single-threaded by construction.
struct PackedCursor {
  const uint8_t* stream = nullptr;
  uint32_t block = ~0u;
  uint32_t block_len = 0;
  vertex_id_t nbrs[kBlockEntries];
  edge_id_t eids[kBlockEntries];

  void LoadBlock(const uint8_t* s, uint32_t b);

  vertex_id_t NbrAt(const uint8_t* s, uint32_t i) {
    uint32_t b = i / kBlockEntries;
    if (stream != s || block != b) LoadBlock(s, b);
    return nbrs[i % kBlockEntries];
  }
  edge_id_t EidAt(const uint8_t* s, uint32_t i) {
    uint32_t b = i / kBlockEntries;
    if (stream != s || block != b) LoadBlock(s, b);
    return eids[i % kBlockEntries];
  }
};

}  // namespace codec
}  // namespace aplus

#endif  // APLUS_STORAGE_CODEC_H_
