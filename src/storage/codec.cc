#include "storage/codec.h"

#include <cstring>

#include "util/logging.h"

namespace aplus {
namespace codec {

namespace {

// Delta encoding works on two's-complement wraparound differences so
// extreme gaps (e.g. 0 -> ~0ull) stay defined behavior: `cur - prev`
// wraps in uint64, zigzag folds the sign bit of that wrapped value, and
// the decode side adds the unfolded delta back with wraparound. The
// round trip is exact for every (prev, cur) pair.
inline uint64_t ZigZagDiff(uint64_t cur, uint64_t prev) {
  uint64_t d = cur - prev;
  return (d << 1) ^ (0 - (d >> 63));
}

// Inverse fold; returned value is added to the accumulator with uint64
// wraparound.
inline uint64_t UnZigZag(uint64_t v) { return (v >> 1) ^ (0 - (v & 1)); }

inline void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

// Unchecked read: the stream was validated at open time (ValidatePacked
// walks every varint), so hot-path decodes skip bounds tests.
inline const uint8_t* GetVarint(const uint8_t* p, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (true) {
    uint8_t byte = *p++;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *v = result;
  return p;
}

// Bounds-checked read for validation: nullptr when the varint runs past
// `end` or exceeds 10 bytes (the longest legal LEB128 of a u64).
inline const uint8_t* GetVarintChecked(const uint8_t* p, const uint8_t* end, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (p >= end) return nullptr;
    uint8_t byte = *p++;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return p;
    }
    shift += 7;
  }
  return nullptr;
}

inline uint32_t SkipAt(const uint8_t* stream, uint32_t b) {
  uint32_t v;
  std::memcpy(&v, stream + kHeaderBytes + static_cast<size_t>(b) * sizeof(uint32_t), sizeof(v));
  return v;
}

}  // namespace

size_t PackAdjacency(const vertex_id_t* nbrs, const edge_id_t* eids, uint32_t n,
                     std::vector<uint8_t>* out) {
  const size_t start = out->size();
  uint32_t num_blocks = (n + kBlockEntries - 1) / kBlockEntries;
  out->resize(start + kHeaderBytes + static_cast<size_t>(num_blocks) * sizeof(uint32_t));
  std::memcpy(out->data() + start, &n, sizeof(n));
  std::memcpy(out->data() + start + sizeof(uint32_t), &num_blocks, sizeof(num_blocks));

  for (uint32_t b = 0; b < num_blocks; ++b) {
    uint32_t skip = static_cast<uint32_t>(out->size() - start);
    std::memcpy(out->data() + start + kHeaderBytes + static_cast<size_t>(b) * sizeof(uint32_t),
                &skip, sizeof(skip));
    uint32_t lo = b * kBlockEntries;
    uint32_t hi = lo + kBlockEntries < n ? lo + kBlockEntries : n;
    PutVarint(out, nbrs[lo]);
    PutVarint(out, eids[lo]);
    for (uint32_t i = lo + 1; i < hi; ++i) {
      PutVarint(out, ZigZagDiff(nbrs[i], nbrs[i - 1]));
      PutVarint(out, ZigZagDiff(eids[i], eids[i - 1]));
    }
  }
  return out->size() - start;
}

void DecodeRange(const uint8_t* stream, uint32_t begin, uint32_t count, vertex_id_t* out_nbrs,
                 edge_id_t* out_eids) {
  if (count == 0) return;
  const uint32_t n = PackedNumEntries(stream);
  APLUS_DCHECK(begin + count <= n);
  uint32_t i = begin;
  const uint32_t end = begin + count;
  while (i < end) {
    uint32_t b = i / kBlockEntries;
    uint32_t lo = b * kBlockEntries;
    uint32_t hi = lo + kBlockEntries < n ? lo + kBlockEntries : n;
    const uint8_t* p = stream + SkipAt(stream, b);
    uint64_t nbr, eid;
    p = GetVarint(p, &nbr);
    p = GetVarint(p, &eid);
    for (uint32_t j = lo; j < hi; ++j) {
      if (j > lo) {
        uint64_t dn, de;
        p = GetVarint(p, &dn);
        p = GetVarint(p, &de);
        nbr += UnZigZag(dn);
        eid += UnZigZag(de);
      }
      if (j >= i && j < end) {
        if (out_nbrs != nullptr) out_nbrs[j - begin] = static_cast<vertex_id_t>(nbr);
        if (out_eids != nullptr) out_eids[j - begin] = static_cast<edge_id_t>(eid);
      }
      if (j + 1 >= end) break;
    }
    i = hi;
  }
}

vertex_id_t DecodeNbrAt(const uint8_t* stream, uint32_t i) {
  vertex_id_t nbr;
  DecodeRange(stream, i, 1, &nbr, nullptr);
  return nbr;
}

edge_id_t DecodeEidAt(const uint8_t* stream, uint32_t i) {
  edge_id_t eid;
  DecodeRange(stream, i, 1, nullptr, &eid);
  return eid;
}

PackedCheck ValidatePacked(const uint8_t* stream, size_t avail, uint64_t num_vertices,
                           uint64_t num_edges, size_t* stream_bytes) {
  if (avail < kHeaderBytes) return PackedCheck::kMalformed;
  const uint32_t n = PackedNumEntries(stream);
  uint32_t num_blocks;
  std::memcpy(&num_blocks, stream + sizeof(uint32_t), sizeof(num_blocks));
  if (num_blocks != (n + kBlockEntries - 1) / kBlockEntries) return PackedCheck::kMalformed;
  const size_t table_end = kHeaderBytes + static_cast<size_t>(num_blocks) * sizeof(uint32_t);
  if (table_end > avail) return PackedCheck::kMalformed;
  const uint8_t* const end = stream + avail;
  const uint8_t* p = stream + table_end;
  for (uint32_t b = 0; b < num_blocks; ++b) {
    uint32_t skip = SkipAt(stream, b);
    // Blocks are laid out back to back right after the skip table.
    if (skip != static_cast<size_t>(p - stream)) return PackedCheck::kMalformed;
    uint32_t lo = b * kBlockEntries;
    uint32_t hi = lo + kBlockEntries < n ? lo + kBlockEntries : n;
    // Accumulated exactly as DecodeRange does, so the range check sees
    // the IDs a probe will read.
    uint64_t nbr = 0, eid = 0, dn = 0, de = 0;
    for (uint32_t j = lo; j < hi; ++j) {
      if ((p = GetVarintChecked(p, end, &dn)) == nullptr ||
          (p = GetVarintChecked(p, end, &de)) == nullptr) {
        return PackedCheck::kMalformed;
      }
      nbr = j == lo ? dn : nbr + UnZigZag(dn);
      eid = j == lo ? de : eid + UnZigZag(de);
      if (static_cast<vertex_id_t>(nbr) >= num_vertices ||
          static_cast<edge_id_t>(eid) >= num_edges) {
        return PackedCheck::kIdOutOfRange;
      }
    }
  }
  if (stream_bytes != nullptr) *stream_bytes = static_cast<size_t>(p - stream);
  return PackedCheck::kOk;
}

void PackedCursor::LoadBlock(const uint8_t* s, uint32_t b) {
  const uint32_t n = PackedNumEntries(s);
  uint32_t lo = b * kBlockEntries;
  uint32_t hi = lo + kBlockEntries < n ? lo + kBlockEntries : n;
  APLUS_DCHECK(lo < n);
  DecodeRange(s, lo, hi - lo, nbrs, eids);
  stream = s;
  block = b;
  block_len = hi - lo;
}

}  // namespace codec
}  // namespace aplus
