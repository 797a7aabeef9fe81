#ifndef APLUS_QUERY_INTERSECT_KERNELS_H_
#define APLUS_QUERY_INTERSECT_KERNELS_H_

#include <cstdint>
#include <utility>

#include "storage/types.h"

namespace aplus {
namespace simd {

// Branch-reduced kernels for the three shapes that dominate the
// EXTEND/INTERSECT and MULTI-EXTEND inner loops (Section IV-A):
//
//   1. frontier advance over a flat sorted neighbour run (the galloping
//      search of sorted-run ∩ sorted-run),
//   2. equal-range probes over a decoded batch (the same advance, run
//      twice), and
//   3. the offset-list batch-decode widening loop (fixed-width offsets
//      -> flat neighbour/edge arrays, Section III-B3).
//
// Three implementations are compiled: a scalar gallop (always correct,
// any architecture), an SSE4.2 variant (4-lane block compares), and an
// AVX2 variant (8-lane block compares + gathered decodes). Dispatch is
// resolved once at runtime from `__builtin_cpu_supports` intersected
// with the APLUS_SIMD environment knob:
//
//   APLUS_SIMD=auto    highest level the host supports (default)
//   APLUS_SIMD=avx2    force AVX2 (clamped down if unsupported)
//   APLUS_SIMD=sse     force SSE4.2 (clamped down if unsupported)
//   APLUS_SIMD=scalar  force the scalar fallback
//
// The advance kernels are length-ratio-adaptive by construction: a short
// advance (balanced lists) resolves inside the leading SIMD block
// compares, a long advance (skewed lists) falls through to a galloping
// bracket + binary search whose final window is block-scanned. Cost
// stays O(log d) in the distance d actually advanced, matching the
// scalar gallop's complexity contract, so monotone-frontier sequences
// keep their O(k log(L/k)) total.
enum class Level : uint8_t { kScalar = 0, kSse = 1, kAvx2 = 2 };

const char* ToString(Level level);

// Dispatch table of one level. All function pointers are non-null.
struct Kernels {
  // First index in [from, end) with nbrs[i] >= n (ge) / > n (gt);
  // nbrs[from, end) must be sorted ascending. Returns end when no entry
  // qualifies; `from >= end` returns `from`.
  uint32_t (*advance_ge)(const vertex_id_t* nbrs, uint32_t from, uint32_t end, vertex_id_t n);
  uint32_t (*advance_gt)(const vertex_id_t* nbrs, uint32_t from, uint32_t end, vertex_id_t n);
  // Batch-decodes `count` neighbour IDs of an offset list starting at
  // entry `begin`: out[i] = base_nbrs[offset(begin + i)], with offsets
  // read LoadFixedWidth-style (`width` bytes, little-endian).
  void (*decode_nbrs)(const vertex_id_t* base_nbrs, const uint8_t* offsets, uint8_t width,
                      uint32_t begin, uint32_t count, vertex_id_t* out);
  // Same, widening neighbour + edge IDs together (the MULTI-EXTEND
  // equal-key-run decode).
  void (*decode_entries)(const vertex_id_t* base_nbrs, const edge_id_t* base_edges,
                         const uint8_t* offsets, uint8_t width, uint32_t begin, uint32_t count,
                         vertex_id_t* out_nbrs, edge_id_t* out_edges);
  // Batch-decodes `count` entries of a delta/varint packed stream
  // (storage/codec.h layout — the sealed-segment cold-list
  // representation) starting at stream entry `begin`. Either output may
  // be null to skip that side; a neighbour-only decode reads no edge
  // varint. Each block keeps its neighbour varints contiguous, ahead of
  // its edge varints, but the delta sum is still a serial dependency
  // chain, so every level currently shares the scalar implementation;
  // the table entry is the dispatch seam for future SIMD variants (e.g.
  // Masked VByte over a block's neighbour section).
  void (*decode_varint_block)(const uint8_t* packed, uint32_t begin, uint32_t count,
                              vertex_id_t* out_nbrs, edge_id_t* out_edges);
  Level level;
};

// The shared scalar varint decoder behind decode_varint_block (wraps the
// storage/codec.h reference decoder); exposed so the per-ISA tables can
// reference one definition.
void DecodeVarintBlockScalar(const uint8_t* packed, uint32_t begin, uint32_t count,
                             vertex_id_t* out_nbrs, edge_id_t* out_edges);

// Highest level this host's CPU can execute.
Level HostMaxLevel();

// The active dispatch table. First use resolves APLUS_SIMD against
// HostMaxLevel(); subsequent calls are one relaxed atomic load.
const Kernels& Active();
Level ActiveLevel();

// Installs the table for `level` (clamped to HostMaxLevel()) and returns
// the level actually installed. For tests and the bench kernel-variant
// sweeps; not intended to race with concurrently executing plans.
Level SetLevel(Level level);

// Equal range of `n` within the sorted run [from, end) of `nbrs`.
inline std::pair<uint32_t, uint32_t> EqualRange(const Kernels& k, const vertex_id_t* nbrs,
                                                uint32_t from, uint32_t end, vertex_id_t n) {
  uint32_t first = k.advance_ge(nbrs, from, end, n);
  if (first == end || nbrs[first] != n) return {first, first};
  return {first, k.advance_gt(nbrs, first, end, n)};
}

// Per-level tables, exposed for the dispatcher and the bench A/B sweeps.
// SseKernels()/Avx2Kernels() return the scalar table when the build
// target is not x86 (the level is then reported as kScalar).
const Kernels& ScalarKernels();
const Kernels& SseKernels();
const Kernels& Avx2Kernels();

}  // namespace simd
}  // namespace aplus

#endif  // APLUS_QUERY_INTERSECT_KERNELS_H_
