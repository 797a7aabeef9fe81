#pragma once

// Fault-injection harness. Production code guards failure paths with
// `fault::ShouldFail(fault::kPoint)`; when no faults are configured this is
// a single relaxed atomic load (the whole registry stays cold).
//
// Configuration is a comma-separated spec, from the APLUS_FAULT environment
// variable at startup or from SetSpec() in tests:
//
//   point            fire on every hit
//   point:0.05       fire each hit with probability 0.05 (deterministic
//                    per-hit hash, so a given run is reproducible)
//   point:@7         fire exactly on the 7th hit of that point, once
//
// e.g. APLUS_FAULT="delta_full:0.02,pool_dispatch:0.05" or "alloc:@1".
// Unknown point names are accepted (they simply never match a call site).

#include <atomic>
#include <cstdint>

namespace aplus {
namespace fault {

// Known injection points (call sites pass these constants).
inline constexpr const char* kAlloc = "alloc";              // MemoryBudget::Charge
inline constexpr const char* kDeltaFull = "delta_full";     // PrimaryIndex::InsertEdge
inline constexpr const char* kIngestAddEdge = "ingest_add_edge";  // Graph::AddEdge
inline constexpr const char* kPoolDispatch = "pool_dispatch";     // ThreadPool::Run
inline constexpr const char* kSealWrite = "seal_write";  // every write of SealSegment
// SealSegment's file fsync, then its directory fsync after the rename.
inline constexpr const char* kSealFsync = "seal_fsync";
inline constexpr const char* kSealRename = "seal_rename";  // SealSegment's rename

namespace internal {
extern std::atomic<bool> g_enabled;
bool ShouldFailSlow(const char* point);
}  // namespace internal

// Fast path: false (one relaxed load) unless a spec is active.
inline bool ShouldFail(const char* point) {
  if (!internal::g_enabled.load(std::memory_order_relaxed)) return false;
  return internal::ShouldFailSlow(point);
}

// Replaces the active spec (test API; APLUS_FAULT is parsed at startup).
// Resets all hit counters. Returns false if the spec failed to parse
// (the previous spec is cleared either way).
bool SetSpec(const char* spec);

// Disables all fault points and resets counters.
void Clear();

// Number of times `point` has been evaluated (not necessarily fired)
// since the last SetSpec/Clear. Unconfigured points return 0.
uint64_t Hits(const char* point);

}  // namespace fault
}  // namespace aplus
