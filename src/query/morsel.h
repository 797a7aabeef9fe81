#ifndef APLUS_QUERY_MORSEL_H_
#define APLUS_QUERY_MORSEL_H_

#include <atomic>
#include <cstdint>

namespace aplus {

// Carves a domain [begin, end) into morsels handed to parallel workers
// through one atomic cursor (morsel-driven scheduling). The domain is
// the leading scan's vertex-ID range, or, for a scan pinned to one
// vertex, the entry range of the first EXTEND's list, fetched once and
// shared by every worker. Morsel sizes shrink as the domain drains: each
// grab takes remaining / (kShrinkDivisor * num_workers), clamped to
// [min_grab, max_grab] — large morsels early keep cursor contention
// negligible, small morsels at the tail keep stragglers short.
//
// Entry morsels are a fixed kEntryMorsel entries instead: each entry
// drives a whole sub-pipeline, and a hub's list puts its heaviest
// neighbours (the low IDs of a power-law graph) first, so a large early
// grab would hand most of the work to one worker.
//
// Reset() is called by the coordinating thread before workers start;
// Next() is safe to call concurrently from any number of workers.
class MorselCursor {
 public:
  static constexpr uint64_t kMinMorsel = 64;  // vertices
  static constexpr uint64_t kMaxMorsel = 8192;
  static constexpr uint64_t kEntryMorsel = 8;  // list entries
  static constexpr uint64_t kShrinkDivisor = 4;

  void Reset(uint64_t begin, uint64_t end, int num_workers, uint64_t min_grab,
             uint64_t max_grab) {
    end_ = end;
    divisor_ = kShrinkDivisor * static_cast<uint64_t>(num_workers < 1 ? 1 : num_workers);
    min_grab_ = min_grab;
    max_grab_ = max_grab;
    next_.store(begin, std::memory_order_relaxed);
  }

  // Claims the next morsel; false once the domain is drained.
  bool Next(uint64_t* morsel_begin, uint64_t* morsel_end) {
    uint64_t cur = next_.load(std::memory_order_relaxed);
    while (cur < end_) {
      uint64_t remaining = end_ - cur;
      uint64_t grab = remaining / divisor_;
      if (grab < min_grab_) grab = min_grab_;
      if (grab > max_grab_) grab = max_grab_;
      if (grab > remaining) grab = remaining;
      if (next_.compare_exchange_weak(cur, cur + grab, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        *morsel_begin = cur;
        *morsel_end = cur + grab;
        return true;
      }
    }
    return false;
  }

 private:
  std::atomic<uint64_t> next_{0};
  uint64_t end_ = 0;
  uint64_t divisor_ = kShrinkDivisor;
  uint64_t min_grab_ = kMinMorsel;
  uint64_t max_grab_ = kMaxMorsel;
};

}  // namespace aplus

#endif  // APLUS_QUERY_MORSEL_H_
