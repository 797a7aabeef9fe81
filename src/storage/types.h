#ifndef APLUS_STORAGE_TYPES_H_
#define APLUS_STORAGE_TYPES_H_

#include <cstdint>
#include <limits>

namespace aplus {

// Identifier widths follow Section IV-B of the paper: neighbour vertex IDs
// are stored as 4-byte integers and edge IDs as 8-byte longs in the ID
// lists of the primary A+ index.
using vertex_id_t = uint32_t;
using edge_id_t = uint64_t;
using label_t = uint16_t;
using prop_key_t = uint16_t;

// Index of a categorical value within a property's domain. The domain is a
// small set of integers / enums (Section III-A1); nulls map to the last
// partition slot.
using category_t = uint32_t;

inline constexpr vertex_id_t kInvalidVertex = std::numeric_limits<vertex_id_t>::max();
inline constexpr edge_id_t kInvalidEdge = std::numeric_limits<edge_id_t>::max();
inline constexpr label_t kInvalidLabel = std::numeric_limits<label_t>::max();
inline constexpr prop_key_t kInvalidPropKey = std::numeric_limits<prop_key_t>::max();

// Adjacency direction of an index: FW partitions edges by source vertex,
// BW by destination vertex (Section III-A).
enum class Direction : uint8_t { kFwd = 0, kBwd = 1 };

inline const char* ToString(Direction d) { return d == Direction::kFwd ? "FW" : "BW"; }

// Number of vertices (or edges, for edge-partitioned indexes) per list
// page / CSR group (Section IV-B: "a CSR for groups of 64 vertices").
inline constexpr uint32_t kGroupSize = 64;

}  // namespace aplus

#endif  // APLUS_STORAGE_TYPES_H_
