#ifndef APLUS_INDEX_INDEX_CONFIG_H_
#define APLUS_INDEX_INDEX_CONFIG_H_

#include <string>
#include <vector>

#include "storage/catalog.h"
#include "storage/types.h"

namespace aplus {

// What a nested partitioning level keys on (Section III-A1). Only
// categorical criteria are allowed: labels and kCategory properties of
// the adjacent edge or the neighbour vertex.
enum class PartitionSource : uint8_t {
  kEdgeLabel = 0,  // eadj.label
  kNbrLabel = 1,   // vnbr.label
  kEdgeProp = 2,   // eadj.<categorical property>
  kNbrProp = 3,    // vnbr.<categorical property>
};

struct PartitionCriterion {
  PartitionSource source = PartitionSource::kEdgeLabel;
  prop_key_t key = kInvalidPropKey;  // for kEdgeProp / kNbrProp

  bool operator==(const PartitionCriterion& other) const {
    return source == other.source && key == other.key;
  }
};

// What the most granular sublists are sorted on (Section III-A2).
enum class SortSource : uint8_t {
  kNbrId = 0,     // vnbr.ID (the system default; enables E/I intersections)
  kNbrLabel = 1,  // vnbr.label
  kEdgeProp = 2,  // eadj.<property>
  kNbrProp = 3,   // vnbr.<property>
};

struct SortCriterion {
  SortSource source = SortSource::kNbrId;
  prop_key_t key = kInvalidPropKey;

  bool operator==(const SortCriterion& other) const {
    return source == other.source && key == other.key;
  }
};

// The tunable part of an A+ index: nested partitioning criteria applied
// after the level-0 vertex-ID (or edge-ID) partitioning, plus the sort
// order of the most granular sublists. Ties after the configured sort
// keys are broken by neighbour ID then edge ID, so list order is total
// and deterministic.
struct IndexConfig {
  std::vector<PartitionCriterion> partitions;
  std::vector<SortCriterion> sorts;

  // The system default of Section III-A: partitioned by edge labels and
  // sorted by neighbour IDs.
  static IndexConfig Default();

  // A config with no secondary partitioning, sorted on neighbour IDs.
  static IndexConfig Flat();

  bool SamePartitioning(const IndexConfig& other) const { return partitions == other.partitions; }

  std::string ToString(const Catalog& catalog) const;
};

// Fan-out of one partitioning level: label count or category domain + 1
// null slot. Label counts are snapshotted at build time.
uint32_t PartitionFanout(const Catalog& catalog, const PartitionCriterion& criterion);

// Upper bound (exclusive) on the product of a config's partition
// fan-outs: every page holds 64 * product + 1 CSR entries.
inline constexpr uint64_t kMaxFanoutProduct = uint64_t{1} << 24;

// Resolves the fan-out of every partitioning level and their product.
// Returns false with a description in *error when a level has an empty
// domain or the product reaches kMaxFanoutProduct. The one place every
// index build, DDL command and segment open checks a partitioning.
bool ResolveFanouts(const Catalog& catalog, const std::vector<PartitionCriterion>& partitions,
                    std::vector<uint32_t>* fanouts, uint32_t* product, std::string* error);

std::string ToString(const Catalog& catalog, const PartitionCriterion& criterion);
std::string ToString(const Catalog& catalog, const SortCriterion& criterion);

}  // namespace aplus

#endif  // APLUS_INDEX_INDEX_CONFIG_H_
