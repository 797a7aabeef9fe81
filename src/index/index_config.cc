#include "index/index_config.h"

#include "util/logging.h"

namespace aplus {

IndexConfig IndexConfig::Default() {
  IndexConfig config;
  config.partitions.push_back(PartitionCriterion{PartitionSource::kEdgeLabel, kInvalidPropKey});
  config.sorts.push_back(SortCriterion{SortSource::kNbrId, kInvalidPropKey});
  return config;
}

IndexConfig IndexConfig::Flat() {
  IndexConfig config;
  config.sorts.push_back(SortCriterion{SortSource::kNbrId, kInvalidPropKey});
  return config;
}

uint32_t PartitionFanout(const Catalog& catalog, const PartitionCriterion& criterion) {
  switch (criterion.source) {
    case PartitionSource::kEdgeLabel:
      return catalog.num_edge_labels();
    case PartitionSource::kNbrLabel:
      return catalog.num_vertex_labels();
    case PartitionSource::kEdgeProp:
    case PartitionSource::kNbrProp: {
      const PropertyMeta& meta = catalog.property(criterion.key);
      APLUS_CHECK(meta.type == ValueType::kCategory)
          << "partitioning criterion " << meta.name << " is not categorical";
      return meta.domain_size + 1;  // +1 for the null partition
    }
  }
  return 0;
}

bool ResolveFanouts(const Catalog& catalog, const std::vector<PartitionCriterion>& partitions,
                    PartitionLevels* levels, std::string* error) {
  levels->fanouts.clear();
  uint64_t total = 1;
  for (const PartitionCriterion& criterion : partitions) {
    uint32_t fanout = PartitionFanout(catalog, criterion);
    if (fanout == 0) {
      *error = "partition level " + ToString(catalog, criterion) + " has an empty domain";
      return false;
    }
    // total < 2^24 and fanout < 2^32, so the product cannot wrap.
    total *= fanout;
    if (total >= kMaxFanoutProduct) {
      *error = "partition fan-out product reaches " + std::to_string(total) + " at level " +
               ToString(catalog, criterion) + " (the limit is below " +
               std::to_string(kMaxFanoutProduct) + ")";
      return false;
    }
    levels->fanouts.push_back(fanout);
  }
  levels->spans.assign(levels->fanouts.size() + 1, 1);
  for (size_t k = levels->fanouts.size(); k-- > 0;) {
    levels->spans[k] = levels->spans[k + 1] * levels->fanouts[k];
  }
  return true;
}

std::string ToString(const Catalog& catalog, const PartitionCriterion& criterion) {
  switch (criterion.source) {
    case PartitionSource::kEdgeLabel:
      return "eadj.label";
    case PartitionSource::kNbrLabel:
      return "vnbr.label";
    case PartitionSource::kEdgeProp:
      return "eadj." + catalog.property(criterion.key).name;
    case PartitionSource::kNbrProp:
      return "vnbr." + catalog.property(criterion.key).name;
  }
  return "?";
}

std::string ToString(const Catalog& catalog, const SortCriterion& criterion) {
  switch (criterion.source) {
    case SortSource::kNbrId:
      return "vnbr.ID";
    case SortSource::kNbrLabel:
      return "vnbr.label";
    case SortSource::kEdgeProp:
      return "eadj." + catalog.property(criterion.key).name;
    case SortSource::kNbrProp:
      return "vnbr." + catalog.property(criterion.key).name;
  }
  return "?";
}

std::string IndexConfig::ToString(const Catalog& catalog) const {
  std::string out = "PARTITION BY vID";
  for (const PartitionCriterion& p : partitions) {
    out += ", ";
    out += aplus::ToString(catalog, p);
  }
  out += " SORT BY ";
  if (sorts.empty()) {
    out += "vnbr.ID";
  } else {
    for (size_t i = 0; i < sorts.size(); ++i) {
      if (i > 0) out += ", ";
      out += aplus::ToString(catalog, sorts[i]);
    }
  }
  return out;
}

}  // namespace aplus
