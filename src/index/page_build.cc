#include "index/page_build.h"

namespace aplus {

ListKeys::ListKeys(const Graph& graph, const IndexConfig& config,
                   const std::vector<uint32_t>& fanouts)
    : graph_(&graph) {
  APLUS_CHECK_EQ(fanouts.size(), config.partitions.size());
  APLUS_CHECK_LE(config.sorts.size(), static_cast<size_t>(kMaxSortKeys));
  for (size_t i = 0; i < config.partitions.size(); ++i) {
    const PartitionCriterion& p = config.partitions[i];
    Level level{fanouts[i], false, nullptr};
    switch (p.source) {
      case PartitionSource::kEdgeLabel:
        level.on_edge = true;
        break;
      case PartitionSource::kNbrLabel:
        break;
      case PartitionSource::kEdgeProp:
        level.on_edge = true;
        level.column = graph.edge_props().column(p.key);
        APLUS_CHECK(level.column != nullptr);
        break;
      case PartitionSource::kNbrProp:
        level.column = graph.vertex_props().column(p.key);
        APLUS_CHECK(level.column != nullptr);
        break;
    }
    levels_.push_back(level);
  }
  for (const SortCriterion& s : config.sorts) {
    Key key{s.source, nullptr};
    if (s.source == SortSource::kEdgeProp) key.column = graph.edge_props().column(s.key);
    if (s.source == SortSource::kNbrProp) key.column = graph.vertex_props().column(s.key);
    keys_.push_back(key);
    nbr_order_ = nbr_order_ && s.source == SortSource::kNbrId;
  }
}

SortKey ListKeys::KeyOf(edge_id_t e, vertex_id_t nbr) const {
  SortKey key;
  key.num_keys = static_cast<int>(keys_.size());
  for (int i = 0; i < key.num_keys; ++i) {
    switch (keys_[i].source) {
      case SortSource::kNbrId:
        key.keys[i] = nbr;
        break;
      case SortSource::kNbrLabel:
        key.keys[i] = graph_->vertex_label(nbr);
        break;
      case SortSource::kEdgeProp:
        key.keys[i] = ColumnSortKey(keys_[i].column, e);
        break;
      case SortSource::kNbrProp:
        key.keys[i] = ColumnSortKey(keys_[i].column, nbr);
        break;
    }
  }
  key.nbr = nbr;
  key.eid = e;
  return key;
}

}  // namespace aplus
