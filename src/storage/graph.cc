#include "storage/graph.h"

#include "util/fault.h"
#include "util/logging.h"

namespace aplus {

vertex_id_t Graph::AddVertex(label_t label) {
  const uint64_t n = published_vertices_.load(std::memory_order_relaxed);
  if (mapped_ || (ingest_reserved_ && n >= ingest_max_vertices_)) {
    // Reallocating while lock-free readers walk the arrays would be a
    // use-after-free, and a mapped graph has nothing to grow; both
    // surface as a typed error instead.
    return kInvalidVertex;
  }
  vertex_labels_.PushBack(label);
  vertex_props_.Resize(n + 1);
  // Publish only once the label and property slots are in place.
  published_vertices_.store(n + 1, std::memory_order_release);
  return static_cast<vertex_id_t>(n);
}

edge_id_t Graph::AddEdge(vertex_id_t src, vertex_id_t dst, label_t label) {
  APLUS_DCHECK(src < num_vertices()) << "unknown source vertex";
  APLUS_DCHECK(dst < num_vertices()) << "unknown destination vertex";
  const uint64_t n = published_edges_.load(std::memory_order_relaxed);
  if (mapped_ || (ingest_reserved_ && (n >= ingest_max_edges_ ||
                                       fault::ShouldFail(fault::kIngestAddEdge)))) {
    return kInvalidEdge;
  }
  edge_srcs_.PushBack(src);
  edge_dsts_.PushBack(dst);
  edge_labels_.PushBack(label);
  edge_props_.Resize(n + 1);
  // Publish only once endpoints, label and property slots are in place.
  published_edges_.store(n + 1, std::memory_order_release);
  return n;
}

bool Graph::ReserveForIngest(uint64_t max_vertices, uint64_t max_edges) {
  if (mapped_) return false;
  APLUS_CHECK_GE(max_vertices, num_vertices());
  APLUS_CHECK_GE(max_edges, num_edges());
  vertex_labels_.Reserve(max_vertices);
  edge_srcs_.Reserve(max_edges);
  edge_dsts_.Reserve(max_edges);
  edge_labels_.Reserve(max_edges);
  vertex_props_.Reserve(max_vertices);
  edge_props_.Reserve(max_edges);
  ingest_reserved_ = true;
  ingest_max_vertices_ = max_vertices;
  ingest_max_edges_ = max_edges;
  return true;
}

void Graph::EndIngestReservation() { ingest_reserved_ = false; }

prop_key_t Graph::AddVertexProperty(const std::string& name, ValueType type,
                                    uint32_t domain_size) {
  if (mapped_) return kInvalidPropKey;
  prop_key_t key = catalog_.AddProperty(name, PropTargetKind::kVertex, type, domain_size);
  vertex_props_.AddColumn(catalog_, key);
  return key;
}

prop_key_t Graph::AddEdgeProperty(const std::string& name, ValueType type, uint32_t domain_size) {
  if (mapped_) return kInvalidPropKey;
  prop_key_t key = catalog_.AddProperty(name, PropTargetKind::kEdge, type, domain_size);
  edge_props_.AddColumn(catalog_, key);
  return key;
}

void Graph::AttachMapped(const Columns& columns, uint64_t nv, uint64_t ne) {
  APLUS_CHECK(num_vertices() == 0 && !mapped_) << "AttachMapped needs an empty graph";
  vertex_labels_.Attach(columns.vertex_labels);
  edge_srcs_.Attach(columns.edge_srcs);
  edge_dsts_.Attach(columns.edge_dsts);
  edge_labels_.Attach(columns.edge_labels);
  vertex_props_.AttachMapped(nv);
  edge_props_.AttachMapped(ne);
  mapped_ = true;
  published_vertices_.store(nv, std::memory_order_release);
  published_edges_.store(ne, std::memory_order_release);
}

}  // namespace aplus
