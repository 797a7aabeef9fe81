#ifndef APLUS_STORAGE_GRAPH_H_
#define APLUS_STORAGE_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "storage/catalog.h"
#include "storage/column_array.h"
#include "storage/property_store.h"
#include "storage/types.h"

namespace aplus {

// In-memory property graph: labelled vertices and directed labelled edges
// with typed key-value properties (the property graph model of Section I).
// The graph itself is unindexed edge storage; all adjacency access goes
// through the A+ indexes in src/index/.
//
// Vertex ids are assigned consecutively from 0 (Section IV-B relies on
// this for the div/mod page addressing). Edge ids likewise.
//
// Concurrent serving: num_vertices()/num_edges() return atomically
// *published* counts, stored with release only after the element data
// (labels, endpoints) is in place, so lock-free readers racing a single
// ingest writer see a consistent prefix of the graph. The backing
// vectors must not reallocate while readers are active —
// ReserveForIngest pre-sizes their capacity before a concurrent ingest
// phase, and AddVertex/AddEdge check they stay within it.
//
// A mapped graph (AttachMapped) serves its fixed-width columns straight
// from a sealed segment's mapping (storage/segment.h). It is fixed at
// attach: AddVertex, AddEdge, ReserveForIngest and Add*Property refuse,
// and the accessors read it exactly as they read an in-memory graph.
class Graph {
 public:
  Graph() : vertex_props_(PropTargetKind::kVertex), edge_props_(PropTargetKind::kEdge) {}

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  // Moves happen only while quiesced (dataset construction hands the
  // graph to a Database); the atomic counters block the defaults.
  Graph(Graph&& other) noexcept
      : catalog_(std::move(other.catalog_)),
        vertex_labels_(std::move(other.vertex_labels_)),
        edge_srcs_(std::move(other.edge_srcs_)),
        edge_dsts_(std::move(other.edge_dsts_)),
        edge_labels_(std::move(other.edge_labels_)),
        vertex_props_(std::move(other.vertex_props_)),
        edge_props_(std::move(other.edge_props_)) {
    mapped_ = other.mapped_;
    ingest_reserved_ = other.ingest_reserved_;
    ingest_max_vertices_ = other.ingest_max_vertices_;
    ingest_max_edges_ = other.ingest_max_edges_;
    published_vertices_.store(other.published_vertices_.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
    published_edges_.store(other.published_edges_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    other.published_vertices_.store(0, std::memory_order_relaxed);
    other.published_edges_.store(0, std::memory_order_relaxed);
  }
  Graph& operator=(Graph&& other) noexcept {
    catalog_ = std::move(other.catalog_);
    vertex_labels_ = std::move(other.vertex_labels_);
    edge_srcs_ = std::move(other.edge_srcs_);
    edge_dsts_ = std::move(other.edge_dsts_);
    edge_labels_ = std::move(other.edge_labels_);
    vertex_props_ = std::move(other.vertex_props_);
    edge_props_ = std::move(other.edge_props_);
    mapped_ = other.mapped_;
    ingest_reserved_ = other.ingest_reserved_;
    ingest_max_vertices_ = other.ingest_max_vertices_;
    ingest_max_edges_ = other.ingest_max_edges_;
    published_vertices_.store(other.published_vertices_.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
    published_edges_.store(other.published_edges_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    other.published_vertices_.store(0, std::memory_order_relaxed);
    other.published_edges_.store(0, std::memory_order_relaxed);
    return *this;
  }

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  // During a concurrent ingest phase (ReserveForIngest active), inserts
  // beyond the reserved capacity return kInvalidVertex / kInvalidEdge —
  // the graph is unchanged and the caller must not report the edge to
  // the maintainer. Outside a phase, storage grows freely. A mapped
  // graph refuses every insert the same way.
  vertex_id_t AddVertex(label_t label);
  edge_id_t AddEdge(vertex_id_t src, vertex_id_t dst, label_t label);

  uint64_t num_vertices() const { return published_vertices_.load(std::memory_order_acquire); }
  uint64_t num_edges() const { return published_edges_.load(std::memory_order_acquire); }

  // Pre-allocates vertex/edge storage (including every property column)
  // so a concurrent ingest phase appends without reallocating under
  // lock-free readers. Must be called while quiesced. The max counts
  // become hard insert caps until EndIngestReservation. Returns false,
  // reserving nothing, on a mapped graph.
  bool ReserveForIngest(uint64_t max_vertices, uint64_t max_edges);
  // Lifts the insert caps once the phase quiesced (reallocation is safe
  // again with no readers in flight).
  void EndIngestReservation();

  label_t vertex_label(vertex_id_t v) const { return vertex_labels_[v]; }
  label_t edge_label(edge_id_t e) const { return edge_labels_[e]; }

  // Relabeling is used by the dataset generators (G_{i,j} methodology);
  // indexes built before a relabel must be rebuilt.
  // In-memory graphs only.
  void set_vertex_label(vertex_id_t v, label_t label) { vertex_labels_.Set(v, label); }
  void set_edge_label(edge_id_t e, label_t label) { edge_labels_.Set(e, label); }

  vertex_id_t edge_src(edge_id_t e) const { return edge_srcs_[e]; }
  vertex_id_t edge_dst(edge_id_t e) const { return edge_dsts_[e]; }

  // Endpoint of `e` on the far side when traversing in direction `dir`
  // from the near side, i.e. dst for FW and src for BW.
  vertex_id_t edge_endpoint(edge_id_t e, Direction dir) const {
    return dir == Direction::kFwd ? edge_dsts_[e] : edge_srcs_[e];
  }

  PropertyStore& vertex_props() { return vertex_props_; }
  const PropertyStore& vertex_props() const { return vertex_props_; }
  PropertyStore& edge_props() { return edge_props_; }
  const PropertyStore& edge_props() const { return edge_props_; }

  // Convenience: registers property metadata in the catalog and creates
  // the backing column. A mapped graph returns kInvalidPropKey.
  prop_key_t AddVertexProperty(const std::string& name, ValueType type, uint32_t domain_size = 0);
  prop_key_t AddEdgeProperty(const std::string& name, ValueType type, uint32_t domain_size = 0);

  // The fixed-width topology columns as flat arrays: the layout of a
  // sealed segment's graph section.
  struct Columns {
    const label_t* vertex_labels;
    const vertex_id_t* edge_srcs;
    const vertex_id_t* edge_dsts;
    const label_t* edge_labels;
  };
  Columns columns() const {
    return {vertex_labels_.data(), edge_srcs_.data(), edge_dsts_.data(), edge_labels_.data()};
  }
  // Turns an empty graph, whose catalog is filled in, into a mapped graph
  // of `nv` vertices and `ne` edges served from `columns`, which must
  // outlive it and must hold only in-range labels and endpoints. Both
  // property stores are switched to views of `nv` / `ne` ids; their
  // columns come from PropertyStore::AttachColumn.
  void AttachMapped(const Columns& columns, uint64_t nv, uint64_t ne);
  bool mapped() const { return mapped_; }

  double average_degree() const {
    return num_vertices() == 0
               ? 0.0
               : static_cast<double>(num_edges()) / static_cast<double>(num_vertices());
  }

 private:
  Catalog catalog_;
  bool mapped_ = false;
  std::atomic<uint64_t> published_vertices_{0};
  std::atomic<uint64_t> published_edges_{0};
  bool ingest_reserved_ = false;
  uint64_t ingest_max_vertices_ = 0;  // hard insert caps while reserved
  uint64_t ingest_max_edges_ = 0;
  ColumnArray<label_t> vertex_labels_;
  ColumnArray<vertex_id_t> edge_srcs_;
  ColumnArray<vertex_id_t> edge_dsts_;
  ColumnArray<label_t> edge_labels_;
  PropertyStore vertex_props_;
  PropertyStore edge_props_;
};

}  // namespace aplus

#endif  // APLUS_STORAGE_GRAPH_H_
