#include "storage/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "util/logging.h"

namespace aplus {

namespace {

constexpr uint32_t kMagic = 0x41504c53;  // "APLS"
constexpr uint32_t kVersion = 1;

// Buffered little-endian writer: each field is a memcpy into a 64 KiB
// buffer that reaches the stream in large chunks (a snapshot is millions
// of 4-byte fields, too many for one virtual ostream::write each).
// Finish() drains the buffer and reports the stream state.
class Writer {
 public:
  explicit Writer(std::ostream* out) : out_(out), buf_(kBufferBytes) {}

  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void U8(uint8_t v) { Raw(&v, sizeof(v)); }

  void Str(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }

  bool Finish() {
    Drain();
    return out_->good();
  }

 private:
  static constexpr size_t kBufferBytes = 64 << 10;

  void Raw(const void* p, size_t n) {
    if (n > kBufferBytes - used_) {
      Drain();
      if (n >= kBufferBytes) {
        out_->write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
        return;
      }
    }
    std::memcpy(buf_.data() + used_, p, n);
    used_ += n;
  }

  void Drain() {
    out_->write(buf_.data(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

  std::ostream* out_;
  std::vector<char> buf_;
  size_t used_ = 0;
};

class Reader {
 public:
  explicit Reader(std::istream* in) : in_(in) {}

  uint32_t U32() { return Read<uint32_t>(); }
  uint64_t U64() { return Read<uint64_t>(); }
  int64_t I64() { return Read<int64_t>(); }
  double F64() { return Read<double>(); }
  uint8_t U8() { return Read<uint8_t>(); }

  std::string Str() {
    uint64_t n = U64();
    if (!Guard(n)) return "";
    std::string s(n, '\0');
    in_->read(s.data(), static_cast<std::streamsize>(n));
    return s;
  }

  template <typename T>
  std::vector<T> Vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = U64();
    if (!Guard(n * sizeof(T))) return {};
    std::vector<T> v(n);
    in_->read(reinterpret_cast<char*>(v.data()),
              static_cast<std::streamsize>(n * sizeof(T)));
    return v;
  }

  bool ok() const { return !failed_ && in_->good(); }
  void fail() { failed_ = true; }

 private:
  template <typename T>
  T Read() {
    T v{};
    in_->read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  }

  // Basic sanity bound against corrupted lengths (1 GiB).
  bool Guard(uint64_t bytes) {
    if (bytes > (1ULL << 30)) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::istream* in_;
  bool failed_ = false;
};

// Validates a serialized value-type tag before the enum cast. A
// corrupted tag would otherwise flow into switch statements as an
// out-of-range enum.
bool ValidTypeTag(uint8_t tag) { return tag <= static_cast<uint8_t>(ValueType::kCategory); }

void WriteColumn(Writer* w, const PropertyColumn& col, uint64_t n) {
  w->U8(static_cast<uint8_t>(col.type()));
  w->U32(col.domain_size());
  // Null mask + typed payload, element-wise via the generic accessor
  // (cold path; snapshots are not performance critical).
  for (uint64_t id = 0; id < n; ++id) {
    bool null = col.IsNull(id);
    w->U8(null ? 1 : 0);
    if (null) continue;
    switch (col.type()) {
      case ValueType::kInt64:
        w->I64(col.GetInt64(id));
        break;
      case ValueType::kBool:
        w->U8(col.GetBool(id) ? 1 : 0);
        break;
      case ValueType::kCategory:
        w->U32(col.GetCategoryOrNullSlot(id));
        break;
      case ValueType::kDouble:
        w->F64(col.GetDouble(id));
        break;
      case ValueType::kString:
        w->Str(col.GetString(id));
        break;
      case ValueType::kNull:
        break;
    }
  }
}

bool ReadColumn(Reader* r, PropertyColumn* col, uint64_t n) {
  uint8_t tag = r->U8();
  if (!ValidTypeTag(tag)) return false;
  ValueType type = static_cast<ValueType>(tag);
  uint32_t domain = r->U32();
  (void)domain;  // already registered through the catalog
  if (type != col->type()) return false;
  for (uint64_t id = 0; id < n && r->ok(); ++id) {
    bool null = r->U8() != 0;
    if (null) {
      col->SetNull(id);
      continue;
    }
    switch (type) {
      case ValueType::kInt64:
        col->SetInt64(id, r->I64());
        break;
      case ValueType::kBool:
        col->SetBool(id, r->U8() != 0);
        break;
      case ValueType::kCategory: {
        // Category codes feed partitioning levels as bucket indexes;
        // reject anything outside the registered domain.
        uint32_t code = r->U32();
        if (code >= col->domain_size()) return false;
        col->SetCategory(id, code);
        break;
      }
      case ValueType::kDouble:
        col->SetDouble(id, r->F64());
        break;
      case ValueType::kString:
        col->SetString(id, r->Str());
        break;
      case ValueType::kNull:
        return false;
    }
  }
  return r->ok();
}

}  // namespace

bool SaveGraphToStream(const Graph& graph, std::ostream& out) {
  Writer w(&out);
  w.U32(kMagic);
  w.U32(kVersion);

  // Catalog.
  const Catalog& catalog = graph.catalog();
  w.U32(catalog.num_vertex_labels());
  for (label_t l = 0; l < catalog.num_vertex_labels(); ++l) w.Str(catalog.VertexLabelName(l));
  w.U32(catalog.num_edge_labels());
  for (label_t l = 0; l < catalog.num_edge_labels(); ++l) w.Str(catalog.EdgeLabelName(l));
  w.U32(catalog.num_properties());
  for (prop_key_t k = 0; k < catalog.num_properties(); ++k) {
    const PropertyMeta& meta = catalog.property(k);
    w.Str(meta.name);
    w.U8(static_cast<uint8_t>(meta.type));
    w.U8(meta.target == PropTargetKind::kVertex ? 0 : 1);
    w.U32(meta.domain_size);
    w.U64(meta.category_names.size());
    for (const std::string& name : meta.category_names) w.Str(name);
  }

  // Topology.
  uint64_t nv = graph.num_vertices();
  uint64_t ne = graph.num_edges();
  w.U64(nv);
  w.U64(ne);
  for (vertex_id_t v = 0; v < nv; ++v) w.U32(graph.vertex_label(v));
  for (edge_id_t e = 0; e < ne; ++e) {
    w.U32(graph.edge_src(e));
    w.U32(graph.edge_dst(e));
    w.U32(graph.edge_label(e));
  }

  // Property columns (presence flag per catalog property).
  for (prop_key_t k = 0; k < catalog.num_properties(); ++k) {
    const PropertyMeta& meta = catalog.property(k);
    const PropertyStore& store =
        meta.target == PropTargetKind::kVertex ? graph.vertex_props() : graph.edge_props();
    const PropertyColumn* col = store.column(k);
    w.U8(col != nullptr ? 1 : 0);
    if (col != nullptr) {
      WriteColumn(&w, *col, meta.target == PropTargetKind::kVertex ? nv : ne);
    }
  }
  return w.Finish();
}

bool LoadGraphFromStream(std::istream& in, Graph* graph, const std::string& origin) {
  APLUS_CHECK_EQ(graph->num_vertices(), 0u) << "LoadGraphFromStream needs an empty graph";
  Reader r(&in);
  if (r.U32() != kMagic || !r.ok()) {
    APLUS_LOG(Error) << origin << ": bad magic";
    return false;
  }
  if (r.U32() != kVersion || !r.ok()) {
    APLUS_LOG(Error) << origin << ": unsupported snapshot version";
    return false;
  }

  Catalog& catalog = graph->catalog();
  uint32_t num_vlabels = r.U32();
  if (num_vlabels > 65000 || !r.ok()) return false;
  for (uint32_t i = 0; i < num_vlabels && r.ok(); ++i) catalog.AddVertexLabel(r.Str());
  uint32_t num_elabels = r.U32();
  if (num_elabels > 65000 || !r.ok()) return false;
  for (uint32_t i = 0; i < num_elabels && r.ok(); ++i) catalog.AddEdgeLabel(r.Str());
  uint32_t num_props = r.U32();
  if (num_props > 65000 || !r.ok()) return false;
  for (uint32_t i = 0; i < num_props && r.ok(); ++i) {
    std::string name = r.Str();
    uint8_t tag = r.U8();
    if (!ValidTypeTag(tag)) return false;
    ValueType type = static_cast<ValueType>(tag);
    PropTargetKind target = r.U8() == 0 ? PropTargetKind::kVertex : PropTargetKind::kEdge;
    uint32_t domain = r.U32();
    prop_key_t key = catalog.AddProperty(name, target, type, domain);
    uint64_t num_names = r.U64();
    if (num_names > domain) return false;
    for (uint64_t j = 0; j < num_names && r.ok(); ++j) {
      catalog.RegisterCategoryValue(key, r.Str());
    }
  }

  uint64_t nv = r.U64();
  uint64_t ne = r.U64();
  if (!r.ok() || nv > (1ULL << 32) || ne > (1ULL << 40)) return false;
  for (uint64_t v = 0; v < nv && r.ok(); ++v) {
    uint32_t label = r.U32();
    if (label >= num_vlabels) return false;
    graph->AddVertex(static_cast<label_t>(label));
  }
  for (uint64_t e = 0; e < ne && r.ok(); ++e) {
    vertex_id_t src = r.U32();
    vertex_id_t dst = r.U32();
    uint32_t label = r.U32();
    if (src >= nv || dst >= nv || label >= num_elabels) return false;
    graph->AddEdge(src, dst, static_cast<label_t>(label));
  }

  for (prop_key_t k = 0; k < catalog.num_properties() && r.ok(); ++k) {
    bool present = r.U8() != 0;
    if (!present) continue;
    const PropertyMeta& meta = catalog.property(k);
    PropertyStore& store =
        meta.target == PropTargetKind::kVertex ? graph->vertex_props() : graph->edge_props();
    PropertyColumn* col = store.AddColumn(catalog, k);
    if (!ReadColumn(&r, col, meta.target == PropTargetKind::kVertex ? nv : ne)) return false;
  }
  return r.ok();
}

bool SaveGraph(const Graph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    APLUS_LOG(Error) << "cannot open " << path << " for writing";
    return false;
  }
  return SaveGraphToStream(graph, out);
}

bool LoadGraph(const std::string& path, Graph* graph) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    APLUS_LOG(Error) << "cannot open " << path;
    return false;
  }
  return LoadGraphFromStream(in, graph, path);
}

}  // namespace aplus
