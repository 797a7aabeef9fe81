#include "storage/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "index/index_store.h"
#include "storage/codec.h"
#include "util/bit_util.h"
#include "util/crc32c.h"
#include "util/fault.h"
#include "util/logging.h"

namespace aplus {

namespace {

// One page's location inside the file. `csr_off` points at the
// partition-level CSR (u32[csr_len]); `data_off` points at the adjacency
// payload: packed pages hold a codec stream of `data_size` bytes, raw
// pages hold u32 nbrs[num_entries], zero padding to an 8-byte boundary,
// then u64 eids[num_entries].
struct PageRecord {
  uint64_t csr_off;
  uint64_t data_off;
  uint64_t data_size;
  uint32_t csr_len;
  uint32_t num_entries;
  uint32_t flags;  // bit 0: packed
  uint32_t reserved;
};
static_assert(sizeof(PageRecord) == 40);

constexpr uint32_t kPageFlagPacked = 1u;

// Bytes a raw page's adjacency payload occupies.
uint64_t RawDataBytes(uint32_t num_entries) {
  return RoundUp(uint64_t{num_entries} * sizeof(vertex_id_t), 8) +
         uint64_t{num_entries} * sizeof(edge_id_t);
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// ---------------------------------------------------------------------
// Seal side
// ---------------------------------------------------------------------

// Auto-mode packing threshold: a page packs only when its largest owner
// list is at most this long, so hub pages keep flat arrays for the SIMD
// frontier kernels.
constexpr uint32_t kAutoPackMaxDegree = 128;

// Forward-only, buffered writer over a temporary file beside the sealed
// path. Sections are checksummed as their bytes pass through the buffer.
//
// Every write(2) but the last hands the kernel one full, aligned 2 MiB
// buffer, so the page cache holds the file in 2 MiB folios that a
// reader's mapping maps with huge-page entries. Probes over a file far
// beyond the TLB reach pay for smaller folios: with 64 KiB writes,
// segment_cold's p50 rose about 6% on a 4-core x86-64 VM (ext4,
// Linux 6.18).
//
// The first failed write is sticky: later writes are dropped and Publish
// reports it. Unless Publish renamed the file, the destructor unlinks
// it, so a failed seal leaves `path` untouched.
class SealFile {
 public:
  static constexpr size_t kBufferBytes = 2 << 20;

  SealFile() : buffer_(kBufferBytes) {}
  SealFile(const SealFile&) = delete;
  SealFile& operator=(const SealFile&) = delete;
  ~SealFile() {
    if (fd_ >= 0) close(fd_);
    if (!published_ && !temp_path_.empty()) unlink(temp_path_.c_str());
  }

  // Creates `path`.XXXXXX on the same filesystem as `path`, with the
  // permissions a plain create of `path` would get: 0666 less the umask
  // (mkstemp itself uses 0600).
  bool Create(const std::string& path, std::string* error) {
    std::string pattern = path + ".XXXXXX";
    fd_ = mkstemp(pattern.data());
    if (fd_ < 0) return Fail(error, SysError("cannot create a temporary file beside " + path));
    temp_path_ = pattern;
    mode_t mask = umask(0);
    umask(mask);
    if (fchmod(fd_, 0666 & ~mask) != 0) return Fail(error, SysError("cannot chmod " + temp_path_));
    return true;
  }

  // Bytes written so far: the absolute file offset of the next write.
  uint64_t offset() const { return flushed_ + used_; }

  void Write(const void* p, size_t n) {
    const char* src = static_cast<const char*>(p);
    while (n > 0) {
      if (used_ == buffer_.size() && !Drain()) return;
      const size_t k = std::min(n, buffer_.size() - used_);
      char* dst = buffer_.data() + used_;
      std::memcpy(dst, src, k);
      crc_ = Crc32c(dst, k, crc_);
      used_ += k;
      src += k;
      n -= k;
    }
  }
  template <typename T>
  void Put(T v) {
    Write(&v, sizeof(v));
  }
  void PutString(const std::string& s) {
    Put(static_cast<uint32_t>(s.size()));
    Write(s.data(), s.size());
  }

  // Zero-pads to the next 8-byte boundary and returns the new offset.
  uint64_t Align8() {
    static constexpr char kZeros[8] = {};
    Write(kZeros, RoundUp(offset(), 8) - offset());
    return offset();
  }
  // One graph column: `n` bytes from the next 8-byte boundary.
  void WriteColumn(const void* p, size_t n) {
    Align8();
    Write(p, n);
  }

  // Brackets section `s`: it starts 8-byte aligned, and its end is padded
  // to a multiple of 8 bytes before its size and CRC32C go in `header`.
  void BeginSection(int s, SegmentHeader* header) {
    header->section_off[s] = Align8();
    crc_ = 0;
  }
  void EndSection(int s, SegmentHeader* header) {
    header->section_size[s] = Align8() - header->section_off[s];
    header->section_crc[s] = crc_;
  }

  // Drains the buffer, checksums `header` and patches it in at offset 0,
  // fsyncs and closes the file, renames it over `path` and fsyncs the
  // directory.
  bool Publish(SegmentHeader* header, const std::string& path, std::string* error) {
    header->header_crc = Crc32c(header, offsetof(SegmentHeader, header_crc));
    if (Drain() && CheckedWrite(header, sizeof(*header), 0)) {
      if (!Fsync(fd_)) Record(errno);
      int fd = fd_;
      fd_ = -1;
      if (close(fd) != 0) Record(errno);
    }
    if (errno_ != 0) {
      errno = errno_;
      return Fail(error, SysError("cannot write " + temp_path_));
    }
    if (!Rename(temp_path_, path)) {
      return Fail(error, SysError("cannot rename " + temp_path_ + " over " + path));
    }
    published_ = true;
    const size_t slash = path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : slash == 0 ? "/" : path.substr(0, slash);
    int dir_fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd < 0 || !Fsync(dir_fd)) {
      const int err = errno;
      if (dir_fd >= 0) close(dir_fd);
      errno = err;
      return Fail(error, SysError("cannot fsync directory " + dir));
    }
    close(dir_fd);
    return true;
  }

 private:
  // fsync(2), failed with EIO by the seal_fsync fault point.
  static bool Fsync(int fd) {
    if (fault::ShouldFail(fault::kSealFsync)) {
      errno = EIO;
      return false;
    }
    return fsync(fd) == 0;
  }
  // rename(2), failed with EIO by the seal_rename fault point.
  static bool Rename(const std::string& from, const std::string& to) {
    if (fault::ShouldFail(fault::kSealRename)) {
      errno = EIO;
      return false;
    }
    return rename(from.c_str(), to.c_str()) == 0;
  }

  static std::string SysError(const std::string& what) {
    return "seal: " + what + ": " + std::strerror(errno);
  }

  void Record(int err) {
    if (errno_ == 0) errno_ = err;
  }

  bool Drain() {
    if (used_ != 0 && !CheckedWrite(buffer_.data(), used_, -1)) return false;
    flushed_ += used_;
    used_ = 0;
    return true;
  }

  // Writes the whole range with write(2), or pwrite(2) at `at` >= 0,
  // retrying short writes and EINTR. The seal_write fault point is
  // checked before every call.
  bool CheckedWrite(const void* p, size_t n, off_t at) {
    if (errno_ != 0) return false;
    const char* src = static_cast<const char*>(p);
    while (n > 0) {
      if (fault::ShouldFail(fault::kSealWrite)) {
        Record(EIO);
        return false;
      }
      ssize_t w = at >= 0 ? pwrite(fd_, src, n, at) : write(fd_, src, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        Record(errno);
        return false;
      }
      src += w;
      n -= static_cast<size_t>(w);
      if (at >= 0) at += w;
    }
    return true;
  }

  std::vector<char> buffer_;
  size_t used_ = 0;
  uint64_t flushed_ = 0;
  uint32_t crc_ = 0;
  int fd_ = -1;
  int errno_ = 0;
  std::string temp_path_;
  bool published_ = false;
};

// Writes the graph section: counts, catalog, dictionaries, then the
// fixed-width columns (see the layout in segment.h).
void SealGraph(const Graph& graph, SealFile* file) {
  const Catalog& catalog = graph.catalog();
  const uint64_t nv = graph.num_vertices();
  const uint64_t ne = graph.num_edges();
  file->Put(nv);
  file->Put(ne);
  file->Put(catalog.num_vertex_labels());
  for (label_t l = 0; l < catalog.num_vertex_labels(); ++l) {
    file->PutString(catalog.VertexLabelName(l));
  }
  file->Put(catalog.num_edge_labels());
  for (label_t l = 0; l < catalog.num_edge_labels(); ++l) {
    file->PutString(catalog.EdgeLabelName(l));
  }
  file->Put(catalog.num_properties());
  for (prop_key_t k = 0; k < catalog.num_properties(); ++k) {
    const PropertyMeta& meta = catalog.property(k);
    file->PutString(meta.name);
    file->Put(static_cast<uint8_t>(meta.type));
    file->Put(static_cast<uint8_t>(meta.target));
    file->Put(meta.domain_size);
    file->Put(static_cast<uint32_t>(meta.category_names.size()));
    for (const std::string& name : meta.category_names) file->PutString(name);
  }
  auto column_of = [&graph](const PropertyMeta& meta, prop_key_t k) {
    return (meta.target == PropTargetKind::kVertex ? graph.vertex_props() : graph.edge_props())
        .column(k);
  };
  for (prop_key_t k = 0; k < catalog.num_properties(); ++k) {
    const PropertyColumn* col = column_of(catalog.property(k), k);
    file->Put(static_cast<uint8_t>(col != nullptr));
    if (col == nullptr || col->type() != ValueType::kString) continue;
    file->Put(static_cast<uint32_t>(col->dictionary().size()));
    for (const std::string& s : col->dictionary()) file->PutString(s);
  }

  const Graph::Columns cols = graph.columns();
  file->WriteColumn(cols.vertex_labels, nv * sizeof(label_t));
  file->WriteColumn(cols.edge_srcs, ne * sizeof(vertex_id_t));
  file->WriteColumn(cols.edge_dsts, ne * sizeof(vertex_id_t));
  file->WriteColumn(cols.edge_labels, ne * sizeof(label_t));
  for (prop_key_t k = 0; k < catalog.num_properties(); ++k) {
    const PropertyMeta& meta = catalog.property(k);
    const PropertyColumn* col = column_of(meta, k);
    if (col == nullptr) continue;
    const uint64_t n = meta.target == PropTargetKind::kVertex ? nv : ne;
    file->WriteColumn(col->null_data(), n);
    file->WriteColumn(col->payload_data(), n * PropertyColumn::PayloadWidth(col->type()));
  }
}

uint32_t MaxOwnerDegree(const IdListPage& page, uint32_t fanout_product) {
  uint32_t max_deg = 0;
  for (uint32_t o = 0; o < kGroupSize; ++o) {
    uint32_t begin = page.csr[o * fanout_product];
    uint32_t end = page.csr[(o + 1) * fanout_product];
    if (end - begin > max_deg) max_deg = end - begin;
  }
  return max_deg;
}

// Streams one direction's index section into `file` (data arena first,
// then the metadata) and returns the metadata's offset. Packed pages are
// encoded into `scratch`, reused across pages.
uint64_t SealIndex(const PrimaryIndex& index, CompressMode mode, SealFile* file,
                   std::vector<uint8_t>* scratch, SegmentStats* stats) {
  const uint32_t num_pages = index.num_pages();
  std::vector<PageRecord> records(num_pages);
  for (uint32_t p = 0; p < num_pages; ++p) {
    const IdListPage& page = index.page(p);
    PageRecord& rec = records[p];
    rec.csr_len = page.csr_len;
    rec.num_entries = page.num_entries;
    rec.csr_off = file->Align8();
    file->Write(page.csr, uint64_t{page.csr_len} * sizeof(uint32_t));
    stats->csr_bytes += uint64_t{page.csr_len} * sizeof(uint32_t);

    bool pack = mode == CompressMode::kOn ||
                (mode == CompressMode::kAuto &&
                 MaxOwnerDegree(page, index.fanout_product()) <= kAutoPackMaxDegree);
    rec.data_off = file->Align8();
    if (pack) {
      scratch->clear();
      rec.flags = kPageFlagPacked;
      rec.data_size = codec::PackAdjacency(page.nbrs, page.eids, page.num_entries, scratch);
      file->Write(scratch->data(), scratch->size());
      stats->packed_pages += 1;
      stats->packed_adj_bytes += rec.data_size;
      stats->packed_adj_unpacked_bytes += RawDataBytes(page.num_entries);
    } else {
      rec.flags = 0;
      file->Write(page.nbrs, uint64_t{page.num_entries} * sizeof(vertex_id_t));
      file->Align8();
      file->Write(page.eids, uint64_t{page.num_entries} * sizeof(edge_id_t));
      rec.data_size = RawDataBytes(page.num_entries);
      stats->raw_pages += 1;
      stats->raw_adj_bytes += rec.data_size;
    }
  }

  const IndexConfig& config = index.config();
  uint64_t meta_off = file->Align8();
  uint32_t counts[2] = {static_cast<uint32_t>(config.partitions.size()),
                        static_cast<uint32_t>(config.sorts.size())};
  file->Write(counts, sizeof(counts));
  for (const PartitionCriterion& c : config.partitions) {
    uint32_t crit[2] = {static_cast<uint32_t>(c.source), c.key};
    file->Write(crit, sizeof(crit));
  }
  for (const SortCriterion& c : config.sorts) {
    uint32_t crit[2] = {static_cast<uint32_t>(c.source), c.key};
    file->Write(crit, sizeof(crit));
  }
  uint64_t edge_page_counts[2] = {index.num_edges_indexed(), num_pages};
  file->Write(edge_page_counts, sizeof(edge_page_counts));
  file->Write(records.data(), records.size() * sizeof(PageRecord));
  return meta_off;
}

// ---------------------------------------------------------------------
// Open side
// ---------------------------------------------------------------------

// Bounds-checked cursor over one section (or its metadata).
class SectionReader {
 public:
  SectionReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU8(uint8_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadRaw(void* out, size_t n) {
    if (n > size_ - pos_) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool ReadString(std::string* s) {
    uint32_t n = 0;
    if (!ReadU32(&n) || n > size_ - pos_) return false;
    s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }
  // The next `n` elements, 8-byte aligned, in place; null when they run
  // past the end. `n` must be at most the section size (no overflow).
  template <typename T>
  const T* TakeColumn(uint64_t n) {
    const size_t at = RoundUp(pos_, 8);
    if (at > size_ || n * sizeof(T) > size_ - at) return nullptr;
    pos_ = at + n * sizeof(T);
    return reinterpret_cast<const T*>(data_ + at);
  }
  // True once the cursor is at the end, up to the zero padding that ends
  // every section on an 8-byte boundary.
  bool exhausted() const { return RoundUp(pos_, 8) == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Reads the catalog of a graph section. Names must be unique, so every
// label and property keeps the id of its position in the file; anything
// Catalog or PropertyColumn would abort on is rejected.
bool LoadCatalog(SectionReader* r, Catalog* catalog) {
  uint32_t n = 0;
  std::string name;
  if (!r->ReadU32(&n) || n >= kInvalidLabel) return false;
  for (uint32_t i = 0; i < n; ++i) {
    if (!r->ReadString(&name) || catalog->AddVertexLabel(name) != i) return false;
  }
  if (!r->ReadU32(&n) || n >= kInvalidLabel) return false;
  for (uint32_t i = 0; i < n; ++i) {
    if (!r->ReadString(&name) || catalog->AddEdgeLabel(name) != i) return false;
  }
  if (!r->ReadU32(&n) || n >= kInvalidPropKey) return false;
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t type = 0;
    uint8_t target = 0;
    uint32_t domain = 0;
    uint32_t num_names = 0;
    if (!r->ReadString(&name) || !r->ReadU8(&type) || !r->ReadU8(&target) ||
        !r->ReadU32(&domain) || !r->ReadU32(&num_names)) {
      return false;
    }
    const bool category = type == static_cast<uint8_t>(ValueType::kCategory);
    const bool typed = type != static_cast<uint8_t>(ValueType::kNull) &&
                       type <= static_cast<uint8_t>(ValueType::kCategory);
    if (!typed || target > static_cast<uint8_t>(PropTargetKind::kEdge) ||
        (category ? domain == 0 : num_names != 0) || num_names > domain) {
      return false;
    }
    const PropTargetKind kind = static_cast<PropTargetKind>(target);
    if (catalog->FindProperty(name, kind) != kInvalidPropKey) return false;
    prop_key_t key = catalog->AddProperty(name, kind, static_cast<ValueType>(type), domain);
    for (uint32_t j = 0; j < num_names; ++j) {
      if (!r->ReadString(&name) || catalog->RegisterCategoryValue(key, name) != j) return false;
    }
  }
  return true;
}

// True when every one of the `n` values is below `bound`. Branch-free,
// so the loop vectorizes.
template <typename T>
bool AllBelow(const T* values, uint64_t n, uint64_t bound) {
  if (bound > std::numeric_limits<T>::max()) return true;
  const T limit = static_cast<T>(bound);
  bool bad = false;
  for (uint64_t i = 0; i < n; ++i) bad |= values[i] >= limit;
  return !bad;
}

// The codes of a sealed property column that reads would use as indexes:
// a non-null category code must lie in the domain, and a string code in
// the dictionary (a null string slot may hold 0 with no dictionary).
bool ValidCodes(const PropertyMeta& meta, const uint8_t* nulls, const void* payload, uint64_t n,
                size_t dict_size) {
  bool bad = false;
  if (meta.type == ValueType::kCategory) {
    const int64_t* codes = static_cast<const int64_t*>(payload);
    for (uint64_t i = 0; i < n; ++i) {
      bad |= nulls[i] == 0 && static_cast<uint64_t>(codes[i]) >= meta.domain_size;
    }
  } else if (meta.type == ValueType::kString) {
    const uint32_t* codes = static_cast<const uint32_t*>(payload);
    for (uint64_t i = 0; i < n; ++i) {
      bad |= codes[i] >= dict_size && (nulls[i] == 0 || codes[i] != 0);
    }
  }
  return !bad;
}

// Attaches `graph` (empty) to a checksummed graph section in place,
// after validating every label, endpoint and code it serves.
bool LoadGraphSection(const uint8_t* data, uint64_t size, Graph* graph, std::string* error) {
  SectionReader r(data, size);
  uint64_t nv = 0;
  uint64_t ne = 0;
  if (!r.ReadU64(&nv) || !r.ReadU64(&ne) || nv > size || nv >= kInvalidVertex || ne > size) {
    return Fail(error, "segment: corrupt graph counts");
  }
  Catalog& catalog = graph->catalog();
  if (!LoadCatalog(&r, &catalog)) return Fail(error, "segment: corrupt catalog");
  const prop_key_t num_props = static_cast<prop_key_t>(catalog.num_properties());
  std::vector<uint8_t> present(num_props);
  std::vector<std::vector<std::string>> dicts(num_props);
  for (prop_key_t k = 0; k < num_props; ++k) {
    if (!r.ReadU8(&present[k]) || present[k] > 1) {
      return Fail(error, "segment: corrupt property column table");
    }
    if (present[k] == 0 || catalog.property(k).type != ValueType::kString) continue;
    uint32_t dict_size = 0;
    bool ok = r.ReadU32(&dict_size);
    for (uint32_t i = 0; ok && i < dict_size; ++i) ok = r.ReadString(&dicts[k].emplace_back());
    if (!ok) return Fail(error, "segment: corrupt string dictionary");
  }

  // Braced initializers run in order: the columns follow each other.
  const Graph::Columns cols = {r.TakeColumn<label_t>(nv), r.TakeColumn<vertex_id_t>(ne),
                               r.TakeColumn<vertex_id_t>(ne), r.TakeColumn<label_t>(ne)};
  if (cols.vertex_labels == nullptr || cols.edge_srcs == nullptr || cols.edge_dsts == nullptr ||
      cols.edge_labels == nullptr) {
    return Fail(error, "segment: graph columns out of bounds");
  }
  if (!AllBelow(cols.vertex_labels, nv, catalog.num_vertex_labels()) ||
      !AllBelow(cols.edge_labels, ne, catalog.num_edge_labels())) {
    return Fail(error, "segment: graph column holds an invalid label");
  }
  if (!AllBelow(cols.edge_srcs, ne, nv) || !AllBelow(cols.edge_dsts, ne, nv)) {
    return Fail(error, "segment: graph column holds an invalid endpoint");
  }
  graph->AttachMapped(cols, nv, ne);

  for (prop_key_t k = 0; k < num_props; ++k) {
    if (present[k] == 0) continue;
    const PropertyMeta& meta = catalog.property(k);
    const bool vertex = meta.target == PropTargetKind::kVertex;
    const uint64_t n = vertex ? nv : ne;
    const uint8_t* nulls = r.TakeColumn<uint8_t>(n);
    const void* payload = PropertyColumn::PayloadWidth(meta.type) == 4
                              ? static_cast<const void*>(r.TakeColumn<uint32_t>(n))
                              : static_cast<const void*>(r.TakeColumn<uint64_t>(n));
    if (nulls == nullptr || payload == nullptr) {
      return Fail(error, "segment: property column out of bounds");
    }
    if (!ValidCodes(meta, nulls, payload, n, dicts[k].size())) {
      return Fail(error, "segment: property column holds an invalid code");
    }
    (vertex ? graph->vertex_props() : graph->edge_props())
        .AttachColumn(catalog, k, nulls, payload, std::move(dicts[k]));
  }
  if (!r.exhausted()) return Fail(error, "segment: trailing bytes in the graph section");
  return true;
}

// Validates one criterion key against the catalog so PartitionFanout /
// sort-key evaluation never index out of range (both would abort on a
// corrupted file otherwise).
bool ValidPropKey(const Catalog& catalog, uint32_t key, bool must_be_category) {
  if (key >= catalog.num_properties()) return false;
  return !must_be_category ||
         catalog.property(static_cast<prop_key_t>(key)).type == ValueType::kCategory;
}

bool ParseConfig(SectionReader* r, const Catalog& catalog, IndexConfig* config,
                 std::string* error) {
  uint32_t num_partitions = 0;
  uint32_t num_sorts = 0;
  if (!r->ReadU32(&num_partitions) || !r->ReadU32(&num_sorts) || num_partitions > 16 ||
      num_sorts > 16) {
    return Fail(error, "segment: corrupt index config counts");
  }
  for (uint32_t i = 0; i < num_partitions; ++i) {
    uint32_t source = 0;
    uint32_t key = 0;
    if (!r->ReadU32(&source) || !r->ReadU32(&key) ||
        source > static_cast<uint32_t>(PartitionSource::kNbrProp)) {
      return Fail(error, "segment: corrupt partition criterion");
    }
    PartitionCriterion c;
    c.source = static_cast<PartitionSource>(source);
    c.key = static_cast<prop_key_t>(key);
    bool needs_key =
        c.source == PartitionSource::kEdgeProp || c.source == PartitionSource::kNbrProp;
    if (needs_key && !ValidPropKey(catalog, key, /*must_be_category=*/true)) {
      return Fail(error, "segment: partition criterion references an invalid property");
    }
    config->partitions.push_back(c);
  }
  for (uint32_t i = 0; i < num_sorts; ++i) {
    uint32_t source = 0;
    uint32_t key = 0;
    if (!r->ReadU32(&source) || !r->ReadU32(&key) ||
        source > static_cast<uint32_t>(SortSource::kNbrProp)) {
      return Fail(error, "segment: corrupt sort criterion");
    }
    SortCriterion c;
    c.source = static_cast<SortSource>(source);
    c.key = static_cast<prop_key_t>(key);
    bool needs_key = c.source == SortSource::kEdgeProp || c.source == SortSource::kNbrProp;
    if (needs_key && !ValidPropKey(catalog, key, /*must_be_category=*/false)) {
      return Fail(error, "segment: sort criterion references an invalid property");
    }
    config->sorts.push_back(c);
  }
  return true;
}

// A range [off, off + len) that must land inside [lo, hi), with
// overflow-safe arithmetic.
bool RangeOk(uint64_t off, uint64_t len, uint64_t lo, uint64_t hi) {
  return off >= lo && off <= hi && len <= hi - off;
}

bool ValidateCsr(const uint32_t* csr, uint32_t csr_len, uint32_t num_entries) {
  if (csr[0] != 0 || csr[csr_len - 1] != num_entries) return false;
  for (uint32_t i = 1; i < csr_len; ++i) {
    if (csr[i] < csr[i - 1]) return false;
  }
  return true;
}

// Queries index graph columns by adjacency IDs, so a raw page holding a
// neighbour >= nv or an edge ID >= ne fails open, not a probe (packed
// pages get the same check in codec::ValidatePacked).
bool RawIdsInRange(const IdListPage& page, uint64_t nv, uint64_t ne) {
  for (uint32_t i = 0; i < page.num_entries; ++i) {
    if (page.nbrs[i] >= nv || page.eids[i] >= ne) return false;
  }
  return true;
}

constexpr const char* kInvalidIdError =
    "segment: adjacency entry references an invalid vertex or edge";

// Parses one index section of the file: its data arena is
// [arena_off, meta_off), its metadata [meta_off, end).
bool ParseIndexPart(const uint8_t* base, uint64_t arena_off, uint64_t meta_off, uint64_t end,
                    const Graph& graph, SegmentIndexPart* part, SegmentStats* stats,
                    std::string* error) {
  SectionReader r(base + meta_off, end - meta_off);
  if (!ParseConfig(&r, graph.catalog(), &part->config, error)) return false;

  uint64_t num_pages = 0;
  if (!r.ReadU64(&part->num_edges) || !r.ReadU64(&num_pages)) {
    return Fail(error, "segment: truncated index metadata");
  }
  const uint64_t nv = graph.num_vertices();
  const uint64_t ne = graph.num_edges();
  if (part->num_edges != ne) return Fail(error, "segment: index edge count mismatch");
  if (num_pages != (nv + kGroupSize - 1) / kGroupSize) {
    return Fail(error, "segment: index page count mismatch");
  }

  PartitionLevels levels;
  std::string fanout_error;
  if (!ResolveFanouts(graph.catalog(), part->config.partitions, &levels, &fanout_error)) {
    return Fail(error, "segment: " + fanout_error);
  }
  const uint32_t expected_csr_len = kGroupSize * levels.product() + 1;

  uint64_t total_entries = 0;
  part->pages.reserve(num_pages);
  for (uint64_t p = 0; p < num_pages; ++p) {
    PageRecord rec;
    if (!r.ReadRaw(&rec, sizeof(rec))) return Fail(error, "segment: truncated page records");
    if (rec.csr_len != expected_csr_len || (rec.flags & ~kPageFlagPacked) != 0 ||
        rec.csr_off % alignof(uint32_t) != 0 || rec.data_off % 8 != 0) {
      return Fail(error, "segment: malformed page record");
    }
    if (!RangeOk(rec.csr_off, uint64_t{rec.csr_len} * sizeof(uint32_t), arena_off, meta_off) ||
        !RangeOk(rec.data_off, rec.data_size, arena_off, meta_off)) {
      return Fail(error, "segment: page data out of bounds");
    }
    auto page = std::make_unique<IdListPage>();
    page->csr = reinterpret_cast<const uint32_t*>(base + rec.csr_off);
    page->csr_len = rec.csr_len;
    page->num_entries = rec.num_entries;
    if (!ValidateCsr(page->csr, page->csr_len, page->num_entries)) {
      return Fail(error, "segment: non-monotone page CSR");
    }
    if ((rec.flags & kPageFlagPacked) != 0) {
      size_t stream_bytes = 0;
      const codec::PackedCheck check =
          codec::ValidatePacked(base + rec.data_off, rec.data_size, nv, ne, &stream_bytes);
      if (check == codec::PackedCheck::kIdOutOfRange) return Fail(error, kInvalidIdError);
      if (check != codec::PackedCheck::kOk || stream_bytes != rec.data_size ||
          codec::PackedNumEntries(base + rec.data_off) != rec.num_entries) {
        return Fail(error, "segment: malformed packed adjacency stream");
      }
      page->packed = base + rec.data_off;
      stats->packed_pages += 1;
      stats->packed_adj_bytes += rec.data_size;
      stats->packed_adj_unpacked_bytes += RawDataBytes(rec.num_entries);
    } else {
      if (rec.data_size != RawDataBytes(rec.num_entries)) {
        return Fail(error, "segment: raw page size mismatch");
      }
      page->nbrs = reinterpret_cast<const vertex_id_t*>(base + rec.data_off);
      page->eids = reinterpret_cast<const edge_id_t*>(
          base + rec.data_off + RoundUp(uint64_t{rec.num_entries} * sizeof(vertex_id_t), 8));
      if (!RawIdsInRange(*page, nv, ne)) return Fail(error, kInvalidIdError);
      stats->raw_pages += 1;
      stats->raw_adj_bytes += rec.data_size;
    }
    stats->csr_bytes += uint64_t{rec.csr_len} * sizeof(uint32_t);
    total_entries += rec.num_entries;
    part->pages.push_back(std::move(page));
  }
  if (!r.exhausted()) return Fail(error, "segment: trailing bytes in index metadata");
  if (total_entries != part->num_edges) {
    return Fail(error, "segment: page entry counts do not sum to the edge count");
  }
  return true;
}

}  // namespace

Segment::~Segment() {
  if (base_ != nullptr) munmap(base_, map_size_);
}

bool SealSegment(const Graph& graph, const IndexStore& store, const std::string& path,
                 CompressMode mode, std::string* error) {
  for (Direction dir : {Direction::kFwd, Direction::kBwd}) {
    const PrimaryIndex* index = store.primary(dir);
    if (index->num_pages() != (graph.num_vertices() + kGroupSize - 1) / kGroupSize ||
        index->num_edges_indexed() != graph.num_edges()) {
      return Fail(error, "seal: primary indexes are not built over the full graph");
    }
    if (index->HasPendingUpdates()) {
      return Fail(error, "seal: primary index has pending updates; flush first");
    }
  }

  SealFile file;
  if (!file.Create(path, error)) return false;
  SegmentHeader header{};
  file.Write(&header, sizeof(header));  // placeholder, patched by Publish

  // A failed write is sticky in `file`, and Publish reports it.
  file.BeginSection(kGraphSection, &header);
  SealGraph(graph, &file);
  file.EndSection(kGraphSection, &header);

  SegmentStats stats;
  std::vector<uint8_t> scratch;
  for (int d = 0; d < 2; ++d) {
    Direction dir = d == 0 ? Direction::kFwd : Direction::kBwd;
    file.BeginSection(kFwdIndexSection + d, &header);
    header.index_meta_off[d] = SealIndex(*store.primary(dir), mode, &file, &scratch, &stats);
    file.EndSection(kFwdIndexSection + d, &header);
  }

  header.magic = kSegmentMagic;
  header.version = kSegmentVersion;
  header.file_size = file.offset();
  if (!file.Publish(&header, path, error)) return false;
  APLUS_LOG(Info) << "sealed " << path << ": " << header.file_size << " bytes, "
                  << stats.packed_pages << " packed / " << stats.raw_pages << " raw pages";
  return true;
}

std::unique_ptr<Segment> OpenSegment(const std::string& path, std::string* error) {
  auto fail = [error](const std::string& message) -> std::unique_ptr<Segment> {
    if (error != nullptr) *error = message;
    return nullptr;
  };

  int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return fail("segment: cannot open " + path);
  struct stat st;
  if (fstat(fd, &st) != 0 || st.st_size < 0) {
    close(fd);
    return fail("segment: cannot stat " + path);
  }
  size_t size = static_cast<size_t>(st.st_size);
  if (size < sizeof(SegmentHeader)) {
    close(fd);
    return fail("segment: file shorter than the header");
  }
  void* base = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  close(fd);
  if (base == MAP_FAILED) return fail("segment: mmap failed for " + path);

  std::unique_ptr<Segment> seg(new Segment());
  seg->base_ = base;
  seg->map_size_ = size;
  seg->path_ = path;
  const uint8_t* bytes = static_cast<const uint8_t*>(base);

  SegmentHeader header;
  std::memcpy(&header, bytes, sizeof(header));
  if (header.magic != kSegmentMagic) return fail("segment: bad magic in " + path);
  if (header.version != kSegmentVersion) {
    return fail("segment: unsupported segment version " + std::to_string(header.version) +
                " (this build reads version " + std::to_string(kSegmentVersion) + ")");
  }
  if (Crc32c(&header, offsetof(SegmentHeader, header_crc)) != header.header_crc) {
    return fail("segment: header checksum mismatch");
  }
  if (header.file_size != size) return fail("segment: truncated file (size mismatch)");
  // The sections tile the file after the header, each a multiple of 8
  // bytes, so every byte past the header is under a section checksum.
  uint64_t end = sizeof(SegmentHeader);
  for (int s = 0; s < kNumSegmentSections; ++s) {
    if (header.section_off[s] != end || header.section_size[s] % 8 != 0 ||
        header.section_size[s] > size - end) {
      return fail("segment: section out of bounds");
    }
    end += header.section_size[s];
  }
  if (end != size) return fail("segment: section out of bounds");
  for (int d = 0; d < 2; ++d) {
    const int s = kFwdIndexSection + d;
    if (header.index_meta_off[d] % 8 != 0 ||
        !RangeOk(header.index_meta_off[d], 0, header.section_off[s],
                 header.section_off[s] + header.section_size[s])) {
      return fail("segment: index metadata out of bounds");
    }
  }

  madvise(base, size, MADV_RANDOM);  // advisory; failure is harmless
  static const char* const kSectionNames[] = {"graph", "FW index", "BW index"};
  for (int s = 0; s < kNumSegmentSections; ++s) {
    if (Crc32c(bytes + header.section_off[s], header.section_size[s]) != header.section_crc[s]) {
      return fail(std::string("segment: checksum mismatch in the ") + kSectionNames[s] +
                  " section");
    }
  }

  std::string section_error;
  if (!LoadGraphSection(bytes + header.section_off[kGraphSection],
                        header.section_size[kGraphSection], &seg->graph_, &section_error)) {
    return fail(section_error);
  }
  seg->stats_.file_bytes = size;
  for (int d = 0; d < 2; ++d) {
    const int s = kFwdIndexSection + d;
    if (!ParseIndexPart(bytes, header.section_off[s], header.index_meta_off[d],
                        header.section_off[s] + header.section_size[s], seg->graph_,
                        &seg->parts_[d], &seg->stats_, &section_error)) {
      return fail(section_error);
    }
  }
  return seg;
}

}  // namespace aplus
