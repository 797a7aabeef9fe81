#include "storage/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <utility>

#include "index/index_store.h"
#include "storage/codec.h"
#include "storage/serialize.h"
#include "util/bit_util.h"
#include "util/fault.h"
#include "util/logging.h"

namespace aplus {

namespace {

constexpr uint32_t kSegMagic = 0x47535041;  // "APSG"
constexpr uint32_t kSegVersion = 1;

// Fixed file header. All offsets are absolute file offsets; sections
// never overlap and every section starts 8-byte aligned.
struct SegmentHeader {
  uint32_t magic;
  uint32_t version;
  uint64_t file_size;
  uint64_t graph_off;
  uint64_t graph_size;
  uint64_t index_off[2];  // [0] = FW metadata, [1] = BW metadata
  uint64_t index_size[2];
};
static_assert(sizeof(SegmentHeader) == 64);

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

enum class CompressMode { kAuto, kOn, kOff };

CompressMode CompressModeFromEnv() {
  const char* env = std::getenv("APLUS_SEGMENT_COMPRESS");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) return CompressMode::kAuto;
  if (std::strcmp(env, "on") == 0) return CompressMode::kOn;
  if (std::strcmp(env, "off") == 0) return CompressMode::kOff;
  return CompressMode::kAuto;  // unrecognized: behave like auto
}

// Auto-mode packing threshold: a page packs only when its largest owner
// list is at most this long, so hub pages keep flat arrays for the SIMD
// frontier kernels.
constexpr uint32_t kAutoPackMaxDegree = 128;

// Forward-only, buffered writer over a temporary file beside the sealed
// path. It is the std::streambuf SaveGraphToStream writes through, so
// the graph snapshot streams into the file with no in-memory copy.
//
// Every write(2) but the last hands the kernel one full, aligned 2 MiB
// buffer, so the page cache holds the file in 2 MiB folios that a
// reader's mapping maps with huge-page entries. Probes over a file far
// beyond the TLB reach pay for smaller folios: with 64 KiB writes,
// segment_cold's p50 rose about 6% on a 4-core x86-64 VM (ext4,
// Linux 6.18).
//
// The first failed write is sticky: later writes are dropped and Publish
// reports it. Unless Publish succeeded, the destructor unlinks the
// temporary file, so a failed seal leaves `path` untouched.
class SealFile : public std::streambuf {
 public:
  static constexpr size_t kBufferBytes = 2 << 20;

  SealFile() : buffer_(kBufferBytes) { setp(buffer_.data(), buffer_.data() + buffer_.size()); }
  SealFile(const SealFile&) = delete;
  SealFile& operator=(const SealFile&) = delete;
  ~SealFile() override {
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
  uint64_t offset() const { return flushed_ + static_cast<uint64_t>(pptr() - pbase()); }

  void Write(const void* p, size_t n) {
    xsputn(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  }

  // Zero-pads to the next 8-byte boundary and returns the new offset.
  uint64_t Align8() {
    static constexpr char kZeros[8] = {};
    Write(kZeros, RoundUp(offset(), 8) - offset());
    return offset();
  }

  // Drains the buffer, patches `header` in at offset 0, closes the file
  // and renames it over `path`.
  bool Publish(const SegmentHeader& header, const std::string& path, std::string* error) {
    if (Drain() && CheckedWrite(&header, sizeof(header), 0)) {
      int fd = fd_;
      fd_ = -1;
      if (close(fd) != 0) Record(errno);
    }
    if (errno_ != 0) {
      errno = errno_;
      return Fail(error, SysError("cannot write " + temp_path_));
    }
    if (rename(temp_path_.c_str(), path.c_str()) != 0) {
      return Fail(error, SysError("cannot rename " + temp_path_ + " over " + path));
    }
    published_ = true;
    return true;
  }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    size_t left = static_cast<size_t>(n);
    while (left > 0) {
      if (pptr() == epptr() && !Drain()) return 0;
      const size_t k = std::min(left, static_cast<size_t>(epptr() - pptr()));
      std::memcpy(pptr(), s, k);
      pbump(static_cast<int>(k));
      s += k;
      left -= k;
    }
    return n;
  }

  int_type overflow(int_type ch) override {
    if (!Drain()) return traits_type::eof();
    if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
    return ch;
  }

 private:
  static std::string SysError(const std::string& what) {
    return "seal: " + what + ": " + std::strerror(errno);
  }

  void Record(int err) {
    if (errno_ == 0) errno_ = err;
  }

  bool Drain() {
    const size_t n = static_cast<size_t>(pptr() - pbase());
    if (n != 0 && !CheckedWrite(pbase(), n, -1)) return false;
    flushed_ += n;
    setp(buffer_.data(), buffer_.data() + buffer_.size());
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
  uint64_t flushed_ = 0;
  int fd_ = -1;
  int errno_ = 0;
  std::string temp_path_;
  bool published_ = false;
};

uint32_t MaxOwnerDegree(const IdListPage& page, uint32_t fanout_product) {
  uint32_t max_deg = 0;
  for (uint32_t o = 0; o < kGroupSize; ++o) {
    uint32_t begin = page.csr[o * fanout_product];
    uint32_t end = page.csr[(o + 1) * fanout_product];
    if (end - begin > max_deg) max_deg = end - begin;
  }
  return max_deg;
}

// Streams one direction's pages into `file` (data arena first, then the
// metadata section) and returns the metadata (offset, size). Packed
// pages are encoded into `scratch`, reused across pages.
std::pair<uint64_t, uint64_t> SealIndex(const PrimaryIndex& index, CompressMode mode,
                                        SealFile* file, std::vector<uint8_t>* scratch,
                                        SegmentStats* stats) {
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
  return {meta_off, file->offset() - meta_off};
}

// ---------------------------------------------------------------------
// Open side
// ---------------------------------------------------------------------

// Read-only streambuf over a byte range of the mapping, so the graph
// section reuses LoadGraphFromStream unchanged. The const_cast is safe:
// only the get area is set and nothing ever writes through it.
class MemStreambuf : public std::streambuf {
 public:
  MemStreambuf(const uint8_t* data, size_t size) {
    char* p = const_cast<char*>(reinterpret_cast<const char*>(data));
    setg(p, p, p + size);
  }
};

// Bounds-checked cursor over one metadata section.
class MetaReader {
 public:
  MetaReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadRaw(void* out, size_t n) {
    if (n > size_ - pos_) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool exhausted() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Validates one criterion key against the catalog so PartitionFanout /
// sort-key evaluation never index out of range (both would abort on a
// corrupted file otherwise).
bool ValidPropKey(const Catalog& catalog, uint32_t key, bool must_be_category) {
  if (key >= catalog.num_properties()) return false;
  return !must_be_category ||
         catalog.property(static_cast<prop_key_t>(key)).type == ValueType::kCategory;
}

bool ParseConfig(MetaReader* r, const Catalog& catalog, IndexConfig* config, std::string* error) {
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

// A section range [off, off + len) that must land inside the mapped file
// past the header, with overflow-safe arithmetic.
bool RangeOk(uint64_t off, uint64_t len, uint64_t file_size) {
  return off >= sizeof(SegmentHeader) && off <= file_size && len <= file_size - off;
}

bool ValidateCsr(const uint32_t* csr, uint32_t csr_len, uint32_t num_entries) {
  if (csr[0] != 0 || csr[csr_len - 1] != num_entries) return false;
  for (uint32_t i = 1; i < csr_len; ++i) {
    if (csr[i] < csr[i - 1]) return false;
  }
  return true;
}

// Full value-range validation of one page's adjacency: every neighbour
// below num_vertices, every edge ID below num_edges. Queries index graph
// columns by these IDs, so a sealed file that decodes out-of-range IDs
// must be rejected at open, not at probe time.
bool ValidateIds(const IdListPage& page, uint64_t nv, uint64_t ne) {
  if (page.is_packed()) {
    vertex_id_t nbrs[codec::kBlockEntries];
    edge_id_t eids[codec::kBlockEntries];
    for (uint32_t i = 0; i < page.num_entries; i += codec::kBlockEntries) {
      uint32_t n = std::min(codec::kBlockEntries, page.num_entries - i);
      codec::DecodeRange(page.packed, i, n, nbrs, eids);
      for (uint32_t j = 0; j < n; ++j) {
        if (nbrs[j] >= nv || eids[j] >= ne) return false;
      }
    }
    return true;
  }
  for (uint32_t i = 0; i < page.num_entries; ++i) {
    if (page.nbrs[i] >= nv || page.eids[i] >= ne) return false;
  }
  return true;
}

bool ParseIndexPart(const uint8_t* base, uint64_t file_size, uint64_t off, uint64_t size,
                    const Graph& graph, SegmentIndexPart* part, SegmentStats* stats,
                    std::string* error) {
  MetaReader r(base + off, size);
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

  std::vector<uint32_t> fanouts;
  uint32_t fanout_product = 1;
  std::string fanout_error;
  if (!ResolveFanouts(graph.catalog(), part->config.partitions, &fanouts, &fanout_product,
                      &fanout_error)) {
    return Fail(error, "segment: " + fanout_error);
  }
  const uint32_t expected_csr_len = kGroupSize * fanout_product + 1;

  uint64_t total_entries = 0;
  part->pages.reserve(num_pages);
  for (uint64_t p = 0; p < num_pages; ++p) {
    PageRecord rec;
    if (!r.ReadRaw(&rec, sizeof(rec))) return Fail(error, "segment: truncated page records");
    if (rec.csr_len != expected_csr_len || (rec.flags & ~kPageFlagPacked) != 0 ||
        rec.csr_off % alignof(uint32_t) != 0 || rec.data_off % 8 != 0) {
      return Fail(error, "segment: malformed page record");
    }
    if (!RangeOk(rec.csr_off, uint64_t{rec.csr_len} * sizeof(uint32_t), file_size) ||
        !RangeOk(rec.data_off, rec.data_size, file_size)) {
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
      if (!codec::ValidatePacked(base + rec.data_off, rec.data_size, &stream_bytes) ||
          stream_bytes != rec.data_size ||
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
      stats->raw_pages += 1;
      stats->raw_adj_bytes += rec.data_size;
    }
    stats->csr_bytes += uint64_t{rec.csr_len} * sizeof(uint32_t);
    if (!ValidateIds(*page, nv, ne)) {
      return Fail(error, "segment: adjacency entry references an invalid vertex or edge");
    }
    total_entries += rec.num_entries;
    part->pages.push_back(std::move(page));
  }
  if (!r.exhausted()) return Fail(error, "segment: trailing bytes in index metadata");
  if (total_entries != part->num_edges) {
    return Fail(error, "segment: page entry counts do not sum to the edge count");
  }
  return true;
}

void ApplyMadvise(void* base, size_t size) {
  const char* env = std::getenv("APLUS_SEGMENT_MADVISE");
  int advice = MADV_RANDOM;  // auto: point probes dominate
  if (env != nullptr && *env != '\0') {
    if (std::strcmp(env, "off") == 0) return;
    if (std::strcmp(env, "sequential") == 0) advice = MADV_SEQUENTIAL;
    if (std::strcmp(env, "willneed") == 0) advice = MADV_WILLNEED;
    // "auto" / "random" / unrecognized all keep MADV_RANDOM.
  }
  madvise(base, size, advice);  // advisory; failure is harmless
}

}  // namespace

Segment::~Segment() {
  if (base_ != nullptr) munmap(base_, map_size_);
}

bool SealSegment(const Graph& graph, const IndexStore& store, const std::string& path,
                 std::string* error) {
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
  SegmentHeader header;
  std::memset(&header, 0, sizeof(header));
  file.Write(&header, sizeof(header));  // placeholder, patched by Publish

  header.graph_off = file.Align8();
  // A failed write is sticky in `file`, and Publish reports it.
  std::ostream graph_out(&file);
  SaveGraphToStream(graph, graph_out);
  header.graph_size = file.offset() - header.graph_off;

  SegmentStats stats;
  CompressMode mode = CompressModeFromEnv();
  std::vector<uint8_t> scratch;
  for (int d = 0; d < 2; ++d) {
    Direction dir = d == 0 ? Direction::kFwd : Direction::kBwd;
    auto [off, size] = SealIndex(*store.primary(dir), mode, &file, &scratch, &stats);
    header.index_off[d] = off;
    header.index_size[d] = size;
  }

  header.magic = kSegMagic;
  header.version = kSegVersion;
  header.file_size = file.offset();
  if (!file.Publish(header, path, error)) return false;
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
  if (header.magic != kSegMagic) return fail("segment: bad magic in " + path);
  if (header.version != kSegVersion) return fail("segment: unsupported version");
  if (header.file_size != size) return fail("segment: truncated file (size mismatch)");
  if (!RangeOk(header.graph_off, header.graph_size, size) ||
      !RangeOk(header.index_off[0], header.index_size[0], size) ||
      !RangeOk(header.index_off[1], header.index_size[1], size)) {
    return fail("segment: section out of bounds");
  }

  ApplyMadvise(base, size);

  MemStreambuf graph_buf(bytes + header.graph_off, header.graph_size);
  std::istream graph_in(&graph_buf);
  if (!LoadGraphFromStream(graph_in, &seg->graph_, path)) {
    return fail("segment: corrupt graph snapshot section");
  }

  seg->stats_.file_bytes = size;
  seg->stats_.graph_bytes = header.graph_size;
  std::string part_error;
  for (int d = 0; d < 2; ++d) {
    if (!ParseIndexPart(bytes, size, header.index_off[d], header.index_size[d], seg->graph_,
                        &seg->parts_[d], &seg->stats_, &part_error)) {
      return fail(part_error);
    }
  }
  return seg;
}

}  // namespace aplus
