// Tests of the sealed-segment tier: the delta/varint codec against its
// scalar reference semantics (adversarial lengths, max-delta gaps,
// truncation/corruption fail-closed); seal -> mmap-reopen differentials —
// every query result over a segment-backed database must match the
// in-memory database it was sealed from, at 1 and 4 threads, raw and
// force-packed, across the supported SIMD dispatch levels; and the
// checksums and open-time validation that every corruption, truncation
// or out-of-range id must fail. The graph round trips are in
// serialize_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "datagen/financial_props.h"
#include "datagen/power_law_generator.h"
#include "query/intersect_kernels.h"
#include "row_collector.h"
#include "storage/codec.h"
#include "storage/segment.h"
#include "digest_graphs.h"
#include "util/crc32c.h"
#include "util/fault.h"
#include "util/rng.h"

namespace aplus {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + "/" + name; }

// An engine config that seals with `mode` and sets nothing else.
EngineConfig Sealing(CompressMode mode) {
  EngineConfig config;
  config.segment_compress = mode;
  return config;
}

const char* ModeName(CompressMode mode) {
  return mode == CompressMode::kOn ? "on" : mode == CompressMode::kOff ? "off" : "auto";
}

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level) : prev_(simd::ActiveLevel()) {
    simd::SetLevel(level);
  }
  ~ScopedSimdLevel() { simd::SetLevel(prev_); }

 private:
  simd::Level prev_;
};

std::vector<simd::Level> SupportedLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::HostMaxLevel() >= simd::Level::kSse) levels.push_back(simd::Level::kSse);
  if (simd::HostMaxLevel() >= simd::Level::kAvx2) levels.push_back(simd::Level::kAvx2);
  return levels;
}

// ---------------------------------------------------------------------
// Codec units
// ---------------------------------------------------------------------

// Lengths around every structural boundary: empty, single, around the
// 32-entry block size and around larger powers of two.
const uint32_t kAdversarialLens[] = {0,  1,  2,  3,   31,  32,  33,  63,  64,
                                     65, 95, 96, 127, 128, 129, 511, 512, 513, 1025};

struct Entries {
  std::vector<vertex_id_t> nbrs;
  std::vector<edge_id_t> eids;
};

// An ID bound only the all-ones IDs reach.
constexpr uint64_t kNoBound = ~0ull;

Entries RandomEntries(uint32_t n, uint64_t seed) {
  Entries e;
  Rng rng(seed);
  for (uint32_t i = 0; i < n; ++i) {
    e.nbrs.push_back(static_cast<vertex_id_t>(rng.Next()));
    e.eids.push_back(rng.Next());
  }
  return e;
}

void ExpectRoundTrip(const Entries& e) {
  const uint32_t n = static_cast<uint32_t>(e.nbrs.size());
  std::vector<uint8_t> stream;
  size_t bytes = codec::PackAdjacency(e.nbrs.data(), e.eids.data(), n, &stream);
  ASSERT_EQ(bytes, stream.size());
  // Bounds one past the largest IDs pass and one below them fail; an
  // all-ones edge ID (the max-gap case) fails every bound.
  uint64_t nv = 0, ne = 0;
  for (uint32_t i = 0; i < n; ++i) {
    nv = std::max<uint64_t>(nv, uint64_t{e.nbrs[i]} + 1);
    if (e.eids[i] != ~0ull) ne = std::max<uint64_t>(ne, e.eids[i] + 1);
  }
  const bool all_ones = std::count(e.eids.begin(), e.eids.end(), ~0ull) > 0;
  size_t validated_bytes = 0;
  ASSERT_EQ(codec::ValidatePacked(stream.data(), stream.size(), nv, ne, &validated_bytes),
            all_ones ? codec::PackedCheck::kIdOutOfRange : codec::PackedCheck::kOk);
  EXPECT_EQ(validated_bytes, all_ones ? 0 : stream.size());
  if (n > 0) {
    EXPECT_EQ(codec::ValidatePacked(stream.data(), stream.size(), nv - 1, ne),
              codec::PackedCheck::kIdOutOfRange);
    EXPECT_EQ(codec::ValidatePacked(stream.data(), stream.size(), nv, ne - 1),
              codec::PackedCheck::kIdOutOfRange);
  }
  EXPECT_EQ(codec::PackedNumEntries(stream.data()), n);

  // Whole-range decode, both sides and one-sided.
  std::vector<vertex_id_t> nbrs(n);
  std::vector<edge_id_t> eids(n);
  codec::DecodeRange(stream.data(), 0, n, nbrs.data(), eids.data());
  EXPECT_EQ(nbrs, e.nbrs);
  EXPECT_EQ(eids, e.eids);
  std::fill(nbrs.begin(), nbrs.end(), 0u);
  codec::DecodeRange(stream.data(), 0, n, nbrs.data(), nullptr);
  EXPECT_EQ(nbrs, e.nbrs);

  // Partial ranges crossing block boundaries, plus point access and the
  // cursor (which must agree entry-for-entry with the reference).
  codec::PackedCursor cursor;
  for (uint32_t begin = 0; begin < n; begin += 1 + n / 7) {
    uint32_t count = std::min(n - begin, 1 + begin % 67);
    std::vector<vertex_id_t> part_nbrs(count);
    std::vector<edge_id_t> part_eids(count);
    codec::DecodeRange(stream.data(), begin, count, part_nbrs.data(), part_eids.data());
    for (uint32_t i = 0; i < count; ++i) {
      EXPECT_EQ(part_nbrs[i], e.nbrs[begin + i]);
      EXPECT_EQ(part_eids[i], e.eids[begin + i]);
      EXPECT_EQ(codec::DecodeNbrAt(stream.data(), begin + i), e.nbrs[begin + i]);
      EXPECT_EQ(codec::DecodeEidAt(stream.data(), begin + i), e.eids[begin + i]);
      EXPECT_EQ(cursor.NbrAt(stream.data(), begin + i), e.nbrs[begin + i]);
      EXPECT_EQ(cursor.EidAt(stream.data(), begin + i), e.eids[begin + i]);
    }
  }
}

TEST(CodecTest, RoundTripAdversarialLengths) {
  for (uint32_t len : kAdversarialLens) {
    SCOPED_TRACE(len);
    ExpectRoundTrip(RandomEntries(len, 1000 + len));
  }
}

TEST(CodecTest, RoundTripMaxDeltaGaps) {
  // Alternating extremes produce the largest possible zigzag deltas in
  // both directions, for both the 32-bit neighbour and 64-bit edge side.
  Entries e;
  for (uint32_t i = 0; i < 200; ++i) {
    e.nbrs.push_back(i % 2 == 0 ? 0u : ~0u);
    e.eids.push_back(i % 3 == 0 ? 0ull : ~0ull);
  }
  ExpectRoundTrip(e);
}

TEST(CodecTest, RoundTripSortedRuns) {
  // The common case: bucket-sorted neighbour runs with small deltas.
  Entries e;
  Rng rng(7);
  vertex_id_t v = 0;
  for (uint32_t i = 0; i < 1000; ++i) {
    v += static_cast<vertex_id_t>(rng.NextBounded(5));
    e.nbrs.push_back(v);
    e.eids.push_back(i * 3);
  }
  ExpectRoundTrip(e);
}

TEST(CodecTest, ValidateRejectsEveryTruncation) {
  Entries e = RandomEntries(100, 99);
  std::vector<uint8_t> stream;
  codec::PackAdjacency(e.nbrs.data(), e.eids.data(), 100, &stream);
  for (size_t avail = 0; avail < stream.size(); ++avail) {
    EXPECT_EQ(codec::ValidatePacked(stream.data(), avail, kNoBound, kNoBound),
              codec::PackedCheck::kMalformed)
        << "avail=" << avail;
  }
  EXPECT_EQ(codec::ValidatePacked(stream.data(), stream.size(), kNoBound, kNoBound),
            codec::PackedCheck::kOk);
}

TEST(CodecTest, ValidateSurvivesRandomCorruption) {
  Entries e = RandomEntries(256, 17);
  std::vector<uint8_t> stream;
  codec::PackAdjacency(e.nbrs.data(), e.eids.data(), 256, &stream);
  Rng rng(4242);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> corrupt = stream;
    size_t pos = rng.NextBounded(corrupt.size());
    corrupt[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    // Either rejected, or structurally sound — in which case a full
    // decode must stay in bounds (ASan-checked in the sanitizer lane).
    if (codec::ValidatePacked(corrupt.data(), corrupt.size(), kNoBound, kNoBound) ==
        codec::PackedCheck::kOk) {
      uint32_t n = codec::PackedNumEntries(corrupt.data());
      std::vector<vertex_id_t> nbrs(n);
      std::vector<edge_id_t> eids(n);
      if (n > 0) codec::DecodeRange(corrupt.data(), 0, n, nbrs.data(), eids.data());
    }
  }
}

// ---------------------------------------------------------------------
// Seal / reopen differential
// ---------------------------------------------------------------------

using Row = std::vector<Value>;

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    int c = Value::Compare(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

// Runs `text`, returning (match count, sorted result rows).
std::pair<uint64_t, std::vector<Row>> RunQuery(Database* db, const std::string& text,
                                               int threads) {
  auto prepared = db->Prepare(text);
  EXPECT_TRUE(prepared->ok()) << text << ": " << prepared->error();
  RowCollector rows;
  QueryOutcome out = prepared->Execute(&rows, threads);
  EXPECT_TRUE(out.ok()) << text << ": " << out.error;
  std::sort(rows.rows.begin(), rows.rows.end(), RowLess);
  return {out.count, std::move(rows.rows)};
}

const char* kDiffQueries[] = {
    // Intersection-heavy: triangles force EXTEND/INTERSECT frontiers
    // over the (possibly packed) lists.
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)",
    // Two-hop enumeration with projected edge properties (MULTI-EXTEND
    // equal-run decodes read both nbrs and eids).
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN COUNT(*), SUM(r1.amount), MIN(r2.date)",
    // Grouped aggregate over one hop, exercising property access by the
    // edge IDs decoded out of the lists.
    "MATCH (a)-[r:E]->(b) RETURN a.acc, COUNT(*), SUM(r.amount)",
    // Ordered projection (deterministic row set).
    "MATCH (a)-[r:E]->(b) RETURN a, b, r.amount ORDER BY r.amount DESC, a, b LIMIT 50",
};

Graph MakeGraph(uint64_t seed, uint64_t num_vertices = 3000) {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = num_vertices;
  params.avg_degree = 7.0;
  params.seed = seed;
  GeneratePowerLawGraph(params, &graph);
  AddFinancialProperties(seed, &graph, 40);
  return graph;
}

// Seals `graph` with default primary indexes at TempPath(`name`).
std::string SealGraph(Graph graph, const std::string& name,
                      const EngineConfig& config = EngineConfig::FromEnv()) {
  Database db(std::move(graph), config);
  db.BuildPrimaryIndexes();
  std::string path = TempPath(name);
  std::string error;
  EXPECT_TRUE(db.SealToSegment(path, &error)) << error;
  return path;
}

void ExpectSealReopenDifferential(uint64_t seed, CompressMode mode) {
  const char* compress_mode = ModeName(mode);
  SCOPED_TRACE(std::string("seed=") + std::to_string(seed) + " compress=" + compress_mode);

  Database db(MakeGraph(seed), Sealing(mode));
  db.BuildPrimaryIndexes();
  std::string path = TempPath("aplus_seg_" + std::to_string(seed) + "_" + compress_mode + ".seg");
  std::string error;
  ASSERT_TRUE(db.SealToSegment(path, &error)) << error;

  std::unique_ptr<Database> reopened = Database::OpenFromSegment(path, &error);
  ASSERT_NE(reopened, nullptr) << error;
  ASSERT_TRUE(reopened->segment_backed());
  EXPECT_EQ(reopened->graph().num_edges(), db.graph().num_edges());
  EXPECT_EQ(reopened->graph().num_vertices(), db.graph().num_vertices());

  for (const char* text : kDiffQueries) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(text) + " threads=" + std::to_string(threads));
      auto expected = RunQuery(&db, text, threads);
      auto actual = RunQuery(reopened.get(), text, threads);
      EXPECT_EQ(actual.first, expected.first);
      ASSERT_EQ(actual.second.size(), expected.second.size());
      for (size_t i = 0; i < expected.second.size(); ++i) {
        ASSERT_EQ(actual.second[i].size(), expected.second[i].size());
        for (size_t c = 0; c < expected.second[i].size(); ++c) {
          EXPECT_EQ(Value::Compare(actual.second[i][c], expected.second[i][c]), 0);
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(SegmentTest, SealReopenDifferentialAuto) {
  for (uint64_t seed : {11u, 22u, 33u}) ExpectSealReopenDifferential(seed, CompressMode::kAuto);
}

TEST(SegmentTest, SealReopenDifferentialForcedPacked) {
  // Every page packed, hubs included: the packed probe/gallop/cursor
  // paths carry the whole differential.
  for (uint64_t seed : {11u, 33u}) ExpectSealReopenDifferential(seed, CompressMode::kOn);
}

TEST(SegmentTest, SealReopenDifferentialForcedRaw) {
  ExpectSealReopenDifferential(22, CompressMode::kOff);
}

TEST(SegmentTest, DifferentialAtEverySimdLevel) {
  for (simd::Level level : SupportedLevels()) {
    SCOPED_TRACE(simd::ToString(level));
    ScopedSimdLevel scoped(level);
    ExpectSealReopenDifferential(44, CompressMode::kOn);
  }
}

TEST(SegmentTest, CompressionRatioOnPowerLaw) {
  std::string path =
      SealGraph(MakeGraph(5), "aplus_seg_ratio.seg", Sealing(CompressMode::kOn));
  std::string error;
  std::unique_ptr<Segment> seg = OpenSegment(path, &error);
  ASSERT_NE(seg, nullptr) << error;
  const SegmentStats& stats = seg->stats();
  EXPECT_EQ(stats.raw_pages, 0u);
  ASSERT_GT(stats.packed_adj_bytes, 0u);
  // Acceptance floor: delta/varint adjacency at least 1.5x smaller than
  // the flat nbr/eid arrays it replaces.
  EXPECT_GE(static_cast<double>(stats.packed_adj_unpacked_bytes),
            1.5 * static_cast<double>(stats.packed_adj_bytes));
  std::remove(path.c_str());
}

TEST(SegmentTest, RejectsDdlOnSegmentBackedDatabase) {
  Database db(MakeGraph(6));
  db.BuildPrimaryIndexes();
  std::string path = TempPath("aplus_seg_ddl.seg");
  std::string error;
  ASSERT_TRUE(db.SealToSegment(path, &error)) << error;
  std::unique_ptr<Database> reopened = Database::OpenFromSegment(path, &error);
  ASSERT_NE(reopened, nullptr) << error;

  DdlResult ddl = reopened->ExecuteDdl(
      "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.ID");
  EXPECT_FALSE(ddl.ok);
  EXPECT_NE(ddl.message.find("segment"), std::string::npos);
  EXPECT_EQ(reopened->CreateVpIndex("vp", Predicate{}, IndexConfig::Default(), Direction::kFwd),
            nullptr);
  // Queries still run.
  auto counted = RunQuery(reopened.get(), kDiffQueries[0], 1);
  auto expected = RunQuery(&db, kDiffQueries[0], 1);
  EXPECT_EQ(counted.first, expected.first);
  std::remove(path.c_str());
}

// A mapped graph is fixed: every insert, schema change and re-seal is
// refused with the typed error of its API, and it still serves queries.
TEST(SegmentTest, MappedGraphRefusesMutation) {
  Database db(MakeGraph(12));
  db.BuildPrimaryIndexes();
  std::string path = TempPath("aplus_seg_mutate.seg");
  std::string error;
  ASSERT_TRUE(db.SealToSegment(path, &error)) << error;
  std::unique_ptr<Database> reopened = Database::OpenFromSegment(path, &error);
  ASSERT_NE(reopened, nullptr) << error;
  Graph& graph = reopened->graph();
  ASSERT_TRUE(graph.mapped());
  const uint64_t nv = graph.num_vertices();
  const uint64_t ne = graph.num_edges();
  const prop_key_t amount = graph.catalog().FindProperty("amount", PropTargetKind::kEdge);
  ASSERT_NE(amount, kInvalidPropKey);

  EXPECT_EQ(graph.AddVertex(0), kInvalidVertex);
  EXPECT_EQ(graph.AddEdge(0, 1, 0), kInvalidEdge);
  EXPECT_FALSE(graph.ReserveForIngest(nv + 10, ne + 10));
  EXPECT_EQ(graph.AddVertexProperty("extra", ValueType::kInt64), kInvalidPropKey);
  EXPECT_EQ(graph.AddEdgeProperty("extra", ValueType::kInt64), kInvalidPropKey);
  EXPECT_EQ(graph.edge_props().mutable_column(amount), nullptr);
  EXPECT_EQ(graph.edge_props().AddColumn(graph.catalog(), amount), nullptr);
  EXPECT_EQ(graph.num_vertices(), nv);
  EXPECT_EQ(graph.num_edges(), ne);
  EXPECT_FALSE(reopened->SealToSegment(TempPath("aplus_seg_mutate_again.seg"), &error));
  EXPECT_EQ(error, "seal: the database is already segment-backed");
  EXPECT_EQ(RunQuery(reopened.get(), kDiffQueries[1], 1).first,
            RunQuery(&db, kDiffQueries[1], 1).first);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Fail-closed hardening: checksums, truncation, out-of-range ids
// ---------------------------------------------------------------------

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const uint8_t* data, size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(n));
}

SegmentHeader HeaderOf(const std::vector<uint8_t>& bytes) {
  SegmentHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  return header;
}

// Recomputes every section checksum and then the header checksum of a
// sealed file's bytes, so a patch is left for validation alone to find.
void RewriteChecksums(std::vector<uint8_t>* bytes) {
  SegmentHeader header = HeaderOf(*bytes);
  for (int s = 0; s < kNumSegmentSections; ++s) {
    header.section_crc[s] = Crc32c(bytes->data() + header.section_off[s], header.section_size[s]);
  }
  header.header_crc = Crc32c(&header, offsetof(SegmentHeader, header_crc));
  std::memcpy(bytes->data(), &header, sizeof(header));
}

// The little-endian value of `width` bytes at `offset`.
uint64_t Peek(const std::vector<uint8_t>& bytes, uint64_t offset, size_t width) {
  uint64_t value = 0;
  std::memcpy(&value, bytes.data() + offset, width);
  return value;
}

TEST(SegmentTest, TruncatedSegmentFailsClosed) {
  std::string path = SealGraph(MakeGraph(7), "aplus_seg_trunc.seg");
  std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_FALSE(bytes.empty());
  const SegmentHeader header = HeaderOf(bytes);

  // Inside the header, then on both sides of every section boundary.
  std::vector<size_t> lengths = {0, 7, sizeof(SegmentHeader) - 1};
  for (int s = 0; s < kNumSegmentSections; ++s) {
    const size_t begin = header.section_off[s];
    const size_t end = begin + header.section_size[s];
    for (size_t len : {begin, begin + 1, end - 1}) lengths.push_back(len);
    if (end < bytes.size()) lengths.push_back(end);
  }
  std::string trunc_path = TempPath("aplus_seg_trunc_cut.seg");
  std::string error;
  for (size_t len : lengths) {
    SCOPED_TRACE(len);
    WriteFile(trunc_path, bytes.data(), len);
    error.clear();
    EXPECT_EQ(OpenSegment(trunc_path, &error), nullptr);
    EXPECT_EQ(error.rfind("segment: ", 0), 0u) << error;
  }
  std::remove(trunc_path.c_str());
  std::remove(path.c_str());
}

// Every byte of a sealed file is under a checksum, so any single-byte
// flip, in the header or in any section, is a typed open error.
TEST(SegmentTest, CorruptedSegmentFailsToOpen) {
  std::string path = SealGraph(MakeGraph(8), "aplus_seg_fuzz.seg");
  std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_FALSE(bytes.empty());
  const SegmentHeader header = HeaderOf(bytes);

  std::vector<size_t> positions = {0, 4, 8, sizeof(SegmentHeader) - 1};
  for (int s = 0; s < kNumSegmentSections; ++s) {
    positions.push_back(header.section_off[s]);
    positions.push_back(header.section_off[s] + header.section_size[s] / 2);
    positions.push_back(header.section_off[s] + header.section_size[s] - 1);
  }
  Rng rng(777);
  for (int trial = 0; trial < 100; ++trial) positions.push_back(rng.NextBounded(bytes.size()));
  std::string fuzz_path = TempPath("aplus_seg_fuzz_hit.seg");
  std::string error;
  for (size_t pos : positions) {
    SCOPED_TRACE(pos);
    std::vector<uint8_t> corrupt = bytes;
    corrupt[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    WriteFile(fuzz_path, corrupt.data(), corrupt.size());
    error.clear();
    EXPECT_EQ(Database::OpenFromSegment(fuzz_path, &error), nullptr);
    EXPECT_EQ(error.rfind("segment: ", 0), 0u) << error;
  }
  std::remove(fuzz_path.c_str());
  std::remove(path.c_str());
}

// One edit of a sealed graph column: `width` bytes at `offset` set to
// `value`. Under rewritten checksums an in-range edit (`error` null)
// opens and an out-of-range one fails validation with `error`.
struct ColumnEdit {
  const char* column;
  uint64_t offset;
  size_t width;
  uint64_t value;
  const char* error;
};

// Every edit of a graph column is caught by the graph section's
// checksum. The in-range ones pass validation, so only the checksum can
// catch them; the out-of-range ones validation rejects even under valid
// checksums, before anything reads them.
TEST(SegmentTest, GraphColumnEditsFailTheChecksumOrValidation) {
  // The topology digest graph has two vertex and two edge labels; half
  // its vertices get a category.
  Graph graph = MakeTopologyDigestGraph();
  prop_key_t tier = graph.AddVertexProperty("tier", ValueType::kCategory, 3);
  for (vertex_id_t v = 1; v < graph.num_vertices(); v += 2) {
    graph.vertex_props().mutable_column(tier)->SetCategory(v, v % 3);
  }
  const uint64_t nv = graph.num_vertices();
  std::string path = SealGraph(std::move(graph), "aplus_seg_edit.seg");
  const std::vector<uint8_t> bytes = ReadFile(path);
  std::string error;
  std::unique_ptr<Segment> seg = OpenSegment(path, &error);
  ASSERT_NE(seg, nullptr) << error;
  auto offset = [&seg](const void* p) {
    return static_cast<uint64_t>(static_cast<const uint8_t*>(p) - seg->data());
  };
  const Graph::Columns cols = seg->graph().columns();
  const PropertyColumn* col = seg->graph().vertex_props().column(tier);
  const uint64_t vlabel = offset(cols.vertex_labels + 5);
  const uint64_t src = offset(cols.edge_srcs + 3);
  const uint64_t dst = offset(cols.edge_dsts + 3);
  const uint64_t elabel = offset(cols.edge_labels + 3);
  const uint64_t null0 = offset(col->null_data());
  const uint64_t code1 = offset(static_cast<const int64_t*>(col->payload_data()) + 1);
  seg.reset();

  const char* kLabel = "segment: graph column holds an invalid label";
  const char* kEndpoint = "segment: graph column holds an invalid endpoint";
  const char* kCode = "segment: property column holds an invalid code";
  const ColumnEdit edits[] = {
      {"vertex label", vlabel, 2, Peek(bytes, vlabel, 2) ^ 1, nullptr},
      {"edge src", src, 4, (Peek(bytes, src, 4) + 1) % nv, nullptr},
      {"edge dst", dst, 4, (Peek(bytes, dst, 4) + 1) % nv, nullptr},
      {"edge label", elabel, 2, Peek(bytes, elabel, 2) ^ 1, nullptr},
      {"null byte", null0, 1, 0, nullptr},
      {"category code", code1, 8, (Peek(bytes, code1, 8) + 1) % 3, nullptr},
      {"vertex label", vlabel, 2, 2, kLabel},
      {"edge label", elabel, 2, kInvalidLabel, kLabel},
      {"edge src", src, 4, nv, kEndpoint},
      {"edge dst", dst, 4, kInvalidVertex, kEndpoint},
      {"category code", code1, 8, 3, kCode},
      {"category code", code1, 8, ~uint64_t{0}, kCode},
  };
  std::string edit_path = TempPath("aplus_seg_edit_hit.seg");
  for (const ColumnEdit& edit : edits) {
    SCOPED_TRACE(std::string(edit.column) + " = " + std::to_string(edit.value));
    std::vector<uint8_t> corrupt = bytes;
    std::memcpy(corrupt.data() + edit.offset, &edit.value, edit.width);
    ASSERT_NE(corrupt, bytes);
    WriteFile(edit_path, corrupt.data(), corrupt.size());
    EXPECT_EQ(OpenSegment(edit_path, &error), nullptr);
    EXPECT_EQ(error, "segment: checksum mismatch in the graph section");

    RewriteChecksums(&corrupt);
    WriteFile(edit_path, corrupt.data(), corrupt.size());
    error.clear();
    std::unique_ptr<Database> reopened = Database::OpenFromSegment(edit_path, &error);
    if (edit.error == nullptr) {
      EXPECT_NE(reopened, nullptr) << error;
    } else {
      EXPECT_EQ(reopened, nullptr);
      EXPECT_EQ(error, edit.error);
    }
  }
  std::remove(edit_path.c_str());
  std::remove(path.c_str());
}

// An adjacency entry naming a vertex or edge past the graph fails open
// under valid checksums, in a packed and in a raw page. The first FW
// entry is vertex 0's one edge, added last: (kNv - 1, ne - 1), whose
// varints are as long as those of kNv and ne.
TEST(SegmentTest, OutOfRangeAdjacencyIdsFailToOpen) {
  constexpr uint32_t kNv = 1000;
  auto make_graph = [] {
    Graph graph;
    const label_t node = graph.catalog().AddVertexLabel("N");
    const label_t edge = graph.catalog().AddEdgeLabel("E");
    for (uint32_t v = 0; v < kNv; ++v) graph.AddVertex(node);
    for (vertex_id_t v = 1; v + 1 < kNv; ++v) graph.AddEdge(v, v + 1, edge);
    graph.AddEdge(0, kNv - 1, edge);
    return graph;
  };
  const uint64_t ne = kNv - 1;
  auto leb128 = [](uint64_t v) {
    std::vector<uint8_t> out;
    for (; v >= 0x80; v >>= 7) out.push_back(static_cast<uint8_t>(v) | 0x80);
    out.push_back(static_cast<uint8_t>(v));
    return out;
  };
  auto raw_bytes = [](const auto& value) {
    const auto* p = reinterpret_cast<const uint8_t*>(&value);
    return std::vector<uint8_t>(p, p + sizeof(value));
  };
  ASSERT_EQ(leb128(kNv).size(), 2u);
  ASSERT_EQ(leb128(ne - 1).size(), 2u);
  std::string edit_path = TempPath("aplus_seg_ids_hit.seg");
  for (CompressMode mode : {CompressMode::kOn, CompressMode::kOff}) {
    SCOPED_TRACE(ModeName(mode));
    std::string path = SealGraph(make_graph(), "aplus_seg_ids.seg", Sealing(mode));
    const std::vector<uint8_t> bytes = ReadFile(path);
    std::string error;
    std::unique_ptr<Segment> seg = OpenSegment(path, &error);
    ASSERT_NE(seg, nullptr) << error;
    const IdListPage& page = *seg->part(Direction::kFwd).pages[0];
    auto at = [&seg](const void* p) { return static_cast<const uint8_t*>(p) - seg->data(); };
    // (offset, bytes) of an out-of-range neighbour, then edge ID.
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> edits;
    if (mode == CompressMode::kOn) {
      ASSERT_EQ(codec::DecodeNbrAt(page.packed, 0), kNv - 1);
      ASSERT_EQ(codec::DecodeEidAt(page.packed, 0), ne - 1);
      const uint64_t block0 = at(page.packed) + Peek(bytes, at(page.packed) + 8, 4);
      edits = {{block0, leb128(kNv)}, {block0 + 2, leb128(ne)}};
    } else {
      ASSERT_EQ(page.nbrs[0], kNv - 1);
      ASSERT_EQ(page.eids[0], ne - 1);
      edits = {{at(page.nbrs), raw_bytes(kNv)}, {at(page.eids), raw_bytes(ne)}};
    }
    seg.reset();
    for (const auto& [offset, patch] : edits) {
      std::vector<uint8_t> corrupt = bytes;
      std::memcpy(corrupt.data() + offset, patch.data(), patch.size());
      RewriteChecksums(&corrupt);
      WriteFile(edit_path, corrupt.data(), corrupt.size());
      EXPECT_EQ(Database::OpenFromSegment(edit_path, &error), nullptr);
      EXPECT_EQ(error, "segment: adjacency entry references an invalid vertex or edge");
    }
    std::remove(path.c_str());
  }
  std::remove(edit_path.c_str());
}

// An APSG v1 file: its 64-byte header (magic, version 1, file size, the
// graph and index section ranges) followed by an "APLS" snapshot stream.
TEST(SegmentTest, Version1FileFailsWithUnsupportedVersion) {
  std::vector<uint8_t> bytes(256, 0);
  const uint64_t v1_header[8] = {kSegmentMagic | (uint64_t{1} << 32), bytes.size(), 64, 64,
                                 128, 192, 64, 64};
  std::memcpy(bytes.data(), v1_header, sizeof(v1_header));
  const uint32_t snapshot[2] = {0x41504c53, 1};
  std::memcpy(bytes.data() + 64, snapshot, sizeof(snapshot));
  std::string path = TempPath("aplus_seg_v1.seg");
  WriteFile(path, bytes.data(), bytes.size());
  std::string error;
  EXPECT_EQ(Database::OpenFromSegment(path, &error), nullptr);
  EXPECT_EQ(error.rfind("segment: unsupported segment version 1", 0), 0u) << error;
  std::remove(path.c_str());
}

// A segment whose index config fans each list out into 5001 * 5001
// sublists (past the 2^24 bound on a page's partition product) must fail
// to open with a typed error. The sealed config is written as
// PARTITION BY eadj.label, vnbr.label and its criteria are then patched
// to eadj.a, vnbr.b, two categorical properties of domain 5000.
TEST(SegmentTest, OversizedPartitionFanoutFailsToOpen) {
  Graph graph = MakeGraph(10);
  prop_key_t a = graph.AddEdgeProperty("a", ValueType::kCategory, 5000);
  prop_key_t b = graph.AddVertexProperty("b", ValueType::kCategory, 5000);
  Database db(std::move(graph));
  IndexConfig config;
  config.partitions.push_back({PartitionSource::kEdgeLabel, kInvalidPropKey});
  config.partitions.push_back({PartitionSource::kNbrLabel, kInvalidPropKey});
  config.sorts.push_back({SortSource::kNbrId, kInvalidPropKey});
  db.BuildPrimaryIndexes(config);
  std::string path = TempPath("aplus_seg_fanout.seg");
  std::string error;
  ASSERT_TRUE(db.SealToSegment(path, &error)) << error;
  ASSERT_NE(Database::OpenFromSegment(path, &error), nullptr) << error;

  std::vector<uint8_t> bytes = ReadFile(path);
  const uint32_t sealed[] = {2, 1, 0, kInvalidPropKey, 1, kInvalidPropKey, 0, kInvalidPropKey};
  const uint32_t patched[] = {2, 1, 2, a, 3, b, 0, kInvalidPropKey};
  int patches = 0;
  for (size_t pos = 0; pos + sizeof(sealed) <= bytes.size(); pos += alignof(uint32_t)) {
    if (std::memcmp(bytes.data() + pos, sealed, sizeof(sealed)) == 0) {
      std::memcpy(bytes.data() + pos, patched, sizeof(patched));
      ++patches;
    }
  }
  ASSERT_EQ(patches, 2);  // the FW and BW index configs
  RewriteChecksums(&bytes);
  WriteFile(path, bytes.data(), bytes.size());
  error.clear();
  EXPECT_EQ(Database::OpenFromSegment(path, &error), nullptr);
  EXPECT_NE(error.find("fan-out"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SegmentTest, GarbageSegmentFailsClosed) {
  std::string path = TempPath("aplus_seg_garbage.seg");
  std::vector<uint8_t> junk(4096);
  Rng rng(99);
  for (auto& b : junk) b = static_cast<uint8_t>(rng.Next());
  WriteFile(path, junk.data(), junk.size());
  std::string error;
  EXPECT_EQ(OpenSegment(path, &error), nullptr);
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Sealing: byte identity, atomic replacement, failed writes
// ---------------------------------------------------------------------

// FNV-1a 64 digests of the sealed files of the two digest graphs
// (tests/digest_graphs.h) sealed in each CompressMode (auto, on, off).
// They pin the APSG v2 bytes: a seal of these graphs must keep writing
// exactly these files.
struct SealDigest {
  const char* graph;
  CompressMode mode;
  uint64_t digest;
};
const SealDigest kSealDigests[] = {
    {"topology", CompressMode::kAuto, 0x78d98461eb208877ULL},
    {"topology", CompressMode::kOn, 0x912418a2972a021aULL},
    {"topology", CompressMode::kOff, 0x90450dc28721aef1ULL},
    {"property", CompressMode::kAuto, 0x4c724cea46f450aaULL},
    {"property", CompressMode::kOn, 0x4c724cea46f450aaULL},
    {"property", CompressMode::kOff, 0x20f814a048e8dee7ULL},
};

TEST(SegmentTest, SealedBytesMatchRecordedDigests) {
  for (const SealDigest& expected : kSealDigests) {
    SCOPED_TRACE(std::string(expected.graph) + " compress=" + ModeName(expected.mode));
    Database db(std::string(expected.graph) == "topology" ? MakeTopologyDigestGraph()
                                                          : MakePropertyDigestGraph(),
                Sealing(expected.mode));
    db.BuildPrimaryIndexes();
    std::string path = TempPath("aplus_seg_digest.seg");
    std::string error;
    ASSERT_TRUE(db.SealToSegment(path, &error)) << error;
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                  static_cast<unsigned long long>(Fnv1a64File(path)));
    EXPECT_EQ(Fnv1a64File(path), expected.digest) << "sealed file digest " << hex;
    std::unique_ptr<Database> reopened = Database::OpenFromSegment(path, &error);
    ASSERT_NE(reopened, nullptr) << error;
    EXPECT_EQ(reopened->graph().num_edges(), db.graph().num_edges());
    std::remove(path.c_str());
  }
}

// Runs `fn` on its own thread and returns its result, failing the test
// if it has not returned within `seconds`. A reader of a mapping whose
// file was rewritten underneath it can spin forever; a hung thread
// cannot be joined, so the process exits and the suite reports it.
template <typename Fn>
auto WithDeadline(double seconds, Fn fn) -> decltype(fn()) {
  std::packaged_task<decltype(fn())()> task(std::move(fn));
  auto result = task.get_future();
  std::thread worker(std::move(task));
  if (result.wait_for(std::chrono::duration<double>(seconds)) != std::future_status::ready) {
    ADD_FAILURE() << "query did not finish within " << seconds << " s";
    std::fflush(nullptr);
    std::_Exit(1);
  }
  worker.join();
  return result.get();
}

// One-hop, two-hop and triangle counts.
std::vector<uint64_t> ShapeCounts(Database* db) {
  std::vector<uint64_t> counts;
  for (const char* text : {"MATCH (a)-[r:E]->(b) RETURN COUNT(*)",
                           "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN COUNT(*)", kDiffQueries[0]}) {
    auto prepared = db->Prepare(text);
    EXPECT_TRUE(prepared->ok()) << text << ": " << prepared->error();
    QueryOutcome out = prepared->Execute();
    EXPECT_TRUE(out.ok()) << text << ": " << out.error;
    counts.push_back(out.count);
  }
  return counts;
}

// `graph`'s edges with their destinations shuffled: every vertex keeps
// its in- and out-degree, so every index page keeps its entry count and
// a raw-page seal has exactly the same size, but the paths differ.
Graph ShuffleDestinations(const Graph& graph, uint64_t seed) {
  std::vector<vertex_id_t> dsts;
  for (edge_id_t e = 0; e < graph.num_edges(); ++e) dsts.push_back(graph.edge_dst(e));
  Rng rng(seed);
  for (size_t i = dsts.size(); i > 1; --i) std::swap(dsts[i - 1], dsts[rng.NextBounded(i)]);
  Graph shuffled;
  label_t vlabel = shuffled.catalog().AddVertexLabel("V");
  label_t elabel = shuffled.catalog().AddEdgeLabel("E");
  for (vertex_id_t v = 0; v < graph.num_vertices(); ++v) shuffled.AddVertex(vlabel);
  for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
    shuffled.AddEdge(graph.edge_src(e), dsts[e], elabel);
  }
  AddFinancialProperties(seed, &shuffled, 40);
  return shuffled;
}

// Re-sealing to a path an open reader maps must not touch that reader's
// bytes: the seal publishes a new file by rename, so the reader keeps
// the old inode. Raw pages only, so the shuffled graph seals to a file
// of exactly the same size.
TEST(SegmentTest, ResealKeepsOpenReadersOnTheirSnapshot) {
  std::string path = TempPath("aplus_seg_reseal.seg");
  std::string error;
  Database a(MakeGraph(61, 4000), Sealing(CompressMode::kOff));
  a.BuildPrimaryIndexes();
  const std::vector<uint64_t> a_counts = ShapeCounts(&a);
  ASSERT_TRUE(a.SealToSegment(path, &error)) << error;
  const uint64_t a_size = std::filesystem::file_size(path);
  std::unique_ptr<Database> reader = Database::OpenFromSegment(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_EQ(WithDeadline(60, [&] { return ShapeCounts(reader.get()); }), a_counts);

  struct Reseal {
    const char* name;
    Graph graph;
    int size_vs_a;  // sign of (sealed size - A's sealed size)
  };
  Reseal reseals[] = {{"smaller", MakeGraph(62, 2000), -1},
                      {"same size", ShuffleDestinations(a.graph(), 63), 0},
                      {"larger", MakeGraph(64, 8000), 1}};
  for (Reseal& next : reseals) {
    SCOPED_TRACE(next.name);
    Database db(std::move(next.graph), Sealing(CompressMode::kOff));
    db.BuildPrimaryIndexes();
    const std::vector<uint64_t> counts = ShapeCounts(&db);
    ASSERT_NE(counts, a_counts);
    ASSERT_TRUE(db.SealToSegment(path, &error)) << error;
    const uint64_t size = std::filesystem::file_size(path);
    EXPECT_EQ((size > a_size) - (size < a_size), next.size_vs_a) << size << " vs " << a_size;

    EXPECT_EQ(WithDeadline(60, [&] { return ShapeCounts(reader.get()); }), a_counts);
    std::unique_ptr<Database> fresh = Database::OpenFromSegment(path, &error);
    ASSERT_NE(fresh, nullptr) << error;
    EXPECT_EQ(ShapeCounts(fresh.get()), counts);
  }
  std::remove(path.c_str());
}

// Clears the fault spec on scope exit.
struct FaultGuard {
  ~FaultGuard() { fault::Clear(); }
};

// Temporary seal files (`path`.XXXXXX) left in the directory of `path`.
std::vector<std::string> TempSiblings(const std::string& path) {
  std::filesystem::path p(path);
  const std::string prefix = p.filename().string() + ".";
  std::vector<std::string> found;
  for (const auto& entry : std::filesystem::directory_iterator(p.parent_path())) {
    std::string name = entry.path().filename().string();
    if (name.compare(0, prefix.size(), prefix) == 0) found.push_back(name);
  }
  return found;
}

// A seal that fails on any write returns a typed error and leaves the
// file it would have replaced byte-identical, openable, and free of
// temporary siblings.
TEST(SegmentSealFaultTest, FailedSealLeavesPreviousFileIntact) {
  FaultGuard guard;
  std::string path = TempPath("aplus_seg_fault.seg");
  std::string error;
  Database previous(MakeGraph(71), Sealing(CompressMode::kOff));
  previous.BuildPrimaryIndexes();
  ASSERT_TRUE(previous.SealToSegment(path, &error)) << error;
  const std::vector<uint8_t> previous_bytes = ReadFile(path);

  // Topology only: the graph section is about a third of the 11 MiB file
  // and the raw index arenas the rest. The seal writes it in 2 MiB
  // chunks, so the write two thirds of the way through falls in the
  // middle of the arenas.
  Graph graph;
  PowerLawParams params;
  params.num_vertices = 40000;
  params.avg_degree = 8.0;
  params.seed = 72;
  GeneratePowerLawGraph(params, &graph);
  Database next(std::move(graph), Sealing(CompressMode::kOff));
  next.BuildPrimaryIndexes();

  // A probability-0 spec never fires but counts the writes of a full seal.
  std::string count_path = TempPath("aplus_seg_fault_count.seg");
  ASSERT_TRUE(fault::SetSpec("seal_write:0"));
  ASSERT_TRUE(next.SealToSegment(count_path, &error)) << error;
  const uint64_t writes = fault::Hits(fault::kSealWrite);
  fault::Clear();
  std::remove(count_path.c_str());
  ASSERT_GE(writes, 6u);

  for (uint64_t nth : {uint64_t{1}, writes * 2 / 3, writes}) {
    SCOPED_TRACE("failing write " + std::to_string(nth) + " of " + std::to_string(writes));
    ASSERT_TRUE(fault::SetSpec(("seal_write:@" + std::to_string(nth)).c_str()));
    error.clear();
    EXPECT_FALSE(next.SealToSegment(path, &error));
    EXPECT_EQ(fault::Hits(fault::kSealWrite), nth);
    fault::Clear();
    EXPECT_EQ(error.rfind("seal: ", 0), 0u) << error;
    EXPECT_NE(error.find(std::strerror(EIO)), std::string::npos) << error;
    EXPECT_TRUE(ReadFile(path) == previous_bytes);
    std::unique_ptr<Segment> seg = OpenSegment(path, &error);
    EXPECT_NE(seg, nullptr) << error;
    EXPECT_EQ(TempSiblings(path), std::vector<std::string>{});
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aplus
