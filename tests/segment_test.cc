// Tests of the sealed-segment tier: the delta/varint codec against its
// scalar reference semantics (adversarial lengths, max-delta gaps,
// truncation/corruption fail-closed), and seal -> mmap-reopen
// differentials — every query result over a segment-backed database
// must match the in-memory database it was sealed from, at 1 and 4
// threads, raw and force-packed, across the supported SIMD dispatch
// levels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "datagen/financial_props.h"
#include "datagen/power_law_generator.h"
#include "query/intersect_kernels.h"
#include "storage/codec.h"
#include "storage/segment.h"
#include "storage/serialize.h"
#include "digest_graphs.h"
#include "util/fault.h"
#include "util/rng.h"

namespace aplus {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + "/" + name; }

// Environment knob guard: restores (unsets) on scope exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) { setenv(name, value, 1); }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

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
  size_t validated_bytes = 0;
  ASSERT_TRUE(codec::ValidatePacked(stream.data(), stream.size(), &validated_bytes));
  EXPECT_EQ(validated_bytes, stream.size());
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
    EXPECT_FALSE(codec::ValidatePacked(stream.data(), avail)) << "avail=" << avail;
  }
  EXPECT_TRUE(codec::ValidatePacked(stream.data(), stream.size()));
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
    if (codec::ValidatePacked(corrupt.data(), corrupt.size())) {
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

struct RowCollector : RowConsumer {
  std::mutex mu;
  std::vector<Row> rows;
  void OnBatch(const RowBatch& batch) override {
    std::lock_guard<std::mutex> lock(mu);
    for (uint32_t r = 0; r < batch.num_rows(); ++r) {
      Row row;
      for (size_t c = 0; c < batch.num_columns(); ++c) row.push_back(batch.Cell(c, r));
      rows.push_back(std::move(row));
    }
  }
};

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

void ExpectSealReopenDifferential(uint64_t seed, const char* compress_mode) {
  SCOPED_TRACE(std::string("seed=") + std::to_string(seed) + " compress=" + compress_mode);
  ScopedEnv compress("APLUS_SEGMENT_COMPRESS", compress_mode);

  Database db(MakeGraph(seed));
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
  for (uint64_t seed : {11u, 22u, 33u}) ExpectSealReopenDifferential(seed, "auto");
}

TEST(SegmentTest, SealReopenDifferentialForcedPacked) {
  // Every page packed, hubs included: the packed probe/gallop/cursor
  // paths carry the whole differential.
  for (uint64_t seed : {11u, 33u}) ExpectSealReopenDifferential(seed, "on");
}

TEST(SegmentTest, SealReopenDifferentialForcedRaw) {
  ExpectSealReopenDifferential(22, "off");
}

TEST(SegmentTest, DifferentialAtEverySimdLevel) {
  for (simd::Level level : SupportedLevels()) {
    SCOPED_TRACE(simd::ToString(level));
    ScopedSimdLevel scoped(level);
    ExpectSealReopenDifferential(44, "on");
  }
}

TEST(SegmentTest, CompressionRatioOnPowerLaw) {
  ScopedEnv compress("APLUS_SEGMENT_COMPRESS", "on");
  Database db(MakeGraph(5));
  db.BuildPrimaryIndexes();
  std::string path = TempPath("aplus_seg_ratio.seg");
  std::string error;
  ASSERT_TRUE(db.SealToSegment(path, &error)) << error;

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

// ---------------------------------------------------------------------
// Fail-closed hardening: truncations and corruption, segment + snapshot
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

TEST(SegmentTest, TruncatedSegmentFailsClosed) {
  Database db(MakeGraph(7));
  db.BuildPrimaryIndexes();
  std::string path = TempPath("aplus_seg_trunc.seg");
  std::string error;
  ASSERT_TRUE(db.SealToSegment(path, &error)) << error;
  std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_FALSE(bytes.empty());

  std::string trunc_path = TempPath("aplus_seg_trunc_cut.seg");
  for (size_t len : {size_t{0}, size_t{7}, size_t{63}, size_t{64}, bytes.size() / 4,
                     bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE(len);
    WriteFile(trunc_path, bytes.data(), len);
    error.clear();
    EXPECT_EQ(OpenSegment(trunc_path, &error), nullptr);
    EXPECT_FALSE(error.empty());
  }
  std::remove(trunc_path.c_str());
  std::remove(path.c_str());
}

TEST(SegmentTest, CorruptedSegmentFailsClosedOrStaysSafe) {
  Database db(MakeGraph(8));
  db.BuildPrimaryIndexes();
  std::string path = TempPath("aplus_seg_fuzz.seg");
  std::string error;
  ASSERT_TRUE(db.SealToSegment(path, &error)) << error;
  std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_FALSE(bytes.empty());

  std::string fuzz_path = TempPath("aplus_seg_fuzz_hit.seg");
  Rng rng(777);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<uint8_t> corrupt = bytes;
    size_t pos = rng.NextBounded(corrupt.size());
    corrupt[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    WriteFile(fuzz_path, corrupt.data(), corrupt.size());
    // Must either reject with a typed error, or open a structurally
    // valid file whose queries run without faulting (e.g. the flip hit
    // alignment padding or a property payload). ASan/UBSan in the CI
    // segments lane turn any out-of-bounds decode into a failure.
    std::unique_ptr<Database> reopened = Database::OpenFromSegment(fuzz_path, &error);
    if (reopened != nullptr) {
      RunQuery(reopened.get(), kDiffQueries[0], 1);
    } else {
      EXPECT_FALSE(error.empty());
    }
  }
  std::remove(fuzz_path.c_str());
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
// (tests/digest_graphs.h) under APLUS_SEGMENT_COMPRESS = auto, on, off.
// They pin the APSG v1 bytes: a seal of these graphs must keep writing
// exactly these files.
struct SealDigest {
  const char* graph;
  const char* mode;
  uint64_t digest;
};
const SealDigest kSealDigests[] = {
    {"topology", "auto", 0xe4215a982927fd7cULL}, {"topology", "on", 0xb82ca0f6bf4dfd23ULL},
    {"topology", "off", 0xac7ffc825fea0ad3ULL},  {"property", "auto", 0xe4b4d8a5c828f0bfULL},
    {"property", "on", 0xe4b4d8a5c828f0bfULL},   {"property", "off", 0xfb07597cb315ced6ULL},
};

TEST(SegmentTest, SealedBytesMatchRecordedDigests) {
  for (const SealDigest& expected : kSealDigests) {
    SCOPED_TRACE(std::string(expected.graph) + " compress=" + expected.mode);
    ScopedEnv compress("APLUS_SEGMENT_COMPRESS", expected.mode);
    Database db(std::string(expected.graph) == "topology" ? MakeTopologyDigestGraph()
                                                          : MakePropertyDigestGraph());
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
  ScopedEnv compress("APLUS_SEGMENT_COMPRESS", "off");
  std::string path = TempPath("aplus_seg_reseal.seg");
  std::string error;
  Database a(MakeGraph(61, 4000));
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
    Database db(std::move(next.graph));
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
  ScopedEnv compress("APLUS_SEGMENT_COMPRESS", "off");
  std::string path = TempPath("aplus_seg_fault.seg");
  std::string error;
  Database previous(MakeGraph(71));
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
  Database next(std::move(graph));
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

TEST(SerializeHardeningTest, TruncatedSnapshotFailsClosed) {
  Graph graph = MakeGraph(9);
  std::string path = TempPath("aplus_snap_trunc.bin");
  ASSERT_TRUE(SaveGraph(graph, path));
  std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_FALSE(bytes.empty());

  std::string trunc_path = TempPath("aplus_snap_trunc_cut.bin");
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    size_t len = rng.NextBounded(bytes.size());
    WriteFile(trunc_path, bytes.data(), len);
    Graph loaded;
    EXPECT_FALSE(LoadGraph(trunc_path, &loaded)) << "len=" << len;
  }
  std::remove(trunc_path.c_str());
  std::remove(path.c_str());
}

TEST(SerializeHardeningTest, CorruptedSnapshotFailsClosedOrStaysSafe) {
  Graph graph = MakeGraph(10);
  std::string path = TempPath("aplus_snap_fuzz.bin");
  ASSERT_TRUE(SaveGraph(graph, path));
  std::vector<uint8_t> bytes = ReadFile(path);

  std::string fuzz_path = TempPath("aplus_snap_fuzz_hit.bin");
  Rng rng(53);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<uint8_t> corrupt = bytes;
    size_t pos = rng.NextBounded(corrupt.size());
    corrupt[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    WriteFile(fuzz_path, corrupt.data(), corrupt.size());
    Graph loaded;
    // A flip may land in a property payload and load "successfully" with
    // different values; what must never happen is a crash or an
    // out-of-range label/category/type reaching the graph (validated by
    // the loader, and by ASan in the sanitizer lanes).
    if (LoadGraph(fuzz_path, &loaded)) {
      EXPECT_LE(loaded.num_vertices(), graph.num_vertices() + 1);
    }
  }
  std::remove(fuzz_path.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aplus
