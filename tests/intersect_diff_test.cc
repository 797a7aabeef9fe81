// Differential tests for the frontier-based intersection hot path:
// hand-built EXTEND/INTERSECT / MULTI-EXTEND plans over random power-law
// graphs (which naturally contain multi-edges) are pitted against the
// independent binary-join BaselineMatcher (FlatAdjEngine), across z =
// 2..4, direct and offset lists, and sort-key-bounded ranges.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baseline/flat_adj_engine.h"
#include "datagen/label_assigner.h"
#include "datagen/power_law_generator.h"
#include "index/index_store.h"
#include "query/intersect_kernels.h"
#include "query/plan.h"
#include "util/bit_util.h"
#include "util/rng.h"
#include "test_threads.h"

namespace aplus {
namespace {

// Every SIMD level this host can execute (always includes scalar).
// Levels above HostMaxLevel() are skipped, not clamped: exercising the
// AVX2 table on a non-AVX2 host would fault.
std::vector<simd::Level> SupportedLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::HostMaxLevel() >= simd::Level::kSse) levels.push_back(simd::Level::kSse);
  if (simd::HostMaxLevel() >= simd::Level::kAvx2) levels.push_back(simd::Level::kAvx2);
  return levels;
}

const simd::Kernels& TableFor(simd::Level level) {
  switch (level) {
    case simd::Level::kSse:
      return simd::SseKernels();
    case simd::Level::kAvx2:
      return simd::Avx2Kernels();
    default:
      return simd::ScalarKernels();
  }
}

// Restores the previously active dispatch level when a forced-level
// sweep leaves scope (other tests in the binary run after us).
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level) : prev_(simd::ActiveLevel()) {
    simd::SetLevel(level);
  }
  ~ScopedSimdLevel() { simd::SetLevel(prev_); }

 private:
  simd::Level prev_;
};

// Adversarial run lengths: empty, single, around every SIMD block width
// (4- and 8-lane), around the binary-search cutoff, and around larger
// powers of two.
const uint32_t kAdversarialLens[] = {0,  1,  2,  3,   7,   8,   9,   15,  16, 17,
                                     31, 32, 33, 63,  64,  65,  127, 128, 129, 255,
                                     256, 257, 511, 512, 513, 1023, 1024, 1025};

// advance_ge/advance_gt of every level vs std::lower_bound/upper_bound,
// over duplicate-heavy sorted runs, all adversarial lengths, probes on /
// between / outside the stored values, and non-zero `from` offsets.
TEST(IntersectKernelUnitTest, AdvanceMatchesStdBoundsAtEveryLevel) {
  Rng rng(71);
  for (uint32_t len : kAdversarialLens) {
    std::vector<vertex_id_t> run(len);
    vertex_id_t v = static_cast<vertex_id_t>(rng.NextBounded(4));
    for (uint32_t i = 0; i < len; ++i) {
      run[i] = v;
      v += static_cast<vertex_id_t>(rng.NextBounded(3));  // step 0 => duplicates
    }
    std::vector<vertex_id_t> probes = {0, 1, ~0u, ~0u - 1};
    for (uint32_t i = 0; i < len; i += 1 + len / 17) {
      probes.push_back(run[i]);
      probes.push_back(run[i] + 1);
      if (run[i] > 0) probes.push_back(run[i] - 1);
    }
    if (len > 0) probes.push_back(run[len - 1] + 5);
    std::vector<uint32_t> froms = {0};
    if (len > 2) froms.push_back(len / 3);
    if (len > 0) froms.push_back(len);  // from == end: must return from
    for (simd::Level level : SupportedLevels()) {
      const simd::Kernels& kern = TableFor(level);
      ASSERT_EQ(kern.level, level);
      for (uint32_t from : froms) {
        for (vertex_id_t n : probes) {
          uint32_t want_ge = static_cast<uint32_t>(
              std::lower_bound(run.begin() + from, run.end(), n) - run.begin());
          uint32_t want_gt = static_cast<uint32_t>(
              std::upper_bound(run.begin() + from, run.end(), n) - run.begin());
          EXPECT_EQ(kern.advance_ge(run.data(), from, len, n), want_ge)
              << "level=" << ToString(level) << " len=" << len << " from=" << from
              << " n=" << n;
          EXPECT_EQ(kern.advance_gt(run.data(), from, len, n), want_gt)
              << "level=" << ToString(level) << " len=" << len << " from=" << from
              << " n=" << n;
        }
      }
    }
  }
}

// Batch decoders of every level vs the scalar reference: all offset
// widths (1..4 incl. the unspecialized 3-byte path), adversarial counts,
// non-zero begin entries, and 64-bit edge IDs with high bits set (the
// AVX2 gather splits them into two 4-lane gathers).
TEST(IntersectKernelUnitTest, DecodersMatchScalarAtEveryLevel) {
  Rng rng(73);
  constexpr uint32_t kBase = 240;  // < 256 so width-1 offsets stay valid
  std::vector<vertex_id_t> base_nbrs(kBase);
  std::vector<edge_id_t> base_edges(kBase);
  for (uint32_t i = 0; i < kBase; ++i) {
    base_nbrs[i] = static_cast<vertex_id_t>(rng.Next());
    base_edges[i] = (static_cast<edge_id_t>(rng.Next()) << 32) | rng.Next();
  }
  const simd::Kernels& ref = simd::ScalarKernels();
  for (uint8_t width : {1, 2, 3, 4}) {
    for (uint32_t count : kAdversarialLens) {
      if (count > 513) continue;  // decode cost is linear; cap the sweep
      for (uint32_t begin : {0u, 1u, 7u}) {
        std::vector<uint8_t> offsets((begin + count) * width);
        for (uint32_t i = 0; i < begin + count; ++i) {
          StoreFixedWidth(offsets.data() + static_cast<size_t>(i) * width, width,
                          rng.NextBounded(kBase));
        }
        std::vector<vertex_id_t> want_n(count), got_n(count);
        std::vector<edge_id_t> want_e(count), got_e(count);
        ref.decode_nbrs(base_nbrs.data(), offsets.data(), width, begin, count,
                        want_n.data());
        ref.decode_entries(base_nbrs.data(), base_edges.data(), offsets.data(), width,
                           begin, count, want_n.data(), want_e.data());
        for (simd::Level level : SupportedLevels()) {
          const simd::Kernels& kern = TableFor(level);
          std::fill(got_n.begin(), got_n.end(), 0u);
          std::fill(got_e.begin(), got_e.end(), 0u);
          kern.decode_nbrs(base_nbrs.data(), offsets.data(), width, begin, count,
                           got_n.data());
          EXPECT_EQ(got_n, want_n) << "decode_nbrs level=" << ToString(level)
                                   << " width=" << int(width) << " count=" << count
                                   << " begin=" << begin;
          std::fill(got_n.begin(), got_n.end(), 0u);
          kern.decode_entries(base_nbrs.data(), base_edges.data(), offsets.data(), width,
                              begin, count, got_n.data(), got_e.data());
          EXPECT_EQ(got_n, want_n) << "decode_entries level=" << ToString(level)
                                   << " width=" << int(width) << " count=" << count;
          EXPECT_EQ(got_e, want_e) << "decode_entries level=" << ToString(level)
                                   << " width=" << int(width) << " count=" << count;
        }
      }
    }
  }
}

// The APLUS_SIMD knob contract: SetLevel clamps to the host maximum and
// Active() serves the installed table.
TEST(IntersectKernelUnitTest, SetLevelClampsAndInstalls) {
  simd::Level prev = simd::ActiveLevel();
  simd::Level got = simd::SetLevel(simd::Level::kAvx2);
  EXPECT_EQ(got, simd::HostMaxLevel());
  EXPECT_EQ(simd::ActiveLevel(), got);
  EXPECT_EQ(simd::Active().level, got);
  EXPECT_EQ(simd::SetLevel(simd::Level::kScalar), simd::Level::kScalar);
  EXPECT_EQ(simd::Active().level, simd::Level::kScalar);
  simd::SetLevel(prev);
}

class IntersectDiffTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  IntersectDiffTest() {
    PowerLawParams params;
    params.num_vertices = 900;
    params.avg_degree = 6.0;
    params.preferential_fraction = 0.8;  // hubs attract parallel edges
    params.seed = GetParam();
    GeneratePowerLawGraph(params, &graph_);
    AssignRandomLabels(2, 2, GetParam() + 100, &graph_);
    grp_key_ = graph_.AddVertexProperty("grp", ValueType::kInt64);
    PropertyColumn* col = graph_.vertex_props().mutable_column(grp_key_);
    Rng rng(GetParam() + 7);
    for (vertex_id_t v = 0; v < graph_.num_vertices(); ++v) {
      col->SetInt64(v, static_cast<int64_t>(rng.NextBounded(5)));
    }
    el0_ = graph_.catalog().FindEdgeLabel("EL0");
    el1_ = graph_.catalog().FindEdgeLabel("EL1");
    store_ = std::make_unique<IndexStore>(&graph_);
    store_->BuildPrimary(IndexConfig::Default());
    OneHopViewDef all;
    all.name = "all";
    vp_ = store_->CreateVpIndex(all, IndexConfig::Default(), Direction::kFwd);
    IndexConfig grp_config = IndexConfig::Default();
    grp_config.sorts.clear();
    grp_config.sorts.push_back({SortSource::kNbrProp, grp_key_});
    OneHopViewDef all_grp;
    all_grp.name = "all_grp";
    vp_grp_ = store_->CreateVpIndex(all_grp, grp_config, Direction::kFwd);
    engine_ = std::make_unique<FlatAdjEngine>(&graph_);
  }

  // Verifies a multi-edge exists so the differential actually covers
  // parallel-edge enumeration (preferential attachment produces them).
  bool GraphHasMultiEdge() const {
    std::set<std::pair<vertex_id_t, vertex_id_t>> seen;
    for (edge_id_t e = 0; e < graph_.num_edges(); ++e) {
      if (!seen.insert({graph_.edge_src(e), graph_.edge_dst(e)}).second) return true;
    }
    return false;
  }

  ListDescriptor FwdList(int bound_var, label_t elabel, int target_v, int target_e,
                         bool offset = false) {
    ListDescriptor desc;
    if (offset) {
      desc.source = ListDescriptor::Source::kVp;
      desc.vp = vp_;
    } else {
      desc.source = ListDescriptor::Source::kPrimary;
      desc.primary = store_->primary(Direction::kFwd);
    }
    desc.bound_var = bound_var;
    desc.cats = {elabel};
    desc.target_vertex_var = target_v;
    desc.target_edge_var = target_e;
    desc.nbr_sorted = true;
    return desc;
  }

  // Distinct sample vertices, deterministically spread over the ID space.
  std::vector<vertex_id_t> Sample(size_t z, uint64_t salt) {
    std::vector<vertex_id_t> out;
    uint64_t nv = graph_.num_vertices();
    uint64_t v = (salt * 131) % nv;
    while (out.size() < z) {
      v = (v + 37) % nv;
      if (std::find(out.begin(), out.end(), static_cast<vertex_id_t>(v)) == out.end()) {
        out.push_back(static_cast<vertex_id_t>(v));
      }
    }
    return out;
  }

  Graph graph_;
  label_t el0_ = kInvalidLabel;
  label_t el1_ = kInvalidLabel;
  prop_key_t grp_key_ = kInvalidPropKey;
  std::unique_ptr<IndexStore> store_;
  VpIndex* vp_ = nullptr;
  VpIndex* vp_grp_ = nullptr;
  std::unique_ptr<FlatAdjEngine> engine_;
};

TEST_P(IntersectDiffTest, GraphContainsMultiEdges) { EXPECT_TRUE(GraphHasMultiEdge()); }

// z bound sources intersecting into one target, direct and offset lists.
TEST_P(IntersectDiffTest, BoundSourcesMatchBaseline) {
  uint64_t total = 0;
  for (size_t z : {2, 3, 4}) {
    for (bool offset : {false, true}) {
      for (uint64_t tuple = 0; tuple < 12; ++tuple) {
        std::vector<vertex_id_t> sources = Sample(z, tuple + z * 100);
        QueryGraph query;
        std::vector<int> src_vars;
        for (size_t l = 0; l < z; ++l) {
          src_vars.push_back(
              query.AddVertex("a" + std::to_string(l), kInvalidLabel, sources[l]));
        }
        int c = query.AddVertex("c");
        std::vector<ListDescriptor> lists;
        for (size_t l = 0; l < z; ++l) {
          label_t elabel = l % 2 == 0 ? el0_ : el1_;
          query.AddEdge(src_vars[l], c, elabel, "e" + std::to_string(l));
          lists.push_back(FwdList(src_vars[l], elabel, c, static_cast<int>(l), offset));
        }
        PlanBuilder builder(&graph_, &query);
        for (int v : src_vars) builder.Scan(v);
        auto plan = builder.ExtendIntersect(lists, c).Build();
        uint64_t expected = engine_->CountMatches(query);
        EXPECT_EQ(RunCount(*plan), expected)
            << "z=" << z << " offset=" << offset << " tuple=" << tuple;
        total += expected;
      }
    }
  }
  EXPECT_GT(total, 0u) << "differential never hit a non-empty intersection";
}

// Sort-key bounds (nbr-ID upper bound under the default config) against
// the equivalent c.ID predicate on the baseline side.
TEST_P(IntersectDiffTest, BoundedRangesMatchBaseline) {
  const int64_t kIdBound = static_cast<int64_t>(graph_.num_vertices() / 3);
  for (bool offset : {false, true}) {
    for (uint64_t tuple = 0; tuple < 12; ++tuple) {
      std::vector<vertex_id_t> sources = Sample(2, tuple + 900);
      QueryGraph query;
      int a0 = query.AddVertex("a0", kInvalidLabel, sources[0]);
      int a1 = query.AddVertex("a1", kInvalidLabel, sources[1]);
      int c = query.AddVertex("c");
      query.AddEdge(a0, c, el0_, "e0");
      query.AddEdge(a1, c, el1_, "e1");
      QueryComparison cmp;
      cmp.lhs = QueryPropRef{c, false, kInvalidPropKey, /*is_id=*/true};
      cmp.op = CmpOp::kLt;
      cmp.rhs_const = Value::Int64(kIdBound);
      query.AddPredicate(cmp);

      std::vector<ListDescriptor> lists = {FwdList(a0, el0_, c, 0, offset),
                                           FwdList(a1, el1_, c, 1, offset)};
      for (ListDescriptor& list : lists) {
        list.has_upper_bound = true;
        list.upper_bound = kIdBound;
        list.upper_strict = true;
      }
      PlanBuilder builder(&graph_, &query);
      auto plan = builder.Scan(a0).Scan(a1).ExtendIntersect(lists, c).Build();
      uint64_t expected = engine_->CountMatches(query);
      EXPECT_EQ(RunCount(*plan), expected) << "offset=" << offset << " tuple=" << tuple;
    }
  }
}

// Full unbound triangle (Extend feeding ExtendIntersect): the frontier
// state must reset correctly across upstream tuples.
TEST_P(IntersectDiffTest, TriangleMatchesBaseline) {
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  int c = query.AddVertex("c");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(a, c, el0_, "e1");
  query.AddEdge(b, c, el1_, "e2");
  PlanBuilder builder(&graph_, &query);
  std::vector<ListDescriptor> lists = {FwdList(a, el0_, c, 1), FwdList(b, el1_, c, 2)};
  auto plan =
      builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).ExtendIntersect(lists, c).Build();
  uint64_t expected = engine_->CountMatches(query);
  EXPECT_EQ(RunCount(*plan), expected);
  EXPECT_GT(expected, 0u) << "no triangles in the generated graph";
}

// Closing EXTEND (the galloping membership probe) on a 2-cycle.
TEST_P(IntersectDiffTest, ClosingProbeMatchesBaseline) {
  QueryGraph query;
  int a = query.AddVertex("a");
  int b = query.AddVertex("b");
  query.AddEdge(a, b, el0_, "e0");
  query.AddEdge(b, a, el1_, "e1");
  PlanBuilder builder(&graph_, &query);
  auto plan = builder.Scan(a)
                  .Extend(FwdList(a, el0_, b, 0))
                  .Extend(FwdList(b, el1_, a, 1), {}, /*closing=*/true)
                  .Build();
  EXPECT_EQ(RunCount(*plan), engine_->CountMatches(query));
}

// MULTI-EXTEND on property-sorted offset lists vs the equivalent
// b.grp = d.grp predicate on the baseline side.
TEST_P(IntersectDiffTest, MultiExtendMatchesBaseline) {
  for (uint64_t tuple = 0; tuple < 12; ++tuple) {
    std::vector<vertex_id_t> sources = Sample(1, tuple + 500);
    QueryGraph query;
    int a = query.AddVertex("a", kInvalidLabel, sources[0]);
    int b = query.AddVertex("b");
    int d = query.AddVertex("d");
    query.AddEdge(a, b, el0_, "e0");
    query.AddEdge(a, d, el1_, "e1");
    QueryComparison cmp;
    cmp.lhs = QueryPropRef{b, false, grp_key_, false};
    cmp.op = CmpOp::kEq;
    cmp.rhs_is_const = false;
    cmp.rhs_ref = QueryPropRef{d, false, grp_key_, false};
    query.AddPredicate(cmp);

    ListDescriptor l1;
    l1.source = ListDescriptor::Source::kVp;
    l1.vp = vp_grp_;
    l1.bound_var = a;
    l1.cats = {el0_};
    l1.target_vertex_var = b;
    l1.target_edge_var = 0;
    ListDescriptor l2 = l1;
    l2.cats = {el1_};
    l2.target_vertex_var = d;
    l2.target_edge_var = 1;

    PlanBuilder builder(&graph_, &query);
    auto plan = builder.Scan(a).MultiExtend({l1, l2}).Build();
    uint64_t expected = engine_->CountMatches(query);
    EXPECT_EQ(RunCount(*plan), expected) << "tuple=" << tuple;
  }
}

// The full operator differential, repeated with each supported kernel
// level forced (the plan tests above run at whatever APLUS_SIMD picked):
// bound-source intersections, the triangle, the closing probe, and
// MULTI-EXTEND must agree with the baseline under scalar, SSE, and AVX2
// dispatch alike.
TEST_P(IntersectDiffTest, AllKernelLevelsMatchBaseline) {
  for (simd::Level level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    ASSERT_EQ(simd::ActiveLevel(), level);
    uint64_t total = 0;
    for (size_t z : {2, 4}) {
      for (bool offset : {false, true}) {
        for (uint64_t tuple = 0; tuple < 6; ++tuple) {
          std::vector<vertex_id_t> sources = Sample(z, tuple + z * 100);
          QueryGraph query;
          std::vector<int> src_vars;
          for (size_t l = 0; l < z; ++l) {
            src_vars.push_back(
                query.AddVertex("a" + std::to_string(l), kInvalidLabel, sources[l]));
          }
          int c = query.AddVertex("c");
          std::vector<ListDescriptor> lists;
          for (size_t l = 0; l < z; ++l) {
            label_t elabel = l % 2 == 0 ? el0_ : el1_;
            query.AddEdge(src_vars[l], c, elabel, "e" + std::to_string(l));
            lists.push_back(FwdList(src_vars[l], elabel, c, static_cast<int>(l), offset));
          }
          PlanBuilder builder(&graph_, &query);
          for (int v : src_vars) builder.Scan(v);
          auto plan = builder.ExtendIntersect(lists, c).Build();
          uint64_t expected = engine_->CountMatches(query);
          EXPECT_EQ(RunCount(*plan), expected)
              << "level=" << ToString(level) << " z=" << z << " offset=" << offset
              << " tuple=" << tuple;
          total += expected;
        }
      }
    }
    {
      QueryGraph query;
      int a = query.AddVertex("a");
      int b = query.AddVertex("b");
      int c = query.AddVertex("c");
      query.AddEdge(a, b, el0_, "e0");
      query.AddEdge(a, c, el0_, "e1");
      query.AddEdge(b, c, el1_, "e2");
      PlanBuilder builder(&graph_, &query);
      std::vector<ListDescriptor> lists = {FwdList(a, el0_, c, 1), FwdList(b, el1_, c, 2)};
      auto plan = builder.Scan(a).Extend(FwdList(a, el0_, b, 0)).ExtendIntersect(lists, c).Build();
      EXPECT_EQ(RunCount(*plan), engine_->CountMatches(query))
          << "triangle level=" << ToString(level);
    }
    {
      QueryGraph query;
      int a = query.AddVertex("a");
      int b = query.AddVertex("b");
      query.AddEdge(a, b, el0_, "e0");
      query.AddEdge(b, a, el1_, "e1");
      PlanBuilder builder(&graph_, &query);
      auto plan = builder.Scan(a)
                      .Extend(FwdList(a, el0_, b, 0))
                      .Extend(FwdList(b, el1_, a, 1), {}, /*closing=*/true)
                      .Build();
      EXPECT_EQ(RunCount(*plan), engine_->CountMatches(query))
          << "closing probe level=" << ToString(level);
    }
    for (uint64_t tuple = 0; tuple < 6; ++tuple) {
      std::vector<vertex_id_t> sources = Sample(1, tuple + 500);
      QueryGraph query;
      int a = query.AddVertex("a", kInvalidLabel, sources[0]);
      int b = query.AddVertex("b");
      int d = query.AddVertex("d");
      query.AddEdge(a, b, el0_, "e0");
      query.AddEdge(a, d, el1_, "e1");
      QueryComparison cmp;
      cmp.lhs = QueryPropRef{b, false, grp_key_, false};
      cmp.op = CmpOp::kEq;
      cmp.rhs_is_const = false;
      cmp.rhs_ref = QueryPropRef{d, false, grp_key_, false};
      query.AddPredicate(cmp);
      ListDescriptor l1;
      l1.source = ListDescriptor::Source::kVp;
      l1.vp = vp_grp_;
      l1.bound_var = a;
      l1.cats = {el0_};
      l1.target_vertex_var = b;
      l1.target_edge_var = 0;
      ListDescriptor l2 = l1;
      l2.cats = {el1_};
      l2.target_vertex_var = d;
      l2.target_edge_var = 1;
      PlanBuilder builder(&graph_, &query);
      auto plan = builder.Scan(a).MultiExtend({l1, l2}).Build();
      EXPECT_EQ(RunCount(*plan), engine_->CountMatches(query))
          << "multi-extend level=" << ToString(level) << " tuple=" << tuple;
    }
    EXPECT_GT(total, 0u) << "level=" << ToString(level)
                         << ": differential never hit a non-empty intersection";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntersectDiffTest, ::testing::Values(11u, 29u, 47u));

}  // namespace
}  // namespace aplus
