#include <gtest/gtest.h>

#include "datagen/example_graph.h"
#include "optimizer/catalog_stats.h"
#include "optimizer/index_matcher.h"

namespace aplus {
namespace {

class IndexMatcherTest : public ::testing::Test {
 protected:
  IndexMatcherTest() : ex_(BuildExampleGraph()), store_(&ex_.graph) {
    store_.BuildPrimary(IndexConfig::Default());
    stats_ = GraphStats::Compute(ex_.graph);
  }

  ExtensionPredicate NoPred() { return ExtensionPredicate(); }

  ExtensionPredicate AmountGt(int64_t threshold, int conjunct_id = 0) {
    ExtensionPredicate ext;
    ext.pred.AddConst(PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false}, CmpOp::kGt,
                      Value::Int64(threshold));
    ext.query_conjunct_ids.push_back(conjunct_id);
    return ext;
  }

  ExampleGraph ex_;
  IndexStore store_;
  GraphStats stats_;
};

TEST_F(IndexMatcherTest, PrimaryAlwaysUsableWithoutSortRequirement) {
  IndexMatcher matcher(&store_, &stats_);
  ExtensionPredicate ext = NoPred();
  CandidateScratch candidates;
  matcher.FindVertexLists(Direction::kFwd, kInvalidLabel, kInvalidLabel, ext, &candidates);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].desc.source, ListDescriptor::Source::kPrimary);
  EXPECT_TRUE(IndexMatcher::ServesSort(candidates[0], nullptr));
  // Whole-vertex slice spans label partitions -> not neighbour sorted.
  EXPECT_FALSE(candidates[0].desc.nbr_sorted);
}

TEST_F(IndexMatcherTest, EdgeLabelPinsInnermostSortedSlice) {
  IndexMatcher matcher(&store_, &stats_);
  ExtensionPredicate ext = NoPred();
  SortCriterion nbr_id{SortSource::kNbrId, kInvalidPropKey};
  CandidateScratch candidates;
  matcher.FindVertexLists(Direction::kFwd, ex_.wire_label, kInvalidLabel, ext, &candidates);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_TRUE(IndexMatcher::ServesSort(candidates[0], &nbr_id));
  EXPECT_TRUE(candidates[0].desc.nbr_sorted);
  ASSERT_EQ(candidates[0].desc.cats.size(), 1u);
  EXPECT_EQ(candidates[0].desc.cats[0], ex_.wire_label);
  // Covered by the partition: no residual edge-label filter.
  EXPECT_EQ(candidates[0].desc.edge_label_filter, kInvalidLabel);
}

TEST_F(IndexMatcherTest, NoSortedCandidateWithoutEdgeLabel) {
  IndexMatcher matcher(&store_, &stats_);
  ExtensionPredicate ext = NoPred();
  SortCriterion nbr_id{SortSource::kNbrId, kInvalidPropKey};
  CandidateScratch candidates;
  matcher.FindVertexLists(Direction::kFwd, kInvalidLabel, kInvalidLabel, ext, &candidates);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_FALSE(IndexMatcher::ServesSort(candidates[0], &nbr_id));
}

TEST_F(IndexMatcherTest, DsConfigPinsNbrLabelForSortedAccess) {
  // Ds: sort by neighbour label then neighbour ID. With a known target
  // label the candidate is effectively neighbour-ID sorted via equality
  // bounds on the leading key.
  IndexConfig ds = IndexConfig::Default();
  ds.sorts.clear();
  ds.sorts.push_back({SortSource::kNbrLabel, kInvalidPropKey});
  ds.sorts.push_back({SortSource::kNbrId, kInvalidPropKey});
  store_.BuildPrimary(ds);
  IndexMatcher matcher(&store_, &stats_);
  ExtensionPredicate ext = NoPred();
  SortCriterion nbr_id{SortSource::kNbrId, kInvalidPropKey};
  CandidateScratch candidates;
  matcher.FindVertexLists(Direction::kFwd, ex_.wire_label, ex_.account_label, ext, &candidates);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_TRUE(IndexMatcher::ServesSort(candidates[0], &nbr_id));
  EXPECT_TRUE(candidates[0].desc.nbr_sorted);
  EXPECT_TRUE(candidates[0].desc.has_lower_bound);
  EXPECT_TRUE(candidates[0].desc.has_upper_bound);
  EXPECT_EQ(candidates[0].desc.lower_bound, ex_.account_label);
  EXPECT_FALSE(candidates[0].desc.lower_strict);
  // The pinned label also covers the target-label filter.
  EXPECT_EQ(candidates[0].desc.target_vertex_label, kInvalidLabel);

  // Without a target label, Ds cannot serve sorted intersections.
  CandidateScratch unlabelled;
  matcher.FindVertexLists(Direction::kFwd, ex_.wire_label, kInvalidLabel, ext, &unlabelled);
  ASSERT_EQ(unlabelled.size(), 1u);
  EXPECT_FALSE(IndexMatcher::ServesSort(unlabelled[0], &nbr_id));
}

TEST_F(IndexMatcherTest, RangePredicateBecomesSortKeyBound) {
  // Time-sorted VP index + range predicate -> binary-searchable bound
  // (the VPt mechanism of Table III).
  IndexConfig by_amount = IndexConfig::Default();
  by_amount.sorts.clear();
  by_amount.sorts.push_back({SortSource::kEdgeProp, ex_.amount_key});
  OneHopViewDef view;
  view.name = "by_amount";
  store_.CreateVpIndex(view, by_amount, Direction::kFwd);

  IndexMatcher matcher(&store_, &stats_);
  ExtensionPredicate ext;
  ext.pred.AddConst(PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false}, CmpOp::kLt,
                    Value::Int64(100));
  ext.query_conjunct_ids.push_back(7);
  CandidateScratch candidates;
  matcher.FindVertexLists(Direction::kFwd, ex_.wire_label, kInvalidLabel, ext, &candidates);
  bool found_bounded = false;
  for (size_t i = 0; i < candidates.size(); ++i) {
    CandidateList& c = candidates[i];
    if (c.desc.source != ListDescriptor::Source::kVp) continue;
    // The lookup leaves the list unbounded (a sorted requirement takes
    // it as is); the no-sort access path applies the bound.
    EXPECT_TRUE(c.allow_range_bounds);
    EXPECT_FALSE(c.desc.has_upper_bound);
    EXPECT_TRUE(IndexMatcher::HasSortKeyBound(ext, c));
    EXPECT_FALSE(IndexMatcher::HasSortKeyBound(NoPred(), c));
    IndexMatcher::ApplySortKeyBounds(ext, &c);
    EXPECT_TRUE(c.desc.has_upper_bound);
    EXPECT_EQ(c.desc.upper_bound, 100);
    EXPECT_TRUE(c.desc.upper_strict);
    // The bound covers the conjunct.
    ASSERT_EQ(c.covered_conjuncts.size(), 1u);
    EXPECT_EQ(c.covered_conjuncts[0], 7);
    found_bounded = true;
  }
  EXPECT_TRUE(found_bounded);
}

TEST_F(IndexMatcherTest, ViewPredicateSubsumptionGatesVpCandidates) {
  OneHopViewDef view;
  view.name = "large";
  view.pred.AddConst(PropRef{PropSite::kAdjEdge, ex_.amount_key, false, false}, CmpOp::kGt,
                     Value::Int64(50));
  store_.CreateVpIndex(view, IndexConfig::Default(), Direction::kFwd);
  IndexMatcher matcher(&store_, &stats_);

  // Query wants amount > 100: the index (> 50) subsumes it.
  CandidateScratch subsumed;
  matcher.FindVertexLists(Direction::kFwd, ex_.wire_label, kInvalidLabel, AmountGt(100),
                          &subsumed);
  bool has_vp = false;
  for (const CandidateList& c : subsumed) {
    if (c.desc.source == ListDescriptor::Source::kVp) has_vp = true;
  }
  EXPECT_TRUE(has_vp);

  // Query wants amount > 10: the index would miss edges in (10, 50].
  CandidateScratch broader;
  matcher.FindVertexLists(Direction::kFwd, ex_.wire_label, kInvalidLabel, AmountGt(10),
                          &broader);
  for (const CandidateList& c : broader) {
    EXPECT_NE(c.desc.source, ListDescriptor::Source::kVp);
  }
}

TEST_F(IndexMatcherTest, EpCandidatesFilterByKind) {
  TwoHopViewDef view;
  view.name = "flow";
  view.kind = EpKind::kDstFwd;
  view.pred.AddRef(PropRef{PropSite::kBoundEdge, ex_.date_key, false, false}, CmpOp::kLt,
                   PropRef{PropSite::kAdjEdge, ex_.date_key, false, false});
  store_.CreateEpIndex(view, IndexConfig::Default());
  IndexMatcher matcher(&store_, &stats_);

  ExtensionPredicate ext;
  ext.pred.AddRef(PropRef{PropSite::kBoundEdge, ex_.date_key, false, false}, CmpOp::kLt,
                  PropRef{PropSite::kAdjEdge, ex_.date_key, false, false});
  ext.query_conjunct_ids.push_back(0);
  CandidateScratch match;
  matcher.FindEdgeLists(EpKind::kDstFwd, kInvalidLabel, kInvalidLabel, ext, &match);
  EXPECT_EQ(match.size(), 1u);
  CandidateScratch wrong_kind;
  matcher.FindEdgeLists(EpKind::kSrcBwd, kInvalidLabel, kInvalidLabel, ext, &wrong_kind);
  EXPECT_TRUE(wrong_kind.empty());

  // Without the cross-edge conjunct in the query the view is not
  // subsumed.
  ExtensionPredicate none;
  CandidateScratch unsubsumed;
  matcher.FindEdgeLists(EpKind::kDstFwd, kInvalidLabel, kInvalidLabel, none, &unsubsumed);
  EXPECT_TRUE(unsubsumed.empty());
}

TEST_F(IndexMatcherTest, EstimatesReflectPartitionsAndFilters) {
  IndexMatcher matcher(&store_, &stats_);
  ExtensionPredicate ext = NoPred();
  CandidateScratch whole;
  matcher.FindVertexLists(Direction::kFwd, kInvalidLabel, kInvalidLabel, ext, &whole);
  CandidateScratch wires;
  matcher.FindVertexLists(Direction::kFwd, ex_.wire_label, kInvalidLabel, ext, &wires);
  ASSERT_EQ(whole.size(), 1u);
  ASSERT_EQ(wires.size(), 1u);
  EXPECT_LT(wires[0].est_len, whole[0].est_len);
  // Output estimate never exceeds the read estimate.
  EXPECT_LE(wires[0].est_out, wires[0].est_len + 1e-12);
}

}  // namespace
}  // namespace aplus
