// Randomized end-to-end correctness: random small graphs, random
// connected query shapes with random labels/predicates, random index
// configurations (including secondary VP/EP indexes) — the optimizer's
// plan must always count exactly what the baseline matcher of
// FlatAdjEngine (binary-join backtracking over plain adjacency lists)
// counts.

#include <gtest/gtest.h>

#include "baseline/flat_adj_engine.h"
#include "random_query.h"
#include "test_threads.h"

namespace aplus {
namespace {

class OptimizerFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerFuzzTest, PlansMatchBaselineMatcher) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed * 7919 + 13);

  FinancialPropKeys keys;
  std::unique_ptr<Database> db = RandomDatabase(seed, &rng, &keys);
  const FlatAdjEngine baseline(&db->graph());

  for (int q = 0; q < 4; ++q) {
    QueryGraph query = RandomQuery(&rng, db->graph(), keys);
    uint64_t expected = baseline.CountMatches(query);
    QueryOutcome result = db->Execute(query, TestThreads());
    ASSERT_EQ(result.count, expected)
        << "seed=" << seed << " query=" << q << "\nplan:\n"
        << result.plan;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerFuzzTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace aplus
