#ifndef APLUS_TESTS_TEST_THREADS_H_
#define APLUS_TESTS_TEST_THREADS_H_

#include <cstdlib>

#include <gtest/gtest.h>

#include "query/plan.h"

namespace aplus {

// Worker count for test executions that take no explicit thread count:
// the APLUS_THREADS environment variable, clamped to
// [1, Plan::kMaxThreads], default 1. The engine itself never reads it;
// it lets one test binary run its plans serially or morsel-parallel
// (`APLUS_THREADS=4 ctest`) without touching the tests.
inline int TestThreads() {
  const char* env = std::getenv("APLUS_THREADS");
  if (env == nullptr) return 1;
  const long v = std::strtol(env, nullptr, 10);
  if (v < 1) return 1;
  return v > Plan::kMaxThreads ? Plan::kMaxThreads : static_cast<int>(v);
}

// Runs `plan`, expects it to finish ok and returns its match count.
inline uint64_t RunCount(Plan& plan, int threads = TestThreads()) {
  const QueryOutcome out = plan.Execute(threads);
  EXPECT_TRUE(out.ok()) << ToString(out.status);
  return out.count;
}

}  // namespace aplus

#endif  // APLUS_TESTS_TEST_THREADS_H_
