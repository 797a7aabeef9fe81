#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "util/bit_util.h"
#include "util/crc32c.h"
#include "util/env.h"
#include "util/memory_tracker.h"
#include "util/rng.h"
#include "util/timer.h"

namespace aplus {
namespace {

TEST(BitUtilTest, BytesForValueBoundaries) {
  EXPECT_EQ(BytesForValue(0), 1);
  EXPECT_EQ(BytesForValue(255), 1);
  EXPECT_EQ(BytesForValue(256), 2);
  EXPECT_EQ(BytesForValue(65535), 2);
  EXPECT_EQ(BytesForValue(65536), 3);
  EXPECT_EQ(BytesForValue((1ULL << 24) - 1), 3);
  EXPECT_EQ(BytesForValue(1ULL << 24), 4);
  EXPECT_EQ(BytesForValue(0xffffffffULL), 4);
  EXPECT_EQ(BytesForValue(0x1ffffffffULL), 5);
  EXPECT_EQ(BytesForValue(~0ULL), 8);
}

TEST(BitUtilTest, FixedWidthRoundTrip) {
  uint8_t buf[8];
  for (uint8_t width = 1; width <= 8; ++width) {
    uint64_t max = width == 8 ? ~0ULL : (1ULL << (8 * width)) - 1;
    for (uint64_t value : {uint64_t{0}, uint64_t{1}, max / 2, max}) {
      StoreFixedWidth(buf, width, value);
      EXPECT_EQ(LoadFixedWidth(buf, width), value) << "width=" << int(width);
    }
  }
}

TEST(BitUtilTest, RoundUp) {
  EXPECT_EQ(RoundUp(0, 64), 0u);
  EXPECT_EQ(RoundUp(1, 64), 64u);
  EXPECT_EQ(RoundUp(64, 64), 64u);
  EXPECT_EQ(RoundUp(65, 64), 128u);
}

// The scalar path, and the hardware path when the CPU has SSE4.2.
std::vector<uint32_t (*)(const void*, size_t, uint32_t)> Crc32cPaths() {
  std::vector<uint32_t (*)(const void*, size_t, uint32_t)> paths = {Crc32cScalar};
  if (Crc32cHardwareAvailable()) paths.push_back(Crc32cHardware);
  return paths;
}

// Known answers: the CRC-32C check value, and the RFC 3720 (iSCSI)
// B.4 vectors of 32 zero bytes, 32 0xff bytes and bytes 0..31.
TEST(Crc32cTest, KnownAnswers) {
  uint8_t zeros[32] = {};
  uint8_t ones[32];
  uint8_t ascending[32];
  std::memset(ones, 0xff, sizeof(ones));
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<uint8_t>(i);
  for (auto crc : Crc32cPaths()) {
    EXPECT_EQ(crc("123456789", 9, 0), 0xE3069283u);
    EXPECT_EQ(crc("", 0, 0), 0u);
    EXPECT_EQ(crc(zeros, 32, 0), 0x8A9136AAu);
    EXPECT_EQ(crc(ones, 32, 0), 0x62A8AB43u);
    EXPECT_EQ(crc(ascending, 32, 0), 0x46DD794Eu);
  }
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

// Every start alignment and tail length agrees with the scalar path, and
// a checksum continued piecewise equals the one-shot checksum.
TEST(Crc32cTest, UnalignedTailsAndPiecewise) {
  std::vector<uint8_t> buf(200);
  Rng rng(5);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (auto crc : Crc32cPaths()) {
    for (size_t start = 0; start < 16; ++start) {
      for (size_t len = 0; len + start <= 64 + 16; ++len) {
        const uint8_t* p = buf.data() + start;
        ASSERT_EQ(crc(p, len, 0), Crc32cScalar(p, len, 0)) << start << "+" << len;
        const size_t cut = len / 3;
        ASSERT_EQ(crc(p + cut, len - cut, crc(p, cut, 0)), Crc32cScalar(p, len, 0));
      }
    }
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, RoughlyUniform) {
  Rng rng(99);
  std::vector<int> buckets(10, 0);
  for (int i = 0; i < 100000; ++i) buckets[rng.NextBounded(10)]++;
  for (int count : buckets) {
    EXPECT_GT(count, 8000);
    EXPECT_LT(count, 12000);
  }
}

TEST(MemoryTrackerTest, Accounting) {
  MemoryTracker tracker;
  int a = tracker.RegisterCategory("primary");
  int b = tracker.RegisterCategory("secondary");
  EXPECT_EQ(tracker.RegisterCategory("primary"), a);  // idempotent
  tracker.Set(a, 1000);
  tracker.Add(b, 500);
  tracker.Add(b, -100);
  EXPECT_EQ(tracker.Get(a), 1000u);
  EXPECT_EQ(tracker.Get(b), 400u);
  EXPECT_EQ(tracker.Total(), 1400u);
  EXPECT_NE(tracker.Report().find("primary"), std::string::npos);
}

TEST(EnvIntTest, TakesOnlyWholeNonNegativeIntegersInRange) {
  const char* kName = "APLUS_UTIL_TEST_KNOB";
  unsetenv(kName);
  EXPECT_EQ(EnvInt(kName, 7), 7);
  auto parse = [&](const char* value, int64_t max = std::numeric_limits<int64_t>::max()) {
    setenv(kName, value, 1);
    const int64_t v = EnvInt(kName, 7, max);
    unsetenv(kName);
    return v;
  };
  EXPECT_EQ(parse("0"), 0);
  EXPECT_EQ(parse("42"), 42);
  EXPECT_EQ(parse("9223372036854775807"), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(parse("2147483647", std::numeric_limits<int>::max()), 2147483647);
  for (const char* junk : {"", "abc", "50ms", "-1", "+5", " 5", "5 ", "1e3", "0x10"}) {
    EXPECT_EQ(parse(junk), 7) << "'" << junk << "'";
  }
  EXPECT_EQ(parse("9223372036854775808"), 7);  // overflows int64
  EXPECT_EQ(parse("2147483648", std::numeric_limits<int>::max()), 7);
}

TEST(TimerTest, MeasuresSomething) {
  WallTimer timer;
  volatile uint64_t x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedNanos(), 0);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace aplus
