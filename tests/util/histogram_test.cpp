#include "aqt/util/histogram.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "aqt/util/check.hpp"

namespace aqt {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0);
}

TEST(Histogram, BasicStatistics) {
  Histogram h;
  for (std::int64_t v : {1, 2, 3, 4, 10}) h.add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 10);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(Histogram, QuantileWithinFactorOfTwo) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.add(i);
  // Median ~50 -> bucket [32, 64): reported upper bound 63.
  const std::int64_t p50 = h.quantile(0.5);
  EXPECT_GE(p50, 49);
  EXPECT_LE(p50, 63);
  // p99 ~99 -> bucket [64, 128), capped at max 99.
  EXPECT_EQ(h.quantile(0.99), 99);
}

TEST(Histogram, QuantileMonotone) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(i % 77);
  std::int64_t prev = 0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const std::int64_t v = h.quantile(q);
    EXPECT_GE(v, prev) << q;
    prev = v;
  }
}

TEST(Histogram, ZeroAndOneShareFirstBucket) {
  Histogram h;
  h.add(0);
  h.add(1);
  EXPECT_EQ(h.quantile(1.0), 1);
}

TEST(Histogram, NegativeRejected) {
  Histogram h;
  EXPECT_THROW(h.add(-1), PreconditionError);
}

TEST(Histogram, BadQuantileRejected) {
  Histogram h;
  h.add(1);
  EXPECT_THROW((void)h.quantile(0.0), PreconditionError);
  EXPECT_THROW((void)h.quantile(1.5), PreconditionError);
}

TEST(Histogram, MergeCombines) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 10; ++i) a.add(2);
  for (int i = 0; i < 10; ++i) b.add(100);
  a.merge(b);
  EXPECT_EQ(a.count(), 20u);
  EXPECT_EQ(a.min(), 2);
  EXPECT_EQ(a.max(), 100);
  EXPECT_DOUBLE_EQ(a.mean(), 51.0);
}

TEST(Histogram, MergeWithEmpty) {
  Histogram a;
  a.add(5);
  Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  Histogram target;
  target.merge(a);
  EXPECT_EQ(target.count(), 1u);
  EXPECT_EQ(target.max(), 5);
}

TEST(Histogram, SummaryMentionsKeyFields) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.add(i);
  const std::string s = h.summary();
  EXPECT_NE(s.find("n=50"), std::string::npos);
  EXPECT_NE(s.find("p50<="), std::string::npos);
  EXPECT_NE(s.find("max=49"), std::string::npos);
}

TEST(Histogram, SaveLoadRoundtrip) {
  Histogram h;
  for (int i = 0; i < 200; ++i) h.add(i * 3);
  std::stringstream buf;
  h.save(buf);
  Histogram loaded;
  loaded.load(buf);
  EXPECT_EQ(loaded.count(), h.count());
  EXPECT_EQ(loaded.min(), h.min());
  EXPECT_EQ(loaded.max(), h.max());
  EXPECT_DOUBLE_EQ(loaded.mean(), h.mean());
  for (double q : {0.5, 0.9, 0.99})
    EXPECT_EQ(loaded.quantile(q), h.quantile(q)) << q;
}

TEST(Histogram, LargeValues) {
  Histogram h;
  h.add(std::int64_t{1} << 40);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.quantile(1.0), (std::int64_t{1} << 40));
}

TEST(Histogram, EmptyDenominatorConvention) {
  // With no samples every accessor is exactly 0 — never NaN or Inf (the
  // repo-wide convention documented in core/metrics.hpp).
  const Histogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.sum(), 0.0);
  EXPECT_EQ(empty.mean(), 0.0);
  EXPECT_EQ(empty.min(), 0);
  EXPECT_EQ(empty.max(), 0);
  EXPECT_EQ(empty.quantile(0.5), 0);
  EXPECT_EQ(empty.quantile(1.0), 0);
}

TEST(Histogram, BucketAccessorsMatchCumulativeCount) {
  Histogram h;
  h.add(1);
  h.add(2);
  h.add(5);
  h.add(100);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    total += h.bucket_count(b);
    if (b > 0) {
      EXPECT_GT(Histogram::bucket_upper_bound(b),
                Histogram::bucket_upper_bound(b - 1));
    }
  }
  EXPECT_EQ(total, h.count());
  EXPECT_EQ(Histogram::bucket_upper_bound(0), 1);
  EXPECT_EQ(Histogram::bucket_upper_bound(1), 3);
}

}  // namespace
}  // namespace aqt
