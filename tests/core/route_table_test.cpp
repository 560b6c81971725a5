#include "aqt/core/route_table.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "aqt/core/types.hpp"

namespace aqt {
namespace {

TEST(RouteTable, EmptyRouteInternsToNullRef) {
  RouteTable table;
  const RouteRef ref = table.intern(RouteSpan{});
  EXPECT_EQ(ref.data, nullptr);
  EXPECT_EQ(ref.len, 0u);
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(table.route_count(), 0u);
  EXPECT_EQ(table.pool_bytes(), 0u);
}

TEST(RouteTable, InternReturnsContentEqualRef) {
  RouteTable table;
  const Route route{EdgeId{3}, EdgeId{1}, EdgeId{4}};
  const RouteRef ref = table.intern(route);
  ASSERT_EQ(ref.size(), 3u);
  EXPECT_EQ(ref[0], EdgeId{3});
  EXPECT_EQ(ref[1], EdgeId{1});
  EXPECT_EQ(ref[2], EdgeId{4});
  EXPECT_TRUE(ref == route);
  EXPECT_EQ(table.route_count(), 1u);
}

TEST(RouteTable, FindLooksUpWithoutInterning) {
  RouteTable table;
  const Route route{EdgeId{2}, EdgeId{7}};
  EXPECT_TRUE(table.find(route).empty());
  EXPECT_TRUE(table.find(RouteSpan{}).empty());
  EXPECT_EQ(table.route_count(), 0u);
  const RouteRef ref = table.intern(route);
  EXPECT_EQ(table.find(route).data, ref.data);
  EXPECT_EQ(table.find(route).len, ref.len);
  EXPECT_TRUE(table.find(Route{EdgeId{2}}).empty());  // A prefix differs.
  EXPECT_EQ(table.route_count(), 1u);
}

TEST(RouteTable, DuplicateContentInternsToSamePointer) {
  RouteTable table;
  const Route a{EdgeId{0}, EdgeId{1}, EdgeId{2}};
  const Route b{EdgeId{0}, EdgeId{1}, EdgeId{2}};  // equal content, new vector
  const RouteRef ra = table.intern(a);
  const RouteRef rb = table.intern(b);
  EXPECT_EQ(ra.data, rb.data);  // pointer equality, not just content
  EXPECT_EQ(ra.len, rb.len);
  EXPECT_EQ(table.route_count(), 1u);
  const std::uint64_t bytes_after_dedup = table.pool_bytes();
  // A third identical intern adds no pool bytes.
  (void)table.intern(a);
  EXPECT_EQ(table.pool_bytes(), bytes_after_dedup);
  EXPECT_EQ(table.route_count(), 1u);
}

TEST(RouteTable, DistinctRoutesGetDistinctRefs) {
  RouteTable table;
  const RouteRef ra = table.intern(Route{EdgeId{1}, EdgeId{2}});
  const RouteRef rb = table.intern(Route{EdgeId{2}, EdgeId{1}});
  const RouteRef rc = table.intern(Route{EdgeId{1}, EdgeId{2}, EdgeId{3}});
  EXPECT_FALSE(ra == rb);
  EXPECT_FALSE(ra == rc);
  EXPECT_EQ(table.route_count(), 3u);
}

TEST(RouteTable, PoolBytesGrowsWithDistinctRoutes) {
  RouteTable table;
  EXPECT_EQ(table.pool_bytes(), 0u);
  (void)table.intern(Route{EdgeId{0}});
  const std::uint64_t one = table.pool_bytes();
  EXPECT_GT(one, 0u);
  // Distinct routes may fit in the same chunk, but pool bytes never shrink.
  for (EdgeId i = 1; i < 100; ++i)
    (void)table.intern(Route{i, static_cast<EdgeId>(i + 1)});
  EXPECT_GE(table.pool_bytes(), one);
  EXPECT_EQ(table.route_count(), 100u);
}

TEST(RouteTable, RefsStayValidAcrossChunkGrowth) {
  // Force the pool across many chunks (16k edges each) and verify that refs
  // taken early still dereference to their original content — the chunked
  // pool must never reallocate storage a ref points into.
  RouteTable table;
  const Route first{EdgeId{7}, EdgeId{8}, EdgeId{9}};
  const RouteRef early = table.intern(first);
  const EdgeId* const early_data = early.data;

  std::vector<RouteRef> refs;
  constexpr EdgeId kRoutes = 20000;  // ~80k edges >> one 16k chunk
  for (EdgeId i = 0; i < kRoutes; ++i) {
    refs.push_back(
        table.intern(Route{i, static_cast<EdgeId>(i + 1),
                           static_cast<EdgeId>(i + 2),
                           static_cast<EdgeId>(i + 3)}));
  }

  EXPECT_EQ(early.data, early_data);
  EXPECT_TRUE(early == first);
  for (EdgeId i = 0; i < kRoutes; i += 997) {
    ASSERT_EQ(refs[i].size(), 4u);
    EXPECT_EQ(refs[i][0], i);
    EXPECT_EQ(refs[i][3], i + 3);
  }
}

TEST(RouteTable, OversizedRouteSpansMultipleChunkCapacity) {
  // A single route longer than one chunk's edge capacity must still intern
  // contiguously and round-trip.
  RouteTable table;
  constexpr std::size_t kLen = (std::size_t{1} << 14) + 37;
  Route big;
  big.reserve(kLen);
  for (std::size_t i = 0; i < kLen; ++i)
    big.push_back(static_cast<EdgeId>(i));
  const RouteRef ref = table.intern(big);
  ASSERT_EQ(ref.size(), kLen);
  EXPECT_EQ(ref[0], EdgeId{0});
  EXPECT_EQ(ref[kLen - 1], static_cast<EdgeId>(kLen - 1));
  EXPECT_TRUE(ref == big);
  // And deduplicates like any other route.
  const RouteRef again = table.intern(big);
  EXPECT_EQ(again.data, ref.data);
  EXPECT_EQ(table.route_count(), 1u);
}

TEST(RouteTable, InternAcceptsRouteRefSpans) {
  // Interning a ref's own span (the COW-splice path re-interns a rebuilt
  // route that may alias pool storage) must work and deduplicate.
  RouteTable table;
  const RouteRef ref = table.intern(Route{EdgeId{5}, EdgeId{6}});
  const RouteRef again = table.intern(ref.span());
  EXPECT_EQ(again.data, ref.data);
  EXPECT_EQ(table.route_count(), 1u);
}

}  // namespace
}  // namespace aqt
