#include "aqt/core/buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "aqt/util/rng.hpp"

namespace aqt {
namespace {

BufferEntry entry(std::int64_t k1, std::int64_t k2, std::uint64_t seq,
                  PacketId pkt) {
  return BufferEntry{k1, k2, seq, pkt};
}

/// Entry slots a buffer holds.
std::size_t capacity(const Buffer& b) {
  return b.capacity_bytes() / sizeof(BufferEntry);
}

/// Runs `body` once on a fresh heap buffer and once on a fresh ring buffer:
/// every behavioural case below must hold for both representations.
void for_each_layout(const std::function<void(Buffer&)>& body) {
  for (const Buffer::Layout layout :
       {Buffer::Layout::kHeap, Buffer::Layout::kRing}) {
    SCOPED_TRACE(layout == Buffer::Layout::kHeap ? "heap" : "ring");
    Buffer b(layout);
    body(b);
  }
}

TEST(Buffer, EmptyInitially) {
  for_each_layout([](Buffer& b) {
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.size(), 0u);
    EXPECT_EQ(b.capacity_bytes(), 0u);
  });
}

TEST(Buffer, PopMinReturnsSmallestPrimaryKey) {
  for_each_layout([](Buffer& b) {
    b.push(entry(5, 0, 1, 100));
    b.push(entry(2, 0, 2, 200));
    b.push(entry(9, 0, 3, 300));
    EXPECT_EQ(b.pop_min().packet, 200u);
    EXPECT_EQ(b.pop_min().packet, 100u);
    EXPECT_EQ(b.pop_min().packet, 300u);
    EXPECT_TRUE(b.empty());
  });
}

TEST(Buffer, SecondaryKeyBreaksTies) {
  for_each_layout([](Buffer& b) {
    b.push(entry(1, 7, 1, 100));
    b.push(entry(1, 3, 2, 200));
    EXPECT_EQ(b.pop_min().packet, 200u);
  });
}

TEST(Buffer, SeqBreaksRemainingTies) {
  for_each_layout([](Buffer& b) {
    b.push(entry(1, 1, 9, 100));
    b.push(entry(1, 1, 4, 200));
    EXPECT_EQ(b.pop_min().packet, 200u);
  });
}

TEST(Buffer, FrontPeeksWithoutRemoval) {
  for_each_layout([](Buffer& b) {
    b.push(entry(2, 0, 1, 100));
    b.push(entry(1, 0, 2, 200));
    EXPECT_EQ(b.front().packet, 200u);
    EXPECT_EQ(b.size(), 2u);
  });
}

TEST(Buffer, ErasePacketRemovesMatching) {
  for_each_layout([](Buffer& b) {
    b.push(entry(1, 0, 1, 100));
    b.push(entry(2, 0, 2, 200));
    EXPECT_TRUE(b.erase_packet(100));
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(b.front().packet, 200u);
    EXPECT_FALSE(b.erase_packet(999));
  });
}

TEST(Buffer, OrderedEntriesAreKeyOrdered) {
  for_each_layout([](Buffer& b) {
    b.push(entry(3, 0, 1, 1));
    b.push(entry(1, 0, 2, 2));
    b.push(entry(2, 0, 3, 3));
    std::vector<PacketId> order;
    for (const auto& e : b.ordered_entries()) order.push_back(e.packet);
    EXPECT_EQ(order, (std::vector<PacketId>{2, 3, 1}));
    // Raw iteration visits the same entries (storage order, which is key
    // order only for a ring).
    std::vector<PacketId> raw;
    for (const auto& e : b) raw.push_back(e.packet);
    std::sort(raw.begin(), raw.end());
    EXPECT_EQ(raw, (std::vector<PacketId>{1, 2, 3}));
  });
}

TEST(Buffer, NegativeKeysSortBeforePositive) {
  for_each_layout([](Buffer& b) {
    b.push(entry(5, 0, 1, 1));
    b.push(entry(-5, 0, 2, 2));
    EXPECT_EQ(b.pop_min().packet, 2u);
  });
}

TEST(Buffer, LayoutFollowsTheKeyRuleAlone) {
  EXPECT_EQ(Buffer::layout_for(KeyRule::kFifo), Buffer::Layout::kRing);
  EXPECT_EQ(Buffer::layout_for(KeyRule::kLifo), Buffer::Layout::kRing);
  for (const KeyRule rule :
       {KeyRule::kCustom, KeyRule::kLis, KeyRule::kNis, KeyRule::kFtg,
        KeyRule::kNtg, KeyRule::kFfs, KeyRule::kNts})
    EXPECT_EQ(Buffer::layout_for(rule), Buffer::Layout::kHeap);
}

TEST(Buffer, RingIteratesInKeyOrderAcrossTheWrap) {
  // Pop and push past the end of the slot array so the ring wraps, then
  // check iteration, ordered_entries() and max_entry() read key order.
  Buffer b(Buffer::Layout::kRing);
  std::uint64_t next = 0;
  for (int i = 0; i < 6; ++i, ++next)
    b.push(entry(static_cast<std::int64_t>(next), 0, next, next));
  for (int i = 0; i < 5; ++i) b.pop_min();
  for (int i = 0; i < 5; ++i, ++next)
    b.push(entry(static_cast<std::int64_t>(next), 0, next, next));
  std::vector<PacketId> raw;
  for (const auto& e : b) raw.push_back(e.packet);
  EXPECT_EQ(raw, (std::vector<PacketId>{5, 6, 7, 8, 9, 10}));
  std::vector<PacketId> ordered;
  for (const auto& e : b.ordered_entries()) ordered.push_back(e.packet);
  EXPECT_EQ(ordered, raw);
  EXPECT_EQ(b.max_entry().packet, 10u);
  EXPECT_EQ(b.front().packet, 5u);
}

TEST(Buffer, CapacityIsGivenBackAsTheBufferDrains) {
  for_each_layout([](Buffer& b) {
    for (std::uint64_t i = 0; i < 5000; ++i)
      b.push(entry(static_cast<std::int64_t>(i), 0, i, i));
    EXPECT_EQ(capacity(b), 8192u);
    while (b.size() > 10) b.pop_min();
    // Halving stops at the floor: the first capacity at or below it.
    EXPECT_EQ(capacity(b), Buffer::kShrinkFloor);
    EXPECT_EQ(b.front().packet, 4990u);
    // Erase releases too.
    for (std::uint64_t i = 0; i < 1000; ++i)
      b.push(entry(static_cast<std::int64_t>(i + 5000), 0, i + 5000,
                   i + 5000));
    for (std::uint64_t i = 0; i < 1000; ++i)
      EXPECT_TRUE(b.erase_packet(i + 5000));
    EXPECT_EQ(capacity(b), Buffer::kShrinkFloor);
    EXPECT_EQ(b.size(), 10u);
  });
}

TEST(Buffer, CapacityStaysWithinFourTimesTheLiveEntries) {
  // A queue that travels (fills, drains, refills) holds capacity for what
  // it holds now, never for the largest queue it saw.
  for_each_layout([](Buffer& b) {
    std::uint64_t next = 0;
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 3000; ++i, ++next)
        b.push(entry(static_cast<std::int64_t>(next), 0, next, next));
      while (!b.empty()) {
        b.pop_min();
        EXPECT_LE(capacity(b),
                  std::max<std::size_t>(Buffer::kShrinkFloor,
                                        4 * b.size() + 3))
            << "size " << b.size();
      }
    }
  });
}

/// Which keys the property test draws for each push.
enum class KeyShape { kFifo, kLifo, kArbitrary };

/// Seeded random interleavings of push, pop_min and erase_packet against a
/// heap and a ring fed the same operations: their pop sequences, front(),
/// size() and ordered_entries() must agree at every step.
void check_equivalence(KeyShape shape, std::uint64_t seed) {
  Rng rng(seed);
  Buffer heap(Buffer::Layout::kHeap);
  Buffer ring(Buffer::Layout::kRing);
  std::vector<PacketId> live;
  std::uint64_t seq = 0;
  PacketId next_packet = 0;
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t dice = rng.next() % 100;
    if (dice < 55 || live.empty()) {
      const auto s = static_cast<std::int64_t>(seq);
      BufferEntry e{0, 0, seq, next_packet};
      switch (shape) {
        case KeyShape::kFifo:
          e.k1 = s;
          break;
        case KeyShape::kLifo:
          e.k1 = -s;
          break;
        case KeyShape::kArbitrary:
          // Few distinct keys, so the (k2, seq, packet) tie-breaks matter.
          e.k1 = static_cast<std::int64_t>(rng.next() % 7) - 3;
          e.k2 = static_cast<std::int64_t>(rng.next() % 3);
          e.seq = rng.next() % 50;
          break;
      }
      ++seq;
      heap.push(e);
      ring.push(e);
      live.push_back(next_packet++);
    } else if (dice < 90) {
      const BufferEntry a = heap.pop_min();
      const BufferEntry b = ring.pop_min();
      ASSERT_EQ(a.packet, b.packet) << "op " << op;
      live.erase(std::find(live.begin(), live.end(), a.packet));
    } else {
      const std::size_t i = rng.next() % live.size();
      ASSERT_TRUE(heap.erase_packet(live[i]));
      ASSERT_TRUE(ring.erase_packet(live[i]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_EQ(heap.size(), ring.size());
    ASSERT_EQ(heap.size(), live.size());
    if (!heap.empty()) {
      ASSERT_EQ(heap.front().packet, ring.front().packet) << "op " << op;
      ASSERT_EQ(heap.max_entry().packet, ring.max_entry().packet);
    }
    if (op % 97 == 0) {
      const std::vector<BufferEntry> x = heap.ordered_entries();
      const std::vector<BufferEntry> y = ring.ordered_entries();
      ASSERT_EQ(x.size(), y.size());
      for (std::size_t i = 0; i < x.size(); ++i)
        ASSERT_EQ(x[i].packet, y[i].packet) << "op " << op << " entry " << i;
      // A ring iterates in key order already.
      std::size_t i = 0;
      for (const BufferEntry& e : ring) ASSERT_EQ(e.packet, y[i++].packet);
    }
  }
  while (!heap.empty())
    ASSERT_EQ(heap.pop_min().packet, ring.pop_min().packet);
  EXPECT_TRUE(ring.empty());
}

TEST(BufferEquivalence, RingMatchesHeapUnderFifoKeys) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    check_equivalence(KeyShape::kFifo, seed);
}

TEST(BufferEquivalence, RingMatchesHeapUnderLifoKeys) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    check_equivalence(KeyShape::kLifo, seed);
}

TEST(BufferEquivalence, RingMatchesHeapUnderArbitraryKeys) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    check_equivalence(KeyShape::kArbitrary, seed);
}

}  // namespace
}  // namespace aqt
