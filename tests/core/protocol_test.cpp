#include "aqt/core/protocol.hpp"

#include <gtest/gtest.h>

#include "aqt/util/check.hpp"

#include "aqt/core/engine.hpp"

namespace aqt {
namespace {

Packet make_packet(Time inject, std::uint32_t hop, std::size_t route_len) {
  // Protocol keys never read past route metadata, so a static all-zero
  // backing array is enough to give the RouteRef a valid target.
  static const Route backing(16, 0);
  Packet p;
  p.route = RouteRef{backing.data(), static_cast<std::uint32_t>(route_len)};
  p.hop = hop;
  p.inject_time = inject;
  return p;
}

TEST(ProtocolFactory, KnowsAllNames) {
  for (const auto& name : protocol_names()) {
    auto p = make_protocol(name);
    ASSERT_NE(p, nullptr) << name;
    // SIS aliases NIS; every other protocol reports its own name.
    if (name != "SIS") {
      EXPECT_EQ(p->name(), name);
    }
  }
}

TEST(ProtocolFactory, SisAliasesNis) {
  EXPECT_EQ(make_protocol("SIS")->name(), "NIS");
}

TEST(ProtocolFactory, UnknownNameThrows) {
  EXPECT_THROW(make_protocol("BOGUS"), PreconditionError);
}

TEST(ProtocolClassification, MatchesPaper) {
  // Definition 3.1 (historic) and Definition 4.2 (time-priority).
  struct Case {
    const char* name;
    bool historic;
    bool time_priority;
  };
  const Case cases[] = {
      {"FIFO", true, true},   {"LIFO", true, false}, {"LIS", true, true},
      {"NIS", true, false},   {"FTG", false, false}, {"NTG", false, false},
      {"FFS", true, false},   {"NTS", true, false},  {"RANDOM", true, false},
  };
  for (const auto& c : cases) {
    auto p = make_protocol(c.name);
    EXPECT_EQ(p->is_historic(), c.historic) << c.name;
    EXPECT_EQ(p->is_time_priority(), c.time_priority) << c.name;
  }
}

TEST(Protocol, FifoOrdersByArrivalSeq) {
  FifoProtocol fifo;
  const Packet p = make_packet(0, 0, 1);
  const auto k1 = fifo.key(p, 5, 10);
  const auto k2 = fifo.key(p, 5, 20);
  EXPECT_LT(k1.k1, k2.k1);
}

TEST(Protocol, LifoPrefersLatestArrival) {
  LifoProtocol lifo;
  const Packet p = make_packet(0, 0, 1);
  EXPECT_GT(lifo.key(p, 5, 10).k1, lifo.key(p, 5, 20).k1);
}

TEST(Protocol, LisPrefersEarliestInjection) {
  LisProtocol lis;
  const Packet older = make_packet(3, 0, 1);
  const Packet newer = make_packet(8, 0, 1);
  EXPECT_LT(lis.key(older, 10, 1).k1, lis.key(newer, 10, 2).k1);
}

TEST(Protocol, NisPrefersLatestInjection) {
  NisProtocol nis;
  const Packet older = make_packet(3, 0, 1);
  const Packet newer = make_packet(8, 0, 1);
  EXPECT_GT(nis.key(older, 10, 1).k1, nis.key(newer, 10, 2).k1);
}

TEST(Protocol, FtgPrefersMostRemaining) {
  FtgProtocol ftg;
  const Packet far = make_packet(0, 0, 10);   // 10 remaining.
  const Packet near = make_packet(0, 0, 2);   // 2 remaining.
  EXPECT_LT(ftg.key(far, 1, 1).k1, ftg.key(near, 1, 2).k1);
}

TEST(Protocol, NtgPrefersLeastRemaining) {
  NtgProtocol ntg;
  const Packet far = make_packet(0, 0, 10);
  const Packet near = make_packet(0, 0, 2);
  EXPECT_GT(ntg.key(far, 1, 1).k1, ntg.key(near, 1, 2).k1);
}

TEST(Protocol, FfsPrefersMostTraversed) {
  FfsProtocol ffs;
  const Packet deep = make_packet(0, 5, 10);
  const Packet fresh = make_packet(0, 0, 10);
  EXPECT_LT(ffs.key(deep, 1, 1).k1, ffs.key(fresh, 1, 2).k1);
}

TEST(Protocol, NtsPrefersLeastTraversed) {
  NtsProtocol nts;
  const Packet deep = make_packet(0, 5, 10);
  const Packet fresh = make_packet(0, 0, 10);
  EXPECT_GT(nts.key(deep, 1, 1).k1, nts.key(fresh, 1, 2).k1);
}

TEST(Protocol, LambdaProtocolDelegates) {
  // A custom "shortest total route first" policy.
  LambdaProtocol srf("SRF", /*historic=*/false, /*time_priority=*/false,
                     [](const Packet& p, Time, std::uint64_t seq) {
                       return PriorityKey{
                           static_cast<std::int64_t>(p.route.size()),
                           static_cast<std::int64_t>(seq)};
                     });
  EXPECT_EQ(srf.name(), "SRF");
  EXPECT_FALSE(srf.is_historic());
  const Packet shorty = make_packet(0, 0, 2);
  const Packet longy = make_packet(0, 0, 9);
  EXPECT_LT(srf.key(shorty, 1, 1).k1, srf.key(longy, 1, 2).k1);
}

TEST(Protocol, LambdaProtocolRunsInEngine) {
  // Behaviourally identical to FIFO when keyed on the arrival sequence.
  LambdaProtocol fifo_clone("FIFO2", true, true,
                            [](const Packet&, Time, std::uint64_t seq) {
                              return PriorityKey{
                                  static_cast<std::int64_t>(seq), 0};
                            });
  Graph g;
  g.add_edge("a", "b", "ab");
  g.add_edge("b", "c", "bc");
  Engine eng(g, fifo_clone);
  const PacketId first =
      eng.add_initial_packet({g.edge_by_name("ab"), g.edge_by_name("bc")});
  eng.add_initial_packet({g.edge_by_name("ab")});
  eng.step(nullptr);
  EXPECT_EQ(eng.packet(first).hop, 1u);
}

TEST(Protocol, LambdaProtocolValidatesArguments) {
  const auto key = [](const Packet&, Time, std::uint64_t) {
    return PriorityKey{};
  };
  EXPECT_THROW(LambdaProtocol("", true, true, key), PreconditionError);
  EXPECT_THROW(LambdaProtocol("X", true, true, nullptr), PreconditionError);
}

TEST(Protocol, RandomIsSeedDeterministic) {
  RandomProtocol a(99);
  RandomProtocol b(99);
  const Packet p = make_packet(0, 0, 1);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(a.key(p, 1, 1).k1, b.key(p, 1, 1).k1);
}

}  // namespace
}  // namespace aqt
