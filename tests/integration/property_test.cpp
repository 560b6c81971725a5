// Cross-cutting property tests: invariants that must hold for every
// protocol, topology, and adversary combination.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "aqt/adversaries/stochastic.hpp"
#include "aqt/core/engine.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/core/rate_check.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/util/rng.hpp"

namespace aqt {
namespace {

// gtest names each instance after the raw bytes of its parameter, so the
// protocol name is held inline: a std::string would put a heap address into
// the test names and make them differ from one build to the next.
struct Combo {
  char protocol[32];
  std::uint64_t seed;
};

class EngineProperties : public ::testing::TestWithParam<Combo> {};

StochasticConfig traffic_config(std::uint64_t seed) {
  StochasticConfig cfg;
  cfg.w = 10;
  cfg.r = Rat(3, 10);
  cfg.max_route_len = 4;
  cfg.seed = seed;
  cfg.attempts_per_step = 3;
  return cfg;
}

TEST_P(EngineProperties, PacketConservation) {
  const Combo combo = GetParam();
  const Graph g = make_grid(4, 4);
  auto protocol = make_protocol(combo.protocol, combo.seed);
  Engine eng(g, *protocol);
  StochasticAdversary adv(g, traffic_config(combo.seed));
  eng.run(&adv, 1500);
  EXPECT_EQ(eng.total_injected(),
            eng.total_absorbed() + eng.packets_in_flight());
}

TEST_P(EngineProperties, GreedySendsFromEveryNonemptyBuffer) {
  const Combo combo = GetParam();
  const Graph g = make_grid(3, 3);
  auto protocol = make_protocol(combo.protocol, combo.seed);
  Engine eng(g, *protocol);
  StochasticAdversary adv(g, traffic_config(combo.seed));
  for (int t = 0; t < 400; ++t) {
    std::size_t nonempty = 0;
    for (EdgeId e = 0; e < g.edge_count(); ++e)
      if (!eng.buffer(e).empty()) ++nonempty;
    const std::uint64_t before = eng.metrics().sends();
    eng.step(&adv);
    EXPECT_EQ(eng.metrics().sends() - before, nonempty) << "t=" << t;
  }
}

TEST_P(EngineProperties, DeterministicReplay) {
  const Combo combo = GetParam();
  auto run = [&]() {
    const Graph g = make_grid(3, 4);
    auto protocol = make_protocol(combo.protocol, combo.seed);
    Engine eng(g, *protocol);
    StochasticAdversary adv(g, traffic_config(combo.seed));
    eng.run(&adv, 800);
    return std::make_tuple(eng.total_injected(), eng.total_absorbed(),
                           eng.metrics().max_queue_global(),
                           eng.metrics().max_residence_global(),
                           eng.metrics().sends());
  };
  EXPECT_EQ(run(), run());
}

TEST_P(EngineProperties, AbsorbedLatencyIsAtLeastRouteLengthLowerBound) {
  const Combo combo = GetParam();
  const Graph g = make_line(6);
  auto protocol = make_protocol(combo.protocol, combo.seed);
  Engine eng(g, *protocol);
  // One packet per step along the full line: latency >= 6 always.
  StochasticConfig cfg;
  cfg.w = 6;
  cfg.r = Rat(1, 6);
  cfg.max_route_len = 6;
  cfg.seed = combo.seed;
  StochasticAdversary adv(g, cfg);
  eng.run(&adv, 1000);
  if (eng.total_absorbed() > 0) {
    EXPECT_GE(eng.metrics().mean_latency(), 1.0);
    EXPECT_GE(eng.metrics().max_latency(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolSweep, EngineProperties,
    ::testing::Values(Combo{"FIFO", 1}, Combo{"LIFO", 2}, Combo{"LIS", 3},
                      Combo{"NIS", 4}, Combo{"FTG", 5}, Combo{"NTG", 6},
                      Combo{"FFS", 7}, Combo{"NTS", 8}, Combo{"RANDOM", 9}),
    [](const ::testing::TestParamInfo<Combo>& param_info) {
      return std::string(param_info.param.protocol);
    });

TEST(FifoOrderProperty, GlobalFifoOrderPerBuffer) {
  // In a FIFO run, the sequence of arrival_seq values popped from any given
  // buffer must be increasing.  Exercise via a contended hotspot.
  const Graph g = make_grid(3, 3);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  StochasticConfig cfg;
  cfg.w = 8;
  cfg.r = Rat(3, 8);
  cfg.max_route_len = 3;
  cfg.seed = 77;
  cfg.mode = StochasticConfig::Mode::kHotspot;
  StochasticAdversary adv(g, cfg);
  std::vector<std::int64_t> last_seq(g.edge_count(), -1);
  for (int t = 0; t < 600; ++t) {
    // Record the head of each buffer, then step; the popped packet is the
    // head we recorded.
    std::vector<std::pair<EdgeId, std::int64_t>> heads;
    for (EdgeId e = 0; e < g.edge_count(); ++e)
      if (!eng.buffer(e).empty())
        heads.emplace_back(
            e, static_cast<std::int64_t>(eng.buffer(e).front().seq));
    for (const auto& [e, seq] : heads) {
      EXPECT_GT(seq, last_seq[e]) << "edge " << e << " t " << t;
      last_seq[e] = seq;
    }
    eng.step(&adv);
  }
}

TEST(RandomizedStress, ManySmallRandomRunsConserveAndTerminate) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t nodes = rng.range(6, 16);
    Graph g = make_random_dag(nodes, 0.2, rng);
    const std::string proto =
        protocol_names()[rng.below(protocol_names().size())];
    auto protocol = make_protocol(proto, rng.next());
    Engine eng(g, *protocol);
    StochasticConfig cfg;
    cfg.w = 8;
    cfg.r = Rat(1, 4);
    cfg.max_route_len = 3;
    cfg.seed = rng.next();
    StochasticAdversary adv(g, cfg);
    eng.run(&adv, 400);
    EXPECT_EQ(eng.total_injected(),
              eng.total_absorbed() + eng.packets_in_flight())
        << "trial " << trial << " proto " << proto;
    // Drain: with no further injections every packet leaves within
    // (#live * d) steps.
    const Time drain_cap =
        static_cast<Time>(eng.packets_in_flight() + 1) * 4;
    eng.run(nullptr, drain_cap);
    EXPECT_EQ(eng.packets_in_flight(), 0u) << "trial " << trial;
  }
}

TEST(AuditProperty, StochasticTrafficNeverViolatesItsWindow) {
  // Double-check the budget enforcement across seeds and modes.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const auto mode : {StochasticConfig::Mode::kUniform,
                            StochasticConfig::Mode::kHotspot}) {
      const Graph g = make_grid(4, 4);
      FifoProtocol fifo;
      EngineConfig ec;
      ec.audit_rates = true;
      Engine eng(g, fifo, ec);
      StochasticConfig cfg = traffic_config(seed);
      cfg.mode = mode;
      StochasticAdversary adv(g, cfg);
      eng.run(&adv, 600);
      eng.finalize_audit();
      EXPECT_TRUE(check_window(eng.audit(), cfg.w, cfg.r).ok)
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace aqt
