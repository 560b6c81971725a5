// Tests for the step-level InvariantAuditor: healthy runs (with and without
// reroutes) pass under EngineConfig::audit_invariants, auditing does not
// perturb the simulation, and each EngineTamperer corruption — states the
// public API makes unreachable — is caught by the matching check.
#include "aqt/core/invariants.hpp"

#include <gtest/gtest.h>

#include "aqt/adversaries/scripted.hpp"
#include "aqt/adversaries/stochastic.hpp"
#include "aqt/core/engine.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/util/rational.hpp"

namespace aqt {
namespace {

EngineConfig audited() {
  EngineConfig config;
  config.audit_invariants = true;
  return config;
}

TEST(InvariantAuditorTest, HealthyStochasticRunPasses) {
  const Graph g = make_grid(4, 4);
  FifoProtocol fifo;
  Engine eng(g, fifo, audited());

  StochasticConfig cfg;
  cfg.w = 8;
  cfg.r = Rat(1, 4);
  cfg.max_route_len = 5;
  cfg.seed = 7;
  StochasticAdversary adv(g, cfg);

  eng.run(&adv, 200);
  const Time drained = eng.drain(10000);
  EXPECT_LT(drained, Time{10000});
  EXPECT_EQ(eng.packets_in_flight(), 0u);
  EXPECT_EQ(eng.total_injected(), eng.total_absorbed());
}

TEST(InvariantAuditorTest, HealthyRerouteRunPasses) {
  // A scripted reroute (Lemma 3.3, legal under the historic FIFO) must
  // audit cleanly: the packet's effective route stays a simple path.
  const Graph g = make_grid(3, 3);
  FifoProtocol fifo;
  Engine eng(g, fifo, audited());

  ScriptedAdversary adv;
  adv.inject_at(1, {g.edge_by_name("h0_0"), g.edge_by_name("h0_1")});
  // After step 2 the packet sits buffered at h0_1; extend it downwards.
  adv.reroute_at(2, 0, {g.edge_by_name("d0_2")});

  eng.run(&adv, 10);
  EXPECT_EQ(eng.total_absorbed(), 1u);
  EXPECT_EQ(eng.packets_in_flight(), 0u);
}

TEST(InvariantAuditorTest, AuditingDoesNotPerturbTheSimulation) {
  const Graph g = make_torus(3, 3);
  StochasticConfig cfg;
  cfg.w = 6;
  cfg.r = Rat(1, 3);
  cfg.max_route_len = 4;
  cfg.seed = 11;

  FifoProtocol fifo_a;
  Engine plain(g, fifo_a);
  StochasticAdversary adv_a(g, cfg);
  plain.run(&adv_a, 150);

  FifoProtocol fifo_b;
  Engine checked(g, fifo_b, audited());
  StochasticAdversary adv_b(g, cfg);
  checked.run(&adv_b, 150);

  EXPECT_EQ(plain.total_injected(), checked.total_injected());
  EXPECT_EQ(plain.total_absorbed(), checked.total_absorbed());
  EXPECT_EQ(plain.packets_in_flight(), checked.packets_in_flight());
}

// Each death test seeds exactly one corruption through EngineTamperer and
// expects the next step's audit to abort naming the violated invariant.

TEST(InvariantAuditorDeathTest, CatchesConservationViolation) {
  const Graph g = make_line(4);
  FifoProtocol fifo;
  Engine eng(g, fifo, audited());
  eng.add_initial_packet({0, 1, 2});
  EngineTamperer::phantom_absorption(eng);
  EXPECT_DEATH(eng.step(nullptr), "packet conservation");
}

TEST(InvariantAuditorDeathTest, CatchesNonSimpleRoute) {
  const Graph g = make_line(4);
  FifoProtocol fifo;
  Engine eng(g, fifo, audited());
  const PacketId id = eng.add_initial_packet({0, 1, 2});
  EngineTamperer::make_route_nonsimple(eng, id);
  EXPECT_DEATH(eng.step(nullptr), "route simplicity");
}

TEST(InvariantAuditorDeathTest, CatchesActiveSetDesync) {
  const Graph g = make_line(4);
  FifoProtocol fifo;
  Engine eng(g, fifo, audited());
  eng.add_initial_packet({0, 1});
  EngineTamperer::hide_active(eng, 0);  // Nonempty buffer, silently idled.
  EXPECT_DEATH(eng.step(nullptr), "active-set consistency");
}

TEST(InvariantAuditorDeathTest, CatchesForgedSequenceNumber) {
  const Graph g = make_line(4);
  FifoProtocol fifo;
  Engine eng(g, fifo, audited());
  // Two packets share buffer l0; the forged entry is the one left behind
  // after the step forwards the (now) minimal genuine entry.
  eng.add_initial_packet({0, 1});
  eng.add_initial_packet({0, 1});
  EngineTamperer::scramble_buffer_seq(eng, 0);
  EXPECT_DEATH(eng.step(nullptr), "time-priority");
}

TEST(InvariantAuditorDeathTest, CatchesForgedSequenceNumberInADeepLifoRing) {
  // LIFO buffers are key-sorted rings (buffer.hpp); the forged entry is
  // re-pushed at the back of a 300-entry ring and must still be caught.
  const Graph g = make_line(4);
  LifoProtocol lifo;
  ASSERT_EQ(Buffer::layout_for(lifo.key_rule()), Buffer::Layout::kRing);
  Engine eng(g, lifo, audited());
  for (int i = 0; i < 300; ++i) eng.add_initial_packet({0, 1});
  eng.run(nullptr, 10);
  EngineTamperer::scramble_buffer_seq(eng, 0);
  EXPECT_EQ(eng.queue_size(0), 290u);
  EXPECT_DEATH(eng.step(nullptr), "time-priority");
}

}  // namespace
}  // namespace aqt
