// Differential tests: the production Engine against the independently
// written ReferenceSimulator, on randomized scripts, for every
// deterministic protocol.  Any observable divergence (queue contents in
// forwarding order, absorption counts) fails.
#include <gtest/gtest.h>

#include "aqt/core/engine.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/core/reference.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/rng.hpp"

namespace aqt {
namespace {

/// A random timed script of injections (no reroutes), generated once and
/// applied to both simulators.
struct Script {
  std::vector<std::vector<Injection>> per_step;  // [t-1] = step t's work.
};

Script random_script(const Graph& g, Rng& rng, Time steps) {
  Script s;
  s.per_step.resize(static_cast<std::size_t>(steps));
  std::uint64_t tag = 1;
  for (auto& step : s.per_step) {
    const std::int64_t count = rng.range(0, 3);
    for (std::int64_t i = 0; i < count; ++i) {
      // Random simple route: walk forward from a random edge.
      Route route;
      std::vector<bool> visited(g.node_count(), false);
      EdgeId e = static_cast<EdgeId>(rng.below(g.edge_count()));
      route.push_back(e);
      visited[g.tail(e)] = visited[g.head(e)] = true;
      while (route.size() < 4) {
        const auto& outs = g.out_edges(g.head(route.back()));
        Route options;
        for (EdgeId o : outs)
          if (!visited[g.head(o)]) options.push_back(o);
        if (options.empty() || rng.chance(0.35)) break;
        const EdgeId pick = options[rng.below(options.size())];
        visited[g.head(pick)] = true;
        route.push_back(pick);
      }
      step.push_back(Injection{std::move(route), tag++});
    }
  }
  return s;
}

/// Engine-side adversary that plays a Script.
class ScriptPlayer final : public Adversary {
 public:
  explicit ScriptPlayer(const Script& script) : script_(script) {}
  void step(Time now, const Engine&, AdversaryStep& out) override {
    const auto idx = static_cast<std::size_t>(now - 1);
    if (idx >= script_.per_step.size()) return;
    for (const auto& inj : script_.per_step[idx])
      out.injections.push_back(inj);
  }

 private:
  const Script& script_;
};

/// Extracts the engine's observable state in the reference's format.
ReferenceSnapshot engine_snapshot(const Engine& eng) {
  ReferenceSnapshot snap;
  snap.now = eng.now();
  snap.injected = eng.total_injected();
  snap.absorbed = eng.total_absorbed();
  snap.queue_tags.resize(eng.graph().edge_count());
  for (EdgeId e = 0; e < eng.graph().edge_count(); ++e)
    for (const BufferEntry& be : eng.buffer(e).ordered_entries())
      snap.queue_tags[e].push_back(eng.packet_meta(be.packet).tag);
  return snap;
}

void expect_equal(const ReferenceSnapshot& a, const ReferenceSnapshot& b,
                  const std::string& context) {
  EXPECT_EQ(a.now, b.now) << context;
  EXPECT_EQ(a.injected, b.injected) << context;
  EXPECT_EQ(a.absorbed, b.absorbed) << context;
  ASSERT_EQ(a.queue_tags.size(), b.queue_tags.size()) << context;
  for (std::size_t e = 0; e < a.queue_tags.size(); ++e)
    EXPECT_EQ(a.queue_tags[e], b.queue_tags[e])
        << context << " edge " << e;
}

class Differential : public ::testing::TestWithParam<std::string> {};

TEST_P(Differential, RandomScriptsAgreeStepByStep) {
  const std::string protocol_name = GetParam();
  Rng rng(std::hash<std::string>{}(protocol_name) & 0xffff);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = make_grid(3, 3);
    const Script script = random_script(g, rng, /*steps=*/60);

    auto protocol = make_protocol(protocol_name);
    Engine eng(g, *protocol);
    ScriptPlayer player(script);
    ReferenceSimulator ref(g, protocol_name);

    for (Time t = 1; t <= 80; ++t) {
      eng.step(&player);
      const auto idx = static_cast<std::size_t>(t - 1);
      static const std::vector<Injection> kNone;
      ref.step(idx < script.per_step.size() ? script.per_step[idx] : kNone,
               {});
      expect_equal(engine_snapshot(eng), ref.snapshot(),
                   protocol_name + " trial " + std::to_string(trial) +
                       " t " + std::to_string(t));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST_P(Differential, InitialConfigurationAgrees) {
  const std::string protocol_name = GetParam();
  const Graph g = make_line(4);
  auto protocol = make_protocol(protocol_name);
  Engine eng(g, *protocol);
  ReferenceSimulator ref(g, protocol_name);
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    const auto from = static_cast<EdgeId>(rng.below(3));
    Route route;
    for (EdgeId e = from; e < 4; ++e) route.push_back(e);
    eng.add_initial_packet(route, static_cast<std::uint64_t>(i));
    ref.add_initial_packet(route, static_cast<std::uint64_t>(i));
  }
  for (Time t = 1; t <= 20; ++t) {
    eng.step(nullptr);
    ref.step({}, {});
    expect_equal(engine_snapshot(eng), ref.snapshot(),
                 protocol_name + " t " + std::to_string(t));
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(DeterministicProtocols, Differential,
                         ::testing::Values("FIFO", "LIFO", "LIS", "NIS",
                                           "FTG", "NTG", "FFS", "NTS"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(DifferentialReroute, HistoricProtocolsAgreeUnderReroutes) {
  // Replay a scripted run with a mid-flight reroute on both simulators.
  const Graph g = make_grid(3, 3);
  const Route start = {g.edge_by_name("h0_0"), g.edge_by_name("d0_1")};
  const Route suffix = {g.edge_by_name("h1_1")};
  for (const char* proto : {"FIFO", "LIFO", "LIS", "NIS", "FFS", "NTS"}) {
    auto protocol = make_protocol(proto);
    Engine eng(g, *protocol);
    ReferenceSimulator ref(g, proto);
    const PacketId id = eng.add_initial_packet(start, 7);
    ref.add_initial_packet(start, 7);
    // Step 1: the packet crosses h0_0 and waits at d0_1; the reroute then
    // extends its (empty) remainder beyond d0_1 with h1_1 on both sides.
    struct OneShot final : Adversary {
      PacketId id;
      Route suffix;
      bool fired = false;
      void step(Time, const Engine&, AdversaryStep& out) override {
        if (fired) return;
        fired = true;
        out.reroutes.push_back(Reroute{id, suffix});
      }
    } once;
    once.id = id;
    once.suffix = suffix;
    eng.step(&once);
    ref.step({}, {{eng.packet_meta(id).ordinal, suffix}});
    for (Time t = 2; t <= 8; ++t) {
      eng.step(nullptr);
      ref.step({}, {});
    }
    EXPECT_EQ(eng.total_absorbed(), ref.absorbed()) << proto;
    EXPECT_EQ(eng.packets_in_flight(), 0u) << proto;
  }
}

TEST(DifferentialReroute, RandomRerouteFuzzAgrees) {
  // Randomized suffix extensions of random live packets, applied to both
  // simulators, across every historic deterministic protocol.
  for (const char* proto :
       {"FIFO", "LIFO", "LIS", "NIS", "FFS", "NTS"}) {
    Rng rng(std::hash<std::string>{}(proto) ^ 0xabcdu);
    const Graph g = make_grid(4, 4);
    auto protocol = make_protocol(proto);
    Engine eng(g, *protocol);
    ReferenceSimulator ref(g, proto);
    const Script script = random_script(g, rng, /*steps=*/50);

    // Per step: play the script plus, sometimes, one random legal reroute.
    struct Driver final : Adversary {
      const Script* script = nullptr;
      std::vector<Reroute> pending;
      void step(Time now, const Engine&, AdversaryStep& out) override {
        const auto idx = static_cast<std::size_t>(now - 1);
        if (idx < script->per_step.size())
          for (const auto& inj : script->per_step[idx])
            out.injections.push_back(inj);
        for (auto& rr : pending) out.reroutes.push_back(std::move(rr));
        pending.clear();
      }
    } driver;
    driver.script = &script;

    for (Time t = 1; t <= 70; ++t) {
      // Choose a reroute target among live packets, if any.
      std::vector<ReferenceSimulator::RefReroute> ref_rr;
      // Candidates: buffered packets that will NOT be forwarded this step
      // (not at a buffer front), so the suffix computed now still splices
      // at the same position when the reroute applies in substep 2.
      std::vector<PacketId> live;
      for (EdgeId e = 0; e < g.edge_count(); ++e) {
        const Buffer& buf = eng.buffer(e);
        if (buf.size() < 2) continue;
        bool first = true;
        for (const BufferEntry& be : buf.ordered_entries()) {
          if (!first) live.push_back(be.packet);
          first = false;
        }
      }
      if (rng.chance(0.4) && !live.empty()) {
        const PacketId id = live[rng.below(live.size())];
        const Packet& p = eng.packet(id);
        // Random forward extension from the head of the current edge that
        // keeps the whole route simple.
        std::vector<bool> used(g.node_count(), false);
        for (std::size_t h = 0; h <= p.hop; ++h) {
          used[g.tail(p.route[h])] = true;
          used[g.head(p.route[h])] = true;
        }
        Route suffix;
        NodeId at = g.head(p.route[p.hop]);
        for (int len = 0; len < 3; ++len) {
          Route options;
          for (EdgeId e : g.out_edges(at))
            if (!used[g.head(e)]) options.push_back(e);
          if (options.empty()) break;
          const EdgeId pick = options[rng.below(options.size())];
          suffix.push_back(pick);
          at = g.head(pick);
          used[at] = true;
        }
        driver.pending.push_back(Reroute{id, suffix});
        ref_rr.push_back(ReferenceSimulator::RefReroute{
            eng.packet_meta(id).ordinal, suffix});
      }
      eng.step(&driver);
      const auto idx = static_cast<std::size_t>(t - 1);
      static const std::vector<Injection> kNone;
      ref.step(idx < script.per_step.size() ? script.per_step[idx] : kNone,
               ref_rr);
      expect_equal(engine_snapshot(eng), ref.snapshot(),
                   std::string(proto) + " t " + std::to_string(t));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(ReferenceSimulator, RejectsUnknownProtocol) {
  const Graph g = make_line(2);
  EXPECT_THROW(ReferenceSimulator(g, "RANDOM"), PreconditionError);
  EXPECT_THROW(ReferenceSimulator(g, "BOGUS"), PreconditionError);
}

TEST(ReferenceSimulator, RejectsLateInitialPackets) {
  const Graph g = make_line(2);
  ReferenceSimulator ref(g, "FIFO");
  ref.step({}, {});
  EXPECT_THROW(ref.add_initial_packet({0}), PreconditionError);
}

TEST(ReferenceSimulator, RerouteOfUnknownPacketThrows) {
  const Graph g = make_line(3);
  ReferenceSimulator ref(g, "FIFO");
  EXPECT_THROW(ref.step({}, {{42, {1}}}), PreconditionError);
}

}  // namespace
}  // namespace aqt
