#include "aqt/obs/events.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "aqt/core/engine.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/util/check.hpp"

namespace aqt::obs {
namespace {

/// Run a small deterministic workload with the event writer attached and
/// return the parsed stream.
std::vector<ObsEvent> record_ring_run(std::uint64_t* lines = nullptr) {
  const Graph g = make_ring(6);
  FifoProtocol fifo;
  std::ostringstream os;
  JsonlEventWriter writer(os, g);
  EngineConfig cfg;
  cfg.sinks.trace = &writer;
  Engine eng(g, fifo, cfg);
  writer.milestone(0, "run-begin");
  eng.add_initial_packet({0, 1, 2}, 7);
  eng.add_initial_packet({3, 4}, 8);

  struct Once final : Adversary {
    bool done = false;
    void step(Time t, const Engine&, AdversaryStep& out) override {
      if (t == 2 && !done) {
        out.injections.push_back(Injection{{1, 2, 3}, 9});
        done = true;
      }
    }
  } adv;
  eng.run(&adv, 12);
  writer.milestone(eng.now(), "run-end");
  if (lines != nullptr) *lines = writer.lines_written();
  std::istringstream is(os.str());
  return parse_jsonl_events(is, "test");
}

TEST(Events, RoundTripMatchesRunShape) {
  std::uint64_t lines = 0;
  const std::vector<ObsEvent> events = record_ring_run(&lines);
  EXPECT_EQ(events.size(), lines);

  std::map<std::uint64_t, int> injects;
  std::map<std::uint64_t, int> sends;
  std::map<std::uint64_t, int> absorbs;
  int milestones = 0;
  for (const ObsEvent& ev : events) {
    switch (ev.kind) {
      case ObsEvent::Kind::kInject:
        ++injects[ev.packet];
        break;
      case ObsEvent::Kind::kSend:
        ++sends[ev.packet];
        break;
      case ObsEvent::Kind::kAbsorb:
        ++absorbs[ev.packet];
        break;
      case ObsEvent::Kind::kMilestone:
        ++milestones;
        break;
    }
  }
  // Three packets, each injected once, sent once per route edge, absorbed
  // once; two milestones bracket the run.
  EXPECT_EQ(injects.size(), 3u);
  EXPECT_EQ(absorbs.size(), 3u);
  EXPECT_EQ(milestones, 2);
  EXPECT_EQ(sends[0], 3);  // Route {0,1,2}.
  EXPECT_EQ(sends[1], 2);  // Route {3,4}.
  EXPECT_EQ(sends[2], 3);  // Injected route {1,2,3}.
}

TEST(Events, StreamIsOrderedAndInternallyConsistent) {
  const std::vector<ObsEvent> events = record_ring_run();
  std::map<std::uint64_t, Time> inject_time;
  std::map<std::uint64_t, std::uint64_t> next_hop;
  Time last_t = 0;
  for (const ObsEvent& ev : events) {
    EXPECT_GE(ev.t, last_t) << "events must be time-ordered";
    last_t = ev.t;
    if (ev.kind == ObsEvent::Kind::kInject) {
      EXPECT_FALSE(ev.route.empty());
      inject_time[ev.packet] = ev.t;
    } else if (ev.kind == ObsEvent::Kind::kSend) {
      ASSERT_TRUE(inject_time.count(ev.packet)) << "send before inject";
      EXPECT_EQ(ev.hop, next_hop[ev.packet]++) << "hops must be sequential";
      EXPECT_GE(ev.residence, 1);
    } else if (ev.kind == ObsEvent::Kind::kAbsorb) {
      ASSERT_TRUE(inject_time.count(ev.packet));
      EXPECT_EQ(ev.latency, ev.t - inject_time[ev.packet]);
    }
  }
}

TEST(Events, InitialPacketsAreFlaggedInitial) {
  const std::vector<ObsEvent> events = record_ring_run();
  for (const ObsEvent& ev : events) {
    if (ev.kind != ObsEvent::Kind::kInject) continue;
    EXPECT_EQ(ev.initial, ev.t == 0);
  }
}

TEST(Events, ParserAcceptsEscapesAndBlankLines) {
  std::istringstream is(
      "{\"ev\":\"milestone\",\"t\":0,\"name\":\"a\\\"b\\\\c\\u0041\"}\n"
      "\n"
      "{\"ev\":\"absorb\",\"t\":3,\"packet\":2,\"latency\":1}\n");
  const auto events = parse_jsonl_events(is, "inline");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a\"b\\cA");
  EXPECT_EQ(events[1].latency, 1);
}

TEST(Events, ParserRejectsMalformedInputWithDiagnostics) {
  const auto reject = [](const std::string& text) {
    std::istringstream is(text);
    EXPECT_THROW(parse_jsonl_events(is, "bad"), PreconditionError) << text;
  };
  reject("not json\n");
  reject("{\"t\":1}\n");                                     // No "ev".
  reject("{\"ev\":\"warp\",\"t\":1}\n");                     // Unknown kind.
  reject("{\"ev\":\"inject\",\"t\":1}\n");                   // No route.
  reject("{\"ev\":\"send\",\"t\":1,\"packet\":0}\n");        // No edge.
  reject("{\"ev\":\"milestone\",\"t\":1}\n");                // No name.
  reject("{\"ev\":\"absorb\",\"t\":1,\"bogus\":2}\n");       // Unknown key.
  reject("{\"ev\":\"absorb\",\"t\":1,\"packet\":-2}\n");     // Negative u64.
  reject("{\"ev\":\"absorb\",\"t\":99999999999999999999}\n");  // Overflow.
  reject("{\"ev\":\"absorb\",\"t\":1} trailing\n");
  reject("{\"ev\":\"absorb\",\"t\":1");                      // Truncated.
}

}  // namespace
}  // namespace aqt::obs
