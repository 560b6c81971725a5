// Tests for adversary schedules: recording from the engine's record
// stream, persisting as a run trace, and replaying.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "aqt/adversaries/lps.hpp"
#include "aqt/adversaries/scripted.hpp"
#include "aqt/core/engine.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/obs/events.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/trace/run_trace.hpp"
#include "aqt/trace/trace.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/hash.hpp"

namespace aqt {
namespace {

TEST(Trace, RecordsInOrder) {
  Trace trace;
  trace.record_injection(1, Injection{{0}, 5});
  trace.record_reroute(2, 0, {1, 2});
  trace.record_injection(2, Injection{{1}, 6});
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.injection_count(), 2u);
  EXPECT_EQ(trace.last_time(), 2);
  EXPECT_EQ(trace.events()[0].kind, TraceEvent::Kind::kInjection);
  EXPECT_EQ(trace.events()[1].kind, TraceEvent::Kind::kReroute);
}

TEST(Trace, RejectsTimeRegression) {
  Trace trace;
  trace.record_injection(5, Injection{{0}, 0});
  EXPECT_THROW(trace.record_injection(4, Injection{{0}, 0}),
               PreconditionError);
}

/// One Lemma 3.6 hand-off under FIFO from C(200, F) with `sink` attached;
/// returns the steps it took.
Time run_handoff(const ChainedGadgets& net, const LpsConfig& cfg,
                 RunTraceSink& sink) {
  EngineConfig ec;
  ec.sinks.trace = &sink;
  FifoProtocol fifo;
  Engine eng(net.graph, fifo, ec);
  setup_gadget_invariant(eng, net, 0, 200);
  LpsHandoff phase(net, cfg, 0);
  while (!phase.finished(eng.now() + 1)) eng.step(&phase);
  return eng.now();
}

LpsConfig handoff_config() {
  LpsConfig cfg = make_lps_config(Rat(7, 10));
  cfg.enforce_s0 = false;
  return cfg;
}

TEST(Trace, RecordedLpsScheduleReplaysToTheSameTraceHash) {
  // The recorder rides the engine's record stream beside the run-trace
  // writer; replaying what it recorded under FIFO reproduces the run
  // record for record, reroutes included.
  const LpsConfig cfg = handoff_config();
  const ChainedGadgets net = build_chain(cfg.n, 2);
  Trace trace;
  ScheduleRecorder rec(trace);
  RunTraceWriter original(net.graph, RunTraceMeta{});
  obs::RunTraceFanout both;
  both.add(&original).add(&rec);
  const Time duration = run_handoff(net, cfg, *both.as_sink());
  ASSERT_GT(trace.size(), trace.injection_count()) << "no reroute recorded";

  RunTraceWriter replayed(net.graph, RunTraceMeta{});
  EngineConfig ec;
  ec.sinks.trace = &replayed;
  FifoProtocol fifo;
  Engine eng(net.graph, fifo, ec);
  setup_gadget_invariant(eng, net, 0, 200);
  ReplayAdversary replay(trace);
  eng.run(&replay, duration);
  EXPECT_EQ(replay.skipped_reroutes(), 0u);
  EXPECT_TRUE(replay.finished(eng.now() + 1));
  EXPECT_EQ(hash_hex(replayed.content_hash()),
            hash_hex(original.content_hash()));
}

TEST(Trace, ReplayReproducesIdenticalRun) {
  const Graph g = make_grid(3, 3);
  // Record a run.
  Trace trace;
  {
    ScheduleRecorder rec(trace);
    EngineConfig ec;
    ec.sinks.trace = &rec;
    FifoProtocol fifo;
    Engine eng(g, fifo, ec);
    ScriptedAdversary inner;
    inner.inject_at(1, {g.edge_by_name("h0_0"), g.edge_by_name("h0_1")}, 1);
    inner.inject_at(2, {g.edge_by_name("d0_0")}, 2);
    inner.inject_at(2, {g.edge_by_name("h0_0")}, 3);
    inner.inject_at(5, {g.edge_by_name("h1_0"), g.edge_by_name("h1_1")}, 4);
    eng.run(&inner, 10);
  }
  ASSERT_EQ(trace.injection_count(), 4u);
  EXPECT_EQ(trace.events()[0].t, 1);
  EXPECT_EQ(trace.events()[0].tag, 1u);
  EXPECT_EQ(trace.events()[3].t, 5);
  // Replay and compare observables.
  FifoProtocol fifo;
  Engine eng(g, fifo);
  ReplayAdversary replay(trace);
  eng.run(&replay, 10);
  EXPECT_EQ(eng.total_injected(), 4u);
  EXPECT_EQ(eng.total_absorbed(), 4u);
  EXPECT_EQ(replay.skipped_reroutes(), 0u);
  EXPECT_TRUE(replay.finished(11));
}

TEST(Trace, ReplayLpsRunMatchesOriginalUnderFifo) {
  // Record a full bootstrap+handoff under FIFO, then replay the trace under
  // FIFO again: the executions must match in aggregate observables.
  const LpsConfig cfg = handoff_config();
  const ChainedGadgets net = build_chain(cfg.n, 2);

  Trace trace;
  std::uint64_t orig_injected = 0;
  std::uint64_t orig_absorbed = 0;
  std::int64_t orig_target_s = 0;
  Time duration = 0;
  {
    ScheduleRecorder rec(trace);
    EngineConfig ec;
    ec.sinks.trace = &rec;
    FifoProtocol fifo;
    Engine eng(net.graph, fifo, ec);
    setup_gadget_invariant(eng, net, 0, 200);
    LpsHandoff phase(net, cfg, 0);
    while (!phase.finished(eng.now() + 1)) eng.step(&phase);
    orig_injected = eng.total_injected();
    orig_absorbed = eng.total_absorbed();
    orig_target_s = inspect_gadget(eng, net, 1).S();
    duration = eng.now();
  }
  {
    FifoProtocol fifo;
    Engine eng(net.graph, fifo);
    setup_gadget_invariant(eng, net, 0, 200);
    ReplayAdversary replay(trace);
    eng.run(&replay, duration);
    EXPECT_EQ(eng.total_injected(), orig_injected);
    EXPECT_EQ(eng.total_absorbed(), orig_absorbed);
    EXPECT_EQ(inspect_gadget(eng, net, 1).S(), orig_target_s);
    EXPECT_EQ(replay.skipped_reroutes(), 0u);
  }
}

TEST(Trace, ReplayUnderDifferentProtocolSkipsImpossibleReroutes) {
  // Record under FIFO, replay under LIS: injections replay verbatim; any
  // reroute whose target moved differently is skipped, not crashed.
  const LpsConfig cfg = handoff_config();
  const ChainedGadgets net = build_chain(cfg.n, 2);

  Trace trace;
  ScheduleRecorder rec(trace);
  const Time duration = run_handoff(net, cfg, rec);
  LisProtocol lis;
  Engine eng(net.graph, lis);
  setup_gadget_invariant(eng, net, 0, 200);
  ReplayAdversary replay(trace);
  EXPECT_NO_THROW(eng.run(&replay, duration));
  EXPECT_EQ(eng.total_injected() - 400,  // Minus the initial configuration.
            trace.injection_count());
}

TEST(Trace, FileRoundtripAndMissingFileErrors) {
  // A schedule persists as a run trace: its J and R records, fed back
  // through a ScheduleRecorder, rebuild exactly what was recorded live.
  const LpsConfig cfg = handoff_config();
  const ChainedGadgets net = build_chain(cfg.n, 2);
  const std::string path = ::testing::TempDir() + "/aqt_trace_io.aqtt";
  Trace live;
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    RunTraceWriter writer(out, net.graph, RunTraceMeta{});
    ScheduleRecorder rec(live);
    obs::RunTraceFanout both;
    both.add(&writer).add(&rec);
    (void)run_handoff(net, cfg, *both.as_sink());
    writer.finish(0, 0);  // Footer totals are checked by aqt-verify only.
  }
  Trace rebuilt;
  ScheduleRecorder rec(rebuilt);
  replay_records(parse_run_trace_file(path), rec);
  ASSERT_EQ(rebuilt.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(rebuilt.events()[i].kind, live.events()[i].kind) << i;
    EXPECT_EQ(rebuilt.events()[i].t, live.events()[i].t) << i;
    EXPECT_EQ(rebuilt.events()[i].tag, live.events()[i].tag) << i;
    EXPECT_EQ(rebuilt.events()[i].ordinal, live.events()[i].ordinal) << i;
    EXPECT_EQ(rebuilt.events()[i].edges, live.events()[i].edges) << i;
  }
  std::remove(path.c_str());
  EXPECT_THROW((void)parse_run_trace_file(path), PreconditionError);
}

TEST(Trace, ReplayStartedMidTraceThrows) {
  const Graph g = make_line(2);
  Trace trace;
  trace.record_injection(1, Injection{{0}, 0});
  FifoProtocol fifo;
  Engine eng(g, fifo);
  eng.step(nullptr);  // Engine already at t=1; replay would start at t=2.
  ReplayAdversary replay(trace);
  EXPECT_THROW(eng.step(&replay), PreconditionError);
}

}  // namespace
}  // namespace aqt
