// Observer-effect guard: attaching the full observability stack (phase
// trace spans + JSONL event stream + flight-recorder timeseries + online
// stability watchdog + metrics collection) to a run must leave the
// recorded run trace byte-identical — same FNV-1a content hash — to a
// bare run, and the run-pool must keep per-cell hashes identical across
// --jobs 1/2/4 with worker cell tracing on.  This is the unit-test twin
// of `aqt-fuzz --obs-trials`.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "aqt/adversaries/stochastic.hpp"
#include "aqt/core/engine.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/obs/events.hpp"
#include "aqt/obs/export.hpp"
#include "aqt/obs/profiler.hpp"
#include "aqt/obs/registry.hpp"
#include "aqt/obs/snapshot.hpp"
#include "aqt/obs/timeseries.hpp"
#include "aqt/obs/tracing.hpp"
#include "aqt/obs/watchdog.hpp"
#include "aqt/runner/pool.hpp"
#include "aqt/runner/run_spec.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/trace/run_trace.hpp"

namespace aqt::obs {
namespace {

struct WorkloadResult {
  std::uint64_t trace_hash = 0;
  std::string trace_text;
};

WorkloadResult run_workload(const Graph& g, bool observed) {
  auto protocol = make_protocol("NTG", 3);
  RunTraceMeta meta;
  meta.protocol = "NTG";
  meta.seed = 3;
  std::ostringstream trace_os;
  RunTraceWriter writer(trace_os, g, meta);
  std::ostringstream events_os;
  JsonlEventWriter events(events_os, g);
  TimeseriesConfig ts_cfg;
  ts_cfg.capacity = 16;  // Small: exercise compaction during the run.
  ts_cfg.watched = {EdgeId{0}};
  TimeseriesRecorder recorder(ts_cfg, &g);
  WatchdogConfig dog_cfg;
  dog_cfg.check_every = 32;
  dog_cfg.window = 16;
  dog_cfg.min_samples = 4;
  StabilityWatchdog watchdog(dog_cfg);
  StepSampleFanout fanout;
  fanout.add(&recorder).add(&watchdog);
  TraceEventLog trace_log;
  PhaseTraceRecorder::Config phase_cfg;
  phase_cfg.stride = 2;
  PhaseTraceRecorder phases(trace_log, phase_cfg);
  RunTraceFanout trace_sinks;
  trace_sinks.add(&writer);
  EngineConfig cfg;
  cfg.audit_invariants = true;
  if (observed) {
    cfg.sinks.profile = &phases;
    trace_sinks.add(&events);
    cfg.sinks.samples = fanout.as_sink();
  }
  cfg.sinks.trace = trace_sinks.as_sink();
  Engine eng(g, *protocol, cfg);
  StochasticConfig adv_cfg;
  adv_cfg.w = 10;
  adv_cfg.r = Rat(1, 3);
  adv_cfg.max_route_len = 4;
  adv_cfg.seed = 3;
  StochasticAdversary adv(g, adv_cfg);
  eng.run(&adv, 400);
  writer.finish(eng.total_injected(), eng.total_absorbed());

  if (observed) {
    // Collecting a snapshot must also be side-effect free on the engine.
    MetricRegistry reg;
    collect_engine_metrics(eng, reg);
    watchdog.collect_metrics(reg);
    EXPECT_GT(events.lines_written(), 0u);
    EXPECT_FALSE(recorder.rows().empty());
    EXPECT_GT(recorder.compactions(), 0u);
    EXPECT_GT(phases.recorded_steps(), 0u);
    EXPECT_GT(trace_log.size(), 0u);
    EXPECT_GT(watchdog.checks_run(), 0u);
  } else {
    EXPECT_TRUE(recorder.rows().empty());
  }
  return {writer.content_hash(), trace_os.str()};
}

TEST(ObserverEffect, FullObsStackLeavesRunTraceByteIdentical) {
  for (const auto& g : {make_grid(4, 4), make_bidirectional_ring(5)}) {
    const WorkloadResult bare = run_workload(g, false);
    const WorkloadResult observed = run_workload(g, true);
    EXPECT_EQ(bare.trace_hash, observed.trace_hash);
    EXPECT_EQ(bare.trace_text, observed.trace_text);
  }
}

TEST(ObserverEffect, PoolCellTracingKeepsHashesIdenticalAcrossJobs) {
  // The acceptance bar for the worker telemetry/tracing work: per-cell
  // run-trace hashes are a pure function of the spec, never of the jobs
  // count or of the observers attached to the pool.
  std::vector<RunSpec> specs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunSpec spec;
    spec.name = "cell" + std::to_string(seed);
    spec.topology = {"grid3x3", [] { return make_grid(3, 3); }};
    spec.protocol = seed % 2 ? "FIFO" : "NTG";
    spec.seed = seed;
    spec.steps = 200;
    spec.adversary = [](const Graph& g, std::uint64_t s) {
      StochasticConfig cfg;
      cfg.w = 10;
      cfg.r = Rat(1, 4);
      cfg.max_route_len = 3;
      cfg.seed = s;
      return std::make_unique<StochasticAdversary>(g, cfg);
    };
    spec.artifacts.trace_hash = true;
    specs.push_back(std::move(spec));
  }

  const RunPoolReport bare = run_pool(specs, 1);
  std::vector<std::uint64_t> bare_hashes;
  for (const RunResult& r : bare.results) bare_hashes.push_back(r.trace_hash);

  for (const unsigned jobs : {1u, 2u, 4u}) {
    TraceEventLog log;
    PoolOptions options;
    options.trace = &log;
    const RunPoolReport traced = run_pool(specs, jobs, options);
    ASSERT_EQ(traced.results.size(), bare_hashes.size()) << jobs << " jobs";
    for (std::size_t i = 0; i < bare_hashes.size(); ++i) {
      EXPECT_EQ(traced.results[i].trace_hash, bare_hashes[i])
          << "cell " << i << " at " << jobs << " jobs";
    }
    // One cell span per executed spec, merged in deterministic order.
    std::size_t cell_spans = 0;
    for (const TraceEvent& e : log.events())
      if (e.ph == 'X' && e.name.rfind("cell ", 0) == 0) ++cell_spans;
    EXPECT_EQ(cell_spans, specs.size()) << jobs << " jobs";
    // The jobs-invariant metric snapshot really is jobs-invariant.
    EXPECT_EQ(to_json(traced.metrics, "pool"), to_json(bare.metrics, "pool"))
        << jobs << " jobs";
  }
}

TEST(ObserverEffect, SnapshotCollectionIsRepeatable) {
  const Graph g = make_grid(3, 3);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  StochasticConfig adv_cfg;
  adv_cfg.w = 8;
  adv_cfg.r = Rat(1, 4);
  adv_cfg.max_route_len = 3;
  adv_cfg.seed = 2;
  StochasticAdversary adv(g, adv_cfg);
  eng.run(&adv, 100);

  MetricRegistry a;
  MetricRegistry b;
  collect_engine_metrics(eng, a);
  collect_engine_metrics(eng, b);
  EXPECT_EQ(to_json(a, "t"), to_json(b, "t"));
}

}  // namespace
}  // namespace aqt::obs
