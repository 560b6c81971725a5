// The runner API contract: RunSpec/RunResult semantics, the deterministic
// parallel run-pool's byte-identical-to-serial guarantee, exception
// containment, and the EngineSinks deprecated aliases.
#include "aqt/runner/pool.hpp"
#include "aqt/runner/run_spec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "aqt/adversaries/stochastic.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/experiments/sweep.hpp"
#include "aqt/obs/export.hpp"
#include "aqt/obs/profiler.hpp"
#include "aqt/topology/gadget.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/trace/run_trace.hpp"
#include "aqt/util/check.hpp"
#include "aqt/verify/scenario_run.hpp"

namespace aqt {
namespace {

AdversaryFactory stochastic_factory(std::int64_t w, Rat r,
                                    std::int64_t max_route_len) {
  return [w, r, max_route_len](const Graph& g, std::uint64_t s) {
    StochasticConfig cfg;
    cfg.w = w;
    cfg.r = r;
    cfg.max_route_len = max_route_len;
    cfg.seed = s;
    return std::make_unique<StochasticAdversary>(g, cfg);
  };
}

RunSpec stochastic_spec(const std::string& protocol, std::uint64_t seed) {
  RunSpec spec;
  spec.topology = {"grid3x3", [] { return make_grid(3, 3); }};
  spec.protocol = protocol;
  spec.seed = seed;
  spec.steps = 300;
  spec.adversary = stochastic_factory(12, Rat(1, 4), 3);
  spec.artifacts.trace_hash = true;
  spec.artifacts.metrics = true;
  return spec;
}

/// The scripted ring_convoy scenario from the examples tree.
RunSpec ring_convoy_spec() {
  ScenarioRun srun = load_scenario_run(
      std::string(AQT_SOURCE_DIR) + "/examples/scenarios/ring_convoy.aqts");
  return make_scripted_spec("ring_convoy", srun.topology.graph,
                            srun.scenario.protocol, std::move(srun.script),
                            std::max<Time>(srun.last_event + 1, 400));
}

/// An F_n gadget chain under stochastic traffic.
RunSpec gadget_spec(std::uint64_t seed) {
  auto net = std::make_shared<const ChainedGadgets>(build_chain(3, 2));
  RunSpec spec;
  spec.topology = {"fn_chain3x2", [net] { return net->graph; }};
  spec.protocol = "FIFO";
  spec.seed = seed;
  spec.steps = 300;
  spec.adversary = stochastic_factory(10, Rat(1, 5), 3);
  spec.artifacts.trace_hash = true;
  spec.artifacts.metrics = true;
  return spec;
}

/// The mixed batch the determinism tests compare across --jobs values:
/// sweep cells, the scripted ring_convoy scenario, and F_n gadget runs.
std::vector<RunSpec> mixed_batch() {
  SweepConfig sweep;
  sweep.protocols = {"FIFO", "NTG"};
  sweep.topologies = {{"ring8", [] { return make_ring(8); }},
                      {"grid3x3", [] { return make_grid(3, 3); }}};
  sweep.seeds = {1, 2};
  sweep.steps = 300;
  sweep.traffic.w = 12;
  sweep.traffic.r = Rat(1, 4);
  sweep.traffic.max_route_len = 3;

  std::vector<RunSpec> specs = sweep_specs(sweep);
  for (RunSpec& spec : specs) spec.artifacts.trace_hash = true;
  specs.push_back(ring_convoy_spec());
  specs.push_back(gadget_spec(5));
  specs.push_back(gadget_spec(6));
  specs.push_back(stochastic_spec("LIS", 9));
  return specs;
}

/// Byte-exact serialization of a result batch (what a CSV writer would
/// emit), for whole-batch equality assertions.
std::string serialize(const std::vector<RunResult>& results) {
  std::ostringstream os;
  for (const RunResult& r : results) {
    os << r.index << ',' << r.name << ',' << r.protocol << ','
       << r.topology << ',' << r.seed << ',' << r.steps_run << ','
       << r.injected << ',' << r.absorbed << ',' << r.in_flight << ','
       << r.max_queue << ',' << r.max_residence << ',' << r.max_latency
       << ',' << r.trace_hash << ',' << r.feasible << ',' << r.error;
    for (const auto& [key, value] : r.extra)
      os << ',' << key << '=' << value;
    os << '\n';
  }
  return os.str();
}

TEST(ExecuteRun, FillsScalarsAndArtifacts) {
  RunSpec spec = stochastic_spec("FIFO", 1);
  spec.artifacts.growth = true;
  spec.audit_w = 12;
  spec.audit_r = Rat(1, 4);
  const RunResult result = execute_run(spec);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.name, "FIFO/grid3x3/1");
  EXPECT_EQ(result.steps_run, 300);
  EXPECT_GT(result.injected, 0u);
  EXPECT_GT(result.max_queue, 0u);
  EXPECT_GE(result.injected, result.absorbed);
  EXPECT_NE(result.trace_hash, 0u);
  EXPECT_TRUE(result.feasible);
  EXPECT_NE(result.verdict, GrowthVerdict::kUndecided);
  // The metrics artifact carries the engine snapshot.
  const std::string json = obs::to_json(result.metrics, "test");
  EXPECT_NE(json.find("aqt_steps_total"), std::string::npos);
}

TEST(ExecuteRun, NeverThrowsContainsCellFailure) {
  RunSpec spec = stochastic_spec("FIFO", 1);
  spec.topology.build = []() -> Graph {
    AQT_REQUIRE(false, "recipe exploded");
    return make_ring(3);
  };
  const RunResult result = execute_run(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("recipe exploded"), std::string::npos);
}

TEST(ExecuteRun, RejectsSpecCarryingObserverSinks) {
  RunSpec spec = stochastic_spec("FIFO", 1);
  obs::StepProfiler profiler;
  spec.engine.sinks.profile = &profiler;
  const RunResult result = execute_run(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("value configuration"), std::string::npos);
}

TEST(ExecuteRun, AuditWindowRequiresRate) {
  RunSpec spec = stochastic_spec("FIFO", 1);
  spec.audit_w = 12;  // No audit_r.
  const RunResult result = execute_run(spec);
  EXPECT_FALSE(result.ok());
}

TEST(ExecuteRun, ScriptedSpecReplaysAndDrains) {
  const RunSpec spec = ring_convoy_spec();
  const RunResult result = execute_run(spec);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_GT(result.injected, 0u);
  EXPECT_EQ(result.injected, result.absorbed);  // drain_after emptied it.
  EXPECT_EQ(result.in_flight, 0u);
  EXPECT_NE(result.trace_hash, 0u);
}

TEST(RunPool, ResolveJobs) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(8), 8u);
}

TEST(RunPool, Jobs1VersusJobs8ByteIdentical) {
  const std::vector<RunSpec> specs = mixed_batch();
  const RunPoolReport serial = run_pool(specs, 1);
  const RunPoolReport parallel = run_pool(specs, 8);
  ASSERT_EQ(serial.results.size(), specs.size());
  EXPECT_EQ(serial.jobs_used, 1u);
  EXPECT_EQ(parallel.jobs_used, 8u);
  // The batch serialization (CSV rows), every per-run metrics snapshot,
  // and the pool's own merged metrics must match byte for byte.
  EXPECT_EQ(serialize(serial.results), serialize(parallel.results));
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].trace_hash, parallel.results[i].trace_hash)
        << serial.results[i].name;
    EXPECT_EQ(obs::to_json(serial.results[i].metrics, "test"),
              obs::to_json(parallel.results[i].metrics, "test"))
        << serial.results[i].name;
  }
  EXPECT_EQ(obs::to_json(serial.metrics, "test"),
            obs::to_json(parallel.metrics, "test"));
  EXPECT_EQ(obs::to_csv(serial.metrics), obs::to_csv(parallel.metrics));
}

TEST(RunPool, ExceptionInOneCellLeavesOthersIntact) {
  std::vector<RunSpec> specs;
  specs.push_back(stochastic_spec("FIFO", 1));
  RunSpec bad = stochastic_spec("FIFO", 2);
  bad.name = "bad-cell";
  bad.adversary = [](const Graph&, std::uint64_t) -> std::unique_ptr<Adversary> {
    AQT_REQUIRE(false, "adversary construction failed");
    return nullptr;
  };
  specs.push_back(std::move(bad));
  specs.push_back(stochastic_spec("NTG", 3));

  const RunPoolReport report = run_pool(specs, 4);
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_TRUE(report.results[0].ok());
  EXPECT_FALSE(report.results[1].ok());
  EXPECT_NE(report.results[1].error.find("adversary construction failed"),
            std::string::npos);
  EXPECT_TRUE(report.results[2].ok());
  // The pool metrics count the contained failure.
  const std::string csv = obs::to_csv(report.metrics);
  EXPECT_NE(csv.find("aqt_runner_cell_errors_total,,counter,value,1"),
            std::string::npos)
      << csv;
}

TEST(RunPool, ParallelForEachReportsPerIndexErrors) {
  std::atomic<int> ran{0};
  const std::vector<std::string> errors = parallel_for_each(
      5, 3,
      [&](std::size_t i) {
        ran.fetch_add(1);
        AQT_REQUIRE(i != 2, "index two is cursed");
      });
  EXPECT_EQ(ran.load(), 5);
  ASSERT_EQ(errors.size(), 5u);
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i == 2)
      EXPECT_NE(errors[i].find("index two is cursed"), std::string::npos);
    else
      EXPECT_TRUE(errors[i].empty()) << i << ": " << errors[i];
  }
}

TEST(EngineSinks, SinksAggregateDrivesObservers) {
  // Observers attach only through EngineConfig::sinks — the deprecated
  // per-sink alias fields were retired, and the compiler rejects them.
  const Graph g = make_ring(4);
  auto protocol = make_protocol("FIFO", 1);
  RunTraceMeta meta;
  meta.protocol = "FIFO";
  meta.seed = 1;
  std::ostringstream os;
  RunTraceWriter writer(os, g, meta);
  obs::StepProfiler profiler;
  EngineConfig cfg;
  cfg.sinks.trace = &writer;
  cfg.sinks.profile = &profiler;
  Engine eng(g, *protocol, cfg);
  eng.add_initial_packet({0, 1});
  eng.drain(16);
  writer.finish(eng.total_injected(), eng.total_absorbed());
  EXPECT_NE(writer.content_hash(), 0u);
  EXPECT_GT(profiler.report().steps, 0u);
}

}  // namespace
}  // namespace aqt
