// Scenario files as jobs: the scripted RunSpec every entry point runs
// (aqt-sim --scenario and --batch, aqt-lint), its trace header, the
// failure of a scripted reroute that cannot apply, and the borrowed
// observers execute_run takes for a watched run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "aqt/obs/events.hpp"
#include "aqt/obs/profiler.hpp"
#include "aqt/runner/run_spec.hpp"
#include "aqt/trace/run_trace.hpp"
#include "aqt/util/hash.hpp"
#include "aqt/verify/scenario_run.hpp"
#include "aqt/verify/verifier.hpp"

namespace aqt {
namespace {

std::string example(const std::string& name) {
  return std::string(AQT_SOURCE_DIR) + "/examples/scenarios/" + name +
         ".aqts";
}

RunSpec example_spec(const std::string& name) {
  return make_scenario_spec(load_scenario_run(example(name)), name, 1);
}

/// Runs `spec` with its trace bytes captured.
std::string recorded_trace(const RunSpec& spec, RunResult& result) {
  std::ostringstream os;
  RunObservers observers;
  observers.run_trace = &os;
  result = execute_run(spec, observers);
  return os.str();
}

TEST(ScriptedSpec, HeaderCarriesTheDigestAndTheDeclarationAuditedOrNot) {
  RunSpec plain = example_spec("ring_convoy");
  RunResult result;
  const std::string trace = recorded_trace(plain, result);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_NE(trace.find("\ndigest " + file_digest_hex(example("ring_convoy")) +
                       "\n"),
            std::string::npos);
  EXPECT_NE(trace.find("\nwindow 6 1/3\n"), std::string::npos);
  EXPECT_NE(trace.find("\nhash " + hash_hex(result.trace_hash) + "\n"),
            std::string::npos);

  // Auditing the declared window checks the run without changing it.
  RunSpec audited = example_spec("ring_convoy");
  audited.audit_w = 6;
  audited.audit_r = Rat(1, 3);
  const RunResult checked = execute_run(audited);
  ASSERT_TRUE(checked.ok()) << checked.error;
  EXPECT_TRUE(checked.feasible);
  EXPECT_EQ(checked.trace_hash, result.trace_hash);
}

TEST(ScriptedSpec, LpsRerouteExampleRecordsARerouteTheVerifierAccepts) {
  RunResult result;
  const std::string trace =
      recorded_trace(example_spec("lps_reroute"), result);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_NE(trace.find("\nR 0 "), std::string::npos);
  std::istringstream is(trace);
  const VerifyReport report =
      verify_run_trace(parse_run_trace(is, "lps_reroute"), "lps_reroute");
  EXPECT_TRUE(report.ok()) << to_human({report});
}

TEST(ScriptedSpec, ARerouteThatCannotApplyFailsTheRunAndTheLint) {
  // The example as it stood before its fix: at t=5 packet 0 waits on
  // g1.e3, so a suffix that starts where a2 ends cannot continue its route.
  const std::string path = ::testing::TempDir() + "/aqt_stale_reroute.aqts";
  {
    std::ofstream out(path);
    out << "topology lps:4x2\nprotocol FIFO\nrate 7/10\n"
           "inject t=1 route=a1>g1.e1>g1.e2>g1.e3>g1.e4>a2 tag=1\n"
           "inject t=3 route=g1.f1>g1.f2>g1.f3>g1.f4 tag=2\n"
           "reroute t=5 packet=0 suffix=g2.f1>g2.f2>g2.f3>g2.f4>a3\n";
  }
  const RunResult result =
      execute_run(make_scenario_spec(load_scenario_run(path), "stale", 1));
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("t=5 packet=0"), std::string::npos)
      << result.error;

  const LintReport report = lint_and_run_file(path);
  ASSERT_EQ(report.findings.size(), 1u) << to_human({report});
  EXPECT_EQ(report.findings[0].code, "run-failed");
  EXPECT_NE(report.findings[0].message.find("t=5 packet=0"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ExecuteRun, ObserversWatchTheRunWithoutChangingIt) {
  const RunSpec spec = example_spec("torus_hotspot");
  const RunResult bare = execute_run(spec);
  ASSERT_TRUE(bare.ok()) << bare.error;

  std::ostringstream trace;
  std::ostringstream events_os;
  const Graph graph = spec.topology.build();
  obs::JsonlEventWriter events(events_os, graph);
  obs::StepProfiler profiler;
  RunObservers observers;
  observers.run_trace = &trace;
  observers.events = &events;
  observers.phases = &profiler;
  const RunResult watched = execute_run(spec, observers);
  ASSERT_TRUE(watched.ok()) << watched.error;
  EXPECT_EQ(watched.trace_hash, bare.trace_hash);
  EXPECT_NE(trace.str().find("\nhash " + hash_hex(bare.trace_hash)),
            std::string::npos);
  EXPECT_EQ(profiler.report().steps,
            static_cast<std::uint64_t>(watched.steps_run));
  const std::string lines = events_os.str();
  const auto begin = lines.find("\"name\":\"run-begin\"");
  const auto drain = lines.find("\"name\":\"drain-begin\"");
  const auto end = lines.find("\"name\":\"run-end\"");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(drain, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  EXPECT_LT(begin, drain);
  EXPECT_LT(drain, end);
}

}  // namespace
}  // namespace aqt
