// Scripted requests as jobs: the example requests every entry point runs
// (aqt-sim --request and --batch, aqt-serve), their trace header, the
// failure of a scripted reroute that cannot apply, and the borrowed
// observers execute_run takes for a watched run.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "aqt/obs/events.hpp"
#include "aqt/obs/profiler.hpp"
#include "aqt/runner/run_spec.hpp"
#include "aqt/serve/registry.hpp"
#include "aqt/serve/request.hpp"
#include "aqt/trace/run_trace.hpp"
#include "aqt/util/hash.hpp"
#include "aqt/verify/verifier.hpp"

namespace aqt {
namespace {

/// An example request file, compiled as aqt-sim --request compiles it.
RunSpec example_spec(const std::string& name) {
  std::ifstream in(std::string(AQT_SOURCE_DIR) + "/examples/requests/" +
                   name + ".json");
  std::ostringstream text;
  text << in.rdbuf();
  return serve::Registry().compile(serve::parse_run_request(text.str(), name));
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
  const RunSpec audited = example_spec("ring_convoy");
  RunResult result;
  const std::string trace = recorded_trace(audited, result);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.feasible);
  // A request has no scenario file: the digest line is the placeholder.
  EXPECT_NE(trace.find("\ndigest -\nwindow 6 1/3\n"), std::string::npos);
  EXPECT_NE(trace.find("\nhash " + hash_hex(result.trace_hash) + "\n"),
            std::string::npos);

  // Declaring the window without auditing it records the same run.
  RunSpec plain = example_spec("ring_convoy");
  plain.header = audit_header(plain);
  plain.audit_w.reset();
  plain.audit_r.reset();
  const RunResult unchecked = execute_run(plain);
  ASSERT_TRUE(unchecked.ok()) << unchecked.error;
  EXPECT_EQ(unchecked.trace_hash, result.trace_hash);
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

TEST(ScriptedSpec, ARerouteThatCannotApplyFailsTheRun) {
  // lps_reroute as it stood before its fix: at t=5 packet 0 waits on
  // g1.e3, so a suffix that starts where a2 ends cannot continue its
  // route.  That depends on the run, so compile accepts it and the run
  // fails, naming the event.
  const RunResult result = execute_run(
      serve::Registry().compile(serve::parse_run_request(
          R"({"aqt_run_request": 1, "topology": "lps:4x2",)"
          R"( "protocol": "FIFO", "adversary": {"kind": "scripted",)"
          R"( "events": [)"
          R"({"t": 1, "route": ["a1", "g1.e1", "g1.e2", "g1.e3", "g1.e4",)"
          R"( "a2"], "tag": 1},)"
          R"({"t": 3, "route": ["g1.f1", "g1.f2", "g1.f3", "g1.f4"],)"
          R"( "tag": 2},)"
          R"({"t": 5, "packet": 0, "suffix": ["g2.f1", "g2.f2", "g2.f3",)"
          R"( "g2.f4", "a3"]}]},)"
          R"( "steps": 100, "audit": {"r": "7/10"}})",
          "stale")));
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("t=5 packet=0"), std::string::npos)
      << result.error;
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
