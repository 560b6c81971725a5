// Scripted RunRequests: the explicit (w, r) injection patterns and Lemma
// 3.3 reroutes of the paper, written as data and checked where every
// request is checked.  parse_run_request checks the shape of the events
// (SRV004/SRV005); Registry::compile checks them against the graph, the
// protocol, `steps` and the declared audit (SRV009), and collects every
// finding into one message with a line per finding.
//
// The ScenarioParserTest and LintTest suites keep the names of the
// scenario-file checks these requests replace (LintRenderTest, over the
// wire, is in server_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "aqt/runner/run_spec.hpp"
#include "aqt/serve/registry.hpp"
#include "aqt/serve/request.hpp"

namespace aqt {
namespace serve {
namespace {

/// A scripted request document: `events` is the JSON array's body and
/// `extra` more top-level members.
std::string scripted(const std::string& topology, const std::string& events,
                     const std::string& extra = "",
                     const std::string& protocol = "FIFO") {
  return R"({"aqt_run_request": 1, "topology": ")" + topology +
         R"(", "protocol": ")" + protocol +
         R"(", "adversary": {"kind": "scripted", "events": [)" + events +
         R"(]}, "steps": 100)" + extra + "}";
}

/// The RequestError that parsing and compiling `text` raises.
RequestError rejection(const std::string& text) {
  try {
    (void)Registry().compile(parse_run_request(text, "test"));
  } catch (const RequestError& e) {
    return e;
  }
  ADD_FAILURE() << "accepted: " << text;
  return RequestError("", "");
}

/// True when a compile rejection names `finding` at events[i].
bool names(const RequestError& e, std::size_t i, const std::string& finding) {
  const std::string line =
      "events[" + std::to_string(i) + "]: " + finding + ": ";
  const std::string message = e.what();
  return e.code() == errc::kBadParam &&
         (message.rfind(line, 0) == 0 ||
          message.find("\n" + line) != std::string::npos);
}

RunResult run(const std::string& text) {
  return execute_run(Registry().compile(parse_run_request(text, "test")));
}

// --- Shape: parse_run_request ----------------------------------------------

TEST(ScenarioParserTest, ParsesEveryDirective) {
  const RunRequest req = parse_run_request(
      scripted("ring:6",
               R"({"t": 1, "route": ["r0", "r1", "r2"], "tag": 7},)"
               R"({"t": 5, "route": ["r3"]},)"
               R"({"t": 9, "packet": 0, "suffix": ["r3", "r4"]})",
               R"(, "seed": 42, "audit": {"w": 12, "r": "1/3"})", "LIS"),
      "test");
  EXPECT_EQ(req.topology, "ring:6");
  EXPECT_EQ(req.seed, 42u);
  EXPECT_EQ(req.protocol, "LIS");
  EXPECT_EQ(req.audit_w, 12);
  EXPECT_EQ(req.audit_r, Rat(1, 3));
  const std::vector<ScriptEvent>& events = req.adversary.events;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_FALSE(events[0].reroute);
  EXPECT_EQ(events[0].t, 1);
  EXPECT_EQ(events[0].edges, (std::vector<std::string>{"r0", "r1", "r2"}));
  EXPECT_EQ(events[0].tag, 7u);
  EXPECT_EQ(events[1].tag, 0u);  // Tag defaults to 0.
  EXPECT_TRUE(events[2].reroute);
  EXPECT_EQ(events[2].packet, 0u);
  EXPECT_EQ(events[2].edges, (std::vector<std::string>{"r3", "r4"}));
}

TEST(ScenarioParserTest, RoundTripsThroughToText) {
  const RunRequest a = parse_run_request(
      scripted("grid:3x3",
               R"({"t": 2, "route": ["h0_0", "h0_1"], "tag": 3},)"
               R"({"t": 4, "packet": 0, "suffix": ["d0_2"]})",
               R"(, "audit": {"w": 8, "r": "1/2"})", "FTG"),
      "test");
  const std::string canonical = canonical_request_json(a);
  EXPECT_NE(canonical.find(R"("events":[{"t":2,"route":["h0_0","h0_1"],)"
                           R"("tag":3},{"t":4,"packet":0,)"
                           R"("suffix":["d0_2"]}])"),
            std::string::npos)
      << canonical;
  const RunRequest b = parse_run_request(canonical, "round-trip");
  EXPECT_EQ(canonical_request_json(b), canonical);
  ASSERT_EQ(b.adversary.events.size(), 2u);
  EXPECT_EQ(b.adversary.events[1].edges, a.adversary.events[1].edges);
}

TEST(ScenarioParserTest, RejectsUnknownDirective) {
  const RequestError e = rejection(
      scripted("ring:3", R"({"t": 1, "route": ["r0"], "frobnicate": 1})"));
  EXPECT_EQ(e.code(), errc::kUnknownField) << e.what();
  EXPECT_NE(std::string(e.what()).find("events[0]"), std::string::npos);
  // An injection takes no reroute fields, and a reroute no tag.
  EXPECT_EQ(rejection(scripted("ring:3", R"({"t": 1, "route": ["r0"],)"
                                         R"( "packet": 0})"))
                .code(),
            errc::kUnknownField);
  EXPECT_EQ(rejection(scripted("ring:3", R"({"t": 1, "route": ["r0"]},)"
                                         R"({"t": 2, "packet": 0,)"
                                         R"( "suffix": ["r1"], "tag": 1})"))
                .code(),
            errc::kUnknownField);
}

TEST(ScenarioParserTest, RejectsMissingTopology) {
  EXPECT_EQ(rejection(R"({"aqt_run_request": 1, "protocol": "FIFO",)"
                      R"( "adversary": {"kind": "scripted", "events": []},)"
                      R"( "steps": 10})")
                .code(),
            errc::kMissingField);
  // A request names its protocol; there is no default.
  EXPECT_EQ(rejection(R"({"aqt_run_request": 1, "topology": "ring:3",)"
                      R"( "adversary": {"kind": "scripted", "events": []},)"
                      R"( "steps": 10})")
                .code(),
            errc::kMissingField);
  EXPECT_EQ(rejection(R"({"aqt_run_request": 1, "topology": "ring:3",)"
                      R"( "protocol": "FIFO", "adversary": {"kind":)"
                      R"( "scripted"}, "steps": 10})")
                .code(),
            errc::kMissingField);
  const RequestError no_suffix =
      rejection(scripted("ring:3", R"({"t": 1, "route": ["r0"]},)"
                                   R"({"t": 2, "packet": 0})"));
  EXPECT_EQ(no_suffix.code(), errc::kMissingField);
  EXPECT_NE(std::string(no_suffix.what()).find("events[1] needs \"suffix\""),
            std::string::npos)
      << no_suffix.what();
}

TEST(ScenarioParserTest, RejectsMalformedInteger) {
  EXPECT_EQ(rejection(scripted("ring:3", R"({"t": "soon", "route": ["r0"]})"))
                .code(),
            errc::kBadField);
  EXPECT_EQ(rejection(scripted("ring:3", R"({"t": 1, "route": []})")).code(),
            errc::kBadField);
  EXPECT_EQ(rejection(scripted("ring:3", R"({"t": 1, "route": ["r0"],)"
                                         R"( "tag": -1})"))
                .code(),
            errc::kBadField);
}

TEST(ScriptedRequest, EventsAreOnlyForTheScriptedKind) {
  EXPECT_EQ(rejection(R"({"aqt_run_request": 1, "topology": "ring:3",)"
                      R"( "protocol": "FIFO", "adversary": {"kind": "none",)"
                      R"( "events": []}, "steps": 10})")
                .code(),
            errc::kUnknownField);
  EXPECT_EQ(rejection(R"({"aqt_run_request": 1, "topology": "ring:3",)"
                      R"( "protocol": "FIFO", "adversary": {"kind":)"
                      R"( "scripted", "events": [], "r": "1/4"}, "steps": 10})")
                .code(),
            errc::kUnknownField);
}

// --- Findings: Registry::compile -------------------------------------------

TEST(LintTest, AcceptsFeasibleWindowScenario) {
  const RunResult result =
      run(scripted("ring:6",
                   R"({"t": 1, "route": ["r0", "r1"]},)"
                   R"({"t": 8, "route": ["r0"]})",
                   R"(, "audit": {"w": 6, "r": "1/3"})"));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.injected, 2u);
}

TEST(LintTest, AcceptsLegalRerouteUnderHistoricProtocol) {
  // After step 2's sends packet 0 waits in r1's buffer, so r2 continues
  // its route.
  const RunResult result =
      run(scripted("ring:6",
                   R"({"t": 1, "route": ["r0", "r1"]},)"
                   R"({"t": 2, "packet": 0, "suffix": ["r2"]})",
                   R"(, "drain": true)"));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.absorbed, 1u);
  EXPECT_EQ(result.max_latency, 3);
}

TEST(LintTest, RejectsInvalidTopologySpec) {
  EXPECT_EQ(rejection(scripted("moebius:7", "")).code(),
            errc::kUnknownTopology);
}

TEST(LintTest, RejectsUnknownProtocol) {
  EXPECT_EQ(rejection(scripted("ring:3", "", "", "TELEPATHY")).code(),
            errc::kUnknownProtocol);
}

TEST(LintTest, RejectsDanglingEdgeNameWithLineNumber) {
  const RequestError e = rejection(
      scripted("ring:3", R"({"t": 1, "route": ["r0"]},)"
                         R"({"t": 2, "route": ["r0", "r9"]})"));
  EXPECT_TRUE(names(e, 1, "dangling-edge")) << e.what();
  EXPECT_NE(std::string(e.what()).find("'r9'"), std::string::npos);
}

TEST(LintTest, RejectsDiscontiguousRoute) {
  // r0 and r2 do not share a node on ring:6.
  const RequestError e =
      rejection(scripted("ring:6", R"({"t": 1, "route": ["r0", "r2"]})"));
  EXPECT_TRUE(names(e, 0, "route-not-path")) << e.what();
}

TEST(LintTest, RejectsNonSimpleRoute) {
  // The full cycle revisits its start node: a path, but not simple (§2).
  const RequestError e = rejection(scripted(
      "ring:6", R"({"t": 1, "route": ["r0", "r1", "r2", "r3", "r4", "r5"]})"));
  EXPECT_TRUE(names(e, 0, "route-not-simple")) << e.what();
}

TEST(LintTest, RejectsInjectionBeforeStepOne) {
  const RequestError e =
      rejection(scripted("ring:3", R"({"t": 0, "route": ["r0"]})"));
  EXPECT_EQ(e.code(), errc::kBadField);
  EXPECT_NE(std::string(e.what()).find("events[0]: inject-time-invalid"),
            std::string::npos)
      << e.what();
}

TEST(LintTest, RejectsInvalidWindowDeclaration) {
  EXPECT_EQ(rejection(scripted("ring:3", R"({"t": 1, "route": ["r0"]})",
                               R"(, "audit": {"w": 0, "r": "1/2"})"))
                .code(),
            errc::kBadField);
}

TEST(LintTest, RejectsWindowInfeasibleScript) {
  // Budget floor(2 * 1/2) = 1 per edge per 2-step window; two injections
  // cross r0 at steps 1 and 2.
  const RequestError e = rejection(
      scripted("ring:6",
               R"({"t": 1, "route": ["r0"]}, {"t": 2, "route": ["r0", "r1"]})",
               R"(, "audit": {"w": 2, "r": "1/2"})"));
  EXPECT_TRUE(names(e, 1, "window-infeasible")) << e.what();
}

TEST(LintTest, RejectsRateInfeasibleScript) {
  // Interval [1, 1] allows ceil(1/2 * 1) = 1 crossing of r0, not two.
  const RequestError e = rejection(
      scripted("ring:6",
               R"({"t": 1, "route": ["r0"]}, {"t": 1, "route": ["r0", "r1"]})",
               R"(, "audit": {"r": "1/2"})"));
  EXPECT_TRUE(names(e, 1, "rate-infeasible")) << e.what();
}

TEST(ScriptedRequest, RejectsBucketInfeasibleScript) {
  // A (1, 1/4) bucket allows floor(1 + 1/4 * 2) = 1 crossing in [1, 2].
  const RequestError e = rejection(
      scripted("ring:6",
               R"({"t": 1, "route": ["r0"]}, {"t": 2, "route": ["r0"]})",
               R"(, "audit": {"burst": 1, "r": "1/4"})"));
  EXPECT_TRUE(names(e, 1, "bucket-infeasible")) << e.what();
}

TEST(ScriptedRequest, RerouteSuffixIsChargedAtItsTargetsInjection) {
  // Alone, each injection fits a (4, 1/4) window on r2; the reroute at
  // t=3 adds a second r2 crossing charged at t=1.
  const std::string events = R"({"t": 1, "route": ["r0", "r1"]},)"
                             R"({"t": 2, "route": ["r2"]})";
  const std::string audit = R"(, "audit": {"w": 4, "r": "1/4"})";
  EXPECT_TRUE(run(scripted("ring:6", events, audit)).ok());
  const RequestError e = rejection(scripted(
      "ring:6", events + R"(, {"t": 3, "packet": 0, "suffix": ["r2"]})",
      audit));
  EXPECT_TRUE(names(e, 2, "window-infeasible")) << e.what();
}

TEST(LintTest, RejectsRerouteUnderNonHistoricProtocol) {
  const RequestError e = rejection(
      scripted("ring:6",
               R"({"t": 1, "route": ["r0", "r1"]},)"
               R"({"t": 2, "packet": 0, "suffix": ["r2"]})",
               "", "NTG"));
  EXPECT_TRUE(names(e, 1, "reroute-nonhistoric")) << e.what();
}

TEST(LintTest, RejectsRerouteOfUnknownPacket) {
  const RequestError e = rejection(
      scripted("ring:6",
               R"({"t": 1, "route": ["r0", "r1"]},)"
               R"({"t": 2, "packet": 5, "suffix": ["r2"]})"));
  EXPECT_TRUE(names(e, 1, "reroute-unknown-packet")) << e.what();
}

TEST(LintTest, RejectsRerouteBeforeTargetInjection) {
  const RequestError e = rejection(
      scripted("ring:6",
               R"({"t": 4, "route": ["r0", "r1"]},)"
               R"({"t": 4, "packet": 0, "suffix": ["r2"]})"));
  EXPECT_TRUE(names(e, 1, "reroute-too-early")) << e.what();
}

TEST(LintTest, RejectsDiscontiguousRerouteSuffix) {
  // r4's tail is node 4, which the target's route never reaches.
  const RequestError e = rejection(
      scripted("ring:6",
               R"({"t": 1, "route": ["r0", "r1"]},)"
               R"({"t": 2, "packet": 0, "suffix": ["r4"]})"));
  EXPECT_TRUE(names(e, 1, "reroute-discontiguous")) << e.what();
}

TEST(ScriptedRequest, RejectsAnEventAfterSteps) {
  const RequestError e =
      rejection(scripted("ring:3", R"({"t": 101, "route": ["r0"]})"));
  EXPECT_TRUE(names(e, 0, "event-after-steps")) << e.what();
}

TEST(LintTest, CollectsAllFindingsInsteadOfFailingFast) {
  const RequestError e = rejection(scripted(
      "ring:6",
      R"({"t": 3, "route": ["r0", "r9"]},)"
      R"({"t": 2, "route": ["r0", "r1", "r2", "r3", "r4", "r5"]},)"
      R"({"t": 4, "packet": 7, "suffix": ["r1"]},)"
      R"({"t": 200, "route": ["r0"]})"));
  EXPECT_TRUE(names(e, 0, "dangling-edge")) << e.what();
  EXPECT_TRUE(names(e, 1, "event-out-of-order")) << e.what();
  EXPECT_TRUE(names(e, 1, "route-not-simple")) << e.what();
  EXPECT_TRUE(names(e, 2, "reroute-unknown-packet")) << e.what();
  EXPECT_TRUE(names(e, 3, "event-after-steps")) << e.what();
  // One line per finding.
  const std::string message = e.what();
  EXPECT_EQ(std::count(message.begin(), message.end(), '\n'), 4) << message;
}

TEST(ScriptedRequest, PacketIsTheIndexAmongInjections) {
  // The reroute targets packet 1, the second injection, whatever the
  // events between them.
  RunObservers observers;
  std::ostringstream trace;
  observers.run_trace = &trace;
  const RunResult result = execute_run(
      Registry().compile(parse_run_request(
          scripted("line:7",
                   R"({"t": 1, "route": ["l1", "l2", "l3", "l4", "l5"],)"
                   R"( "tag": 200},)"
                   R"({"t": 2, "route": ["l0", "l1", "l2", "l3", "l4"],)"
                   R"( "tag": 100},)"
                   R"({"t": 3, "packet": 1, "suffix": ["l2"]})"),
          "test")),
      observers);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_NE(trace.str().find("\nJ 1 100 0 1 2 3 4\n"), std::string::npos);
  EXPECT_NE(trace.str().find("\nR 1 2\n"), std::string::npos)
      << trace.str();
}

TEST(ScriptedRequest, TheTwoFaultsOfScenarioFilesAreRejectedBeforeStepOne) {
  // Listed out of time order, "packet 0" of the scenario file meant the
  // t=2 injection but rerouted the t=1 one.
  const RequestError order = rejection(scripted(
      "line:7",
      R"({"t": 2, "route": ["l0", "l1", "l2", "l3", "l4"], "tag": 100},)"
      R"({"t": 1, "route": ["l1", "l2", "l3", "l4", "l5"], "tag": 200},)"
      R"({"t": 3, "packet": 0, "suffix": ["l4"]})"));
  EXPECT_TRUE(names(order, 1, "event-out-of-order")) << order.what();
  // A script that breaks its own declared window runs no step.
  const RequestError window = rejection(scripted(
      "ring:6",
      R"({"t": 1, "route": ["r0", "r1", "r2"]},)"
      R"({"t": 2, "route": ["r0", "r1", "r2"]},)"
      R"({"t": 3, "route": ["r0", "r1", "r2"]},)"
      R"({"t": 4, "route": ["r0", "r1", "r2"]})",
      R"(, "audit": {"w": 6, "r": "1/3"})"));
  EXPECT_TRUE(names(window, 2, "window-infeasible")) << window.what();
}

}  // namespace
}  // namespace serve
}  // namespace aqt
