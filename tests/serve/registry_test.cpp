// The RunRequest -> RunSpec compiler: name resolution (SRV006..SRV009),
// named-recipe registration, the catalog, and — the load-bearing property —
// purity: compiling the same request twice runs to identical artifacts.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "aqt/core/buffer.hpp"
#include "aqt/obs/registry.hpp"
#include "aqt/runner/run_spec.hpp"
#include "aqt/serve/registry.hpp"
#include "aqt/serve/request.hpp"
#include "aqt/serve/result.hpp"
#include "aqt/topology/generators.hpp"

namespace aqt {
namespace serve {
namespace {

RunRequest base_request() {
  RunRequest req;
  req.topology = "grid:3x3";
  req.protocol = "FIFO";
  req.adversary.kind = "stochastic";
  req.adversary.w = 8;
  req.adversary.r = Rat(1, 4);
  req.adversary.d = 4;
  req.seed = 3;
  req.steps = 500;
  return req;
}

void expect_compile_code(const Registry& registry, const RunRequest& req,
                         const std::string& code) {
  try {
    (void)registry.compile(req);
    FAIL() << "expected " << code;
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

TEST(ServeRegistry, CompilesARunnableSpec) {
  const Registry registry;
  const RunSpec spec = registry.compile(base_request());
  const RunResult result = execute_run(spec);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.steps_run, 500);
  EXPECT_NE(result.trace_hash, 0u);
}

TEST(ServeRegistry, CompilationIsPure) {
  const Registry registry;
  const RunResult a = execute_run(registry.compile(base_request()));
  const RunResult b = execute_run(registry.compile(base_request()));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(canonical_result_json(a), canonical_result_json(b));
}

TEST(ServeRegistry, ResolutionErrorsCarryStableCodes) {
  const Registry registry;

  RunRequest bad_topology = base_request();
  bad_topology.topology = "mobius:9";
  expect_compile_code(registry, bad_topology, errc::kUnknownTopology);

  RunRequest bad_protocol = base_request();
  bad_protocol.protocol = "LIFO-ISH";
  expect_compile_code(registry, bad_protocol, errc::kUnknownProtocol);

  // Cross-field consistency: an lps adversary needs an lps:NxM topology
  // whose N matches the n(r) the construction demands.
  RunRequest lps_on_grid = base_request();
  lps_on_grid.adversary.kind = "lps";
  lps_on_grid.adversary.r = Rat(7, 10);
  expect_compile_code(registry, lps_on_grid, errc::kBadParam);

  RunRequest lps_wrong_n = base_request();
  lps_wrong_n.topology = "lps:4x8";  // r=7/10 needs n=9.
  lps_wrong_n.adversary.kind = "lps";
  lps_wrong_n.adversary.r = Rat(7, 10);
  expect_compile_code(registry, lps_wrong_n, errc::kBadParam);
}

/// Value of a one-cell gauge in a metrics artifact.
double gauge_value(const RunResult& result, const std::string& name) {
  const obs::MetricRegistry::Family* fam = result.metrics.find(name);
  EXPECT_NE(fam, nullptr) << name;
  return fam == nullptr ? -1.0 : fam->cells.front().gauge.value();
}

TEST(ServeRegistry, BufferBytesGaugeTracksLivePacketsNotPeakQueues) {
  // The Theorem 3.17 construction grows a 12.8k-packet queue and moves it
  // along the chain; once it has moved on, the buffers it left must have
  // given their capacity back.  Buffers above 64 slots keep at least a
  // quarter of their slots live, so a few times the live bytes is the most
  // the finished run may hold (the parent build held 5.0 MiB here, 40
  // times the live bytes).
  const RunRequest req = parse_run_request(
      R"({"aqt_run_request": 1, "topology": "lps:9x8", "protocol": "FIFO",
          "adversary": {"kind": "lps", "r": "7/10", "iterations": 2,
                        "s_star": 800},
          "steps": 2000000, "stop_when_finished": true,
          "artifacts": ["metrics"]})",
      "buffer-bytes");
  const RunResult result = execute_run(Registry().compile(req));
  ASSERT_TRUE(result.ok()) << result.error;
  const double live = gauge_value(result, "aqt_in_flight");
  const double bytes = gauge_value(result, "aqt_buffer_bytes");
  EXPECT_GT(gauge_value(result, "aqt_max_queue_packets"), 12000.0);
  EXPECT_GT(live, 4000.0);
  EXPECT_GE(bytes, live * sizeof(BufferEntry));
  EXPECT_LE(bytes, 4.0 * live * sizeof(BufferEntry))
      << bytes << " bytes for " << live << " live packets";
}

TEST(ServeRegistry, AFailingCellNamesNoAbsoluteSourcePath) {
  // A precondition that fails inside the run (FTG is not historic, so the
  // construction's Lemma 3.3 reroutes are refused) is reported in
  // RunResult::error, and so in canonical result bytes: it must name the
  // source file relative to the source tree, so the bytes do not depend on
  // where the binary was built.
  RunRequest req = base_request();
  req.topology = "lps:9x2";
  req.protocol = "FTG";
  req.adversary.kind = "lps";
  req.adversary.r = Rat(7, 10);
  req.adversary.iterations = 1;
  req.adversary.s_star = 200;
  req.steps = 20000;
  const RunResult result = execute_run(Registry().compile(req));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("historic"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find(" at src/aqt/core/engine.cpp:"),
            std::string::npos)
      << result.error;
  EXPECT_EQ(result.error.find(AQT_SOURCE_DIR), std::string::npos)
      << result.error;
  EXPECT_EQ(canonical_result_json(result).find(AQT_SOURCE_DIR),
            std::string::npos);
}

TEST(ServeRegistry, NamedRecipesResolveAndShowInCatalog) {
  Registry registry;
  NamedTopology entry;
  entry.name = "test-backbone";
  entry.description = "a ring of 6 for the registry test";
  entry.build = [](std::uint64_t) { return make_ring(6); };
  registry.register_topology(std::move(entry));

  EXPECT_TRUE(registry.has_topology("test-backbone"));
  RunRequest req = base_request();
  req.topology = "test-backbone";
  const RunResult result = execute_run(registry.compile(req));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_NE(result.trace_hash, 0u);

  const JsonValue cat = registry.catalog();
  ASSERT_TRUE(cat.is_object());
  EXPECT_EQ(cat.find("aqt_catalog")->as_int(), 1);
  bool found = false;
  for (const JsonValue& t : cat.find("topologies")->items())
    if (t.find("name")->as_string() == "test-backbone") found = true;
  EXPECT_TRUE(found);
  // The catalog names every protocol and adversary kind compile() accepts.
  bool has_fifo = false;
  for (const JsonValue& p : cat.find("protocols")->items())
    if (p.as_string() == "FIFO") has_fifo = true;
  EXPECT_TRUE(has_fifo);
  bool has_bucket = false;
  bool has_scripted = false;
  for (const JsonValue& a : cat.find("adversaries")->items()) {
    if (a.as_string() == "bucket") has_bucket = true;
    if (a.as_string() == "scripted") has_scripted = true;
  }
  EXPECT_TRUE(has_bucket);
  EXPECT_TRUE(has_scripted);
}

TEST(ServeRegistry, LpsRateOutsideTheConstructionRangeIsSRV009) {
  // Theorem 3.17's construction needs 1/2 < r < 1; the lps generator's
  // own precondition must not be what rejects it.
  const Registry registry;
  for (const Rat& r : {Rat(1, 2), Rat(3, 2)}) {
    RunRequest req = base_request();
    req.topology = "lps:9x2";
    req.adversary.kind = "lps";
    req.adversary.r = r;
    expect_compile_code(registry, req, errc::kBadParam);
  }
}

TEST(ServeRegistry, BucketAuditIsTheExactBurstCheck) {
  // The example request: (2, 1/3) bucket traffic audited as (2, 1/3).
  std::ifstream in(std::string(AQT_SOURCE_DIR) +
                   "/examples/requests/ring_bucket_audit.json");
  std::ostringstream text;
  text << in.rdbuf();
  const Registry registry;
  const RunResult fits =
      execute_run(registry.compile(parse_run_request(text.str(), "example")));
  ASSERT_TRUE(fits.ok()) << fits.error;
  EXPECT_TRUE(fits.feasible);

  // Burst-3 traffic breaks a burst-2 audit, and the witness says where.
  RunRequest req = parse_run_request(text.str(), "example");
  req.adversary.burst = 3;
  const RunResult over = execute_run(registry.compile(req));
  ASSERT_TRUE(over.ok()) << over.error;
  EXPECT_FALSE(over.feasible);
  EXPECT_FALSE(over.audit.ok);
  EXPECT_LT(over.audit.edge, 8u);
  EXPECT_LE(over.audit.t1, over.audit.t2);
  EXPECT_GT(over.audit.count, over.audit.budget);
  EXPECT_EQ(over.audit.budget,
            (Rat(2) + Rat(1, 3) * Rat(over.audit.t2 - over.audit.t1 + 1))
                .floor());
}

TEST(ServeRegistry, AuditAndArtifactSelectionsReachTheSpec) {
  const Registry registry;
  RunRequest req = base_request();
  req.audit_w = 8;
  req.audit_r = Rat(1, 4);
  req.art_metrics = true;
  req.art_growth = true;
  const RunSpec spec = registry.compile(req);
  EXPECT_TRUE(spec.audit_r.has_value());
  EXPECT_TRUE(spec.artifacts.metrics);
  EXPECT_TRUE(spec.artifacts.growth);
  EXPECT_TRUE(spec.artifacts.trace_hash);
  const RunResult result = execute_run(spec);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.feasible);  // 1/4-rate traffic passes its own audit.
  // The metrics artifact embeds the obs export in the canonical document.
  const std::string bytes = canonical_result_json(result);
  EXPECT_NE(bytes.find("\"metrics\""), std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace aqt
