// RunRequest parsing: the SRV001..SRV005 validation contract and the
// canonical round-trip anchor (parse(canonical(x)) == x, bytes stable).
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "aqt/serve/request.hpp"
#include "aqt/util/rational.hpp"

namespace aqt {
namespace serve {
namespace {

/// Asserts that parsing `text` throws RequestError with exactly `code`.
void expect_code(const std::string& text, const std::string& code) {
  try {
    parse_run_request(text, "test");
    FAIL() << "expected " << code << " for: " << text;
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), code) << e.what() << " for: " << text;
  }
}

std::string minimal(const std::string& extra = "") {
  return R"({"aqt_run_request": 1, "topology": "ring:8", "protocol": "FIFO",)"
         R"( "adversary": {"kind": "bucket", "burst": 2, "r": "1/3", "d": 6},)"
         R"( "steps": 1000)" +
         extra + "}";
}

TEST(RunRequestParse, MinimalDocumentGetsDefaults) {
  const RunRequest req = parse_run_request(minimal(), "test");
  EXPECT_EQ(req.version, 1);
  EXPECT_EQ(req.topology, "ring:8");
  EXPECT_EQ(req.protocol, "FIFO");
  EXPECT_EQ(req.adversary.kind, "bucket");
  EXPECT_EQ(req.adversary.burst, 2);
  EXPECT_EQ(req.adversary.r, Rat(1, 3));
  EXPECT_EQ(req.steps, 1000);
  EXPECT_EQ(req.seed, 1u);
  EXPECT_TRUE(req.stop_when_finished);
  EXPECT_FALSE(req.drain);
  EXPECT_FALSE(req.audit_r.has_value());
  EXPECT_TRUE(req.art_trace_hash);   // The default artifact.
  EXPECT_FALSE(req.art_metrics);
  EXPECT_EQ(req.deadline_ms, 0u);
}

TEST(RunRequestParse, StableErrorCodes) {
  expect_code("not json at all", errc::kBadJson);
  expect_code("{}", errc::kBadVersion);
  expect_code(R"({"aqt_run_request": 99, "topology": "ring:8",)"
              R"( "protocol": "FIFO", "adversary": {"kind": "none"},)"
              R"( "steps": 10})",
              errc::kBadVersion);
  // Required fields.
  expect_code(R"({"aqt_run_request": 1, "protocol": "FIFO",)"
              R"( "adversary": {"kind": "none"}, "steps": 10})",
              errc::kMissingField);
  expect_code(R"({"aqt_run_request": 1, "topology": "ring:8",)"
              R"( "protocol": "FIFO", "adversary": {"kind": "none"}})",
              errc::kMissingField);
  // Wrong types / out-of-range values.
  expect_code(R"({"aqt_run_request": 1, "topology": 7, "protocol": "FIFO",)"
              R"( "adversary": {"kind": "none"}, "steps": 10})",
              errc::kBadField);
  expect_code(R"({"aqt_run_request": 1, "topology": "ring:8",)"
              R"( "protocol": "FIFO", "adversary": {"kind": "none"},)"
              R"( "steps": 0})",
              errc::kBadField);
  expect_code(R"({"aqt_run_request": 1, "topology": "ring:8",)"
              R"( "protocol": "FIFO", "adversary": {"kind": "stochastic",)"
              R"( "r": "not-a-rate"}, "steps": 10})",
              errc::kBadField);
  // Unknown keys fail loudly, top-level and per-kind.
  expect_code(minimal(R"(, "tpology": "oops")"), errc::kUnknownField);
  expect_code(R"({"aqt_run_request": 1, "topology": "ring:8",)"
              R"( "protocol": "FIFO", "adversary": {"kind": "none",)"
              R"( "w": 8}, "steps": 10})",
              errc::kUnknownField);
  // "lps" takes iterations/s_star, never a window.
  expect_code(R"({"aqt_run_request": 1, "topology": "lps:9x8",)"
              R"( "protocol": "FIFO", "adversary": {"kind": "lps",)"
              R"( "w": 8}, "steps": 10})",
              errc::kUnknownField);
  // Unknown adversary kinds are SRV008 even before the registry is asked.
  expect_code(R"({"aqt_run_request": 1, "topology": "ring:8",)"
              R"( "protocol": "FIFO", "adversary": {"kind": "byzantine"},)"
              R"( "steps": 10})",
              errc::kUnknownAdversary);
}

TEST(RunRequestParse, AuditTakesABurstOrAWindowNotBoth) {
  const RunRequest req =
      parse_run_request(minimal(R"(, "audit": {"burst": 2, "r": "1/3"})"),
                        "test");
  EXPECT_EQ(req.audit_burst, std::optional<std::int64_t>(2));
  EXPECT_FALSE(req.audit_w.has_value());
  EXPECT_EQ(req.audit_r, std::optional<Rat>(Rat(1, 3)));
  const std::string canonical = canonical_request_json(req);
  EXPECT_NE(canonical.find(R"("audit":{"burst":2,"r":"1/3"})"),
            std::string::npos)
      << canonical;
  EXPECT_EQ(canonical_request_json(parse_run_request(canonical, "test")),
            canonical);

  expect_code(minimal(R"(, "audit": {"burst": 0, "r": "1/3"})"),
              errc::kBadField);
  expect_code(minimal(R"(, "audit": {"w": 6, "burst": 2, "r": "1/3"})"),
              errc::kBadField);
  expect_code(minimal(R"(, "audit": {"burst": 2})"), errc::kMissingField);
}

TEST(RunRequestParse, AdversaryConstraintAuditIsWhatTheKindObeys) {
  RunRequest req;
  req.adversary.w = 9;
  req.adversary.r = Rat(1, 5);
  req.adversary.burst = 3;
  for (const char* kind : {"stochastic", "hotspot", "convoy"}) {
    RunRequest windowed = req;
    windowed.adversary.kind = kind;
    audit_adversary_constraint(windowed);
    EXPECT_EQ(windowed.audit_w, std::optional<std::int64_t>(9)) << kind;
    EXPECT_FALSE(windowed.audit_burst.has_value()) << kind;
    EXPECT_EQ(windowed.audit_r, std::optional<Rat>(Rat(1, 5))) << kind;
  }
  RunRequest bucket = req;
  bucket.adversary.kind = "bucket";
  audit_adversary_constraint(bucket);
  EXPECT_FALSE(bucket.audit_w.has_value());
  EXPECT_EQ(bucket.audit_burst, std::optional<std::int64_t>(3));
  EXPECT_EQ(bucket.audit_r, std::optional<Rat>(Rat(1, 5)));
  RunRequest lps = req;
  lps.adversary.kind = "lps";
  audit_adversary_constraint(lps);
  EXPECT_FALSE(lps.audit_w.has_value());
  EXPECT_FALSE(lps.audit_burst.has_value());
  EXPECT_EQ(lps.audit_r, std::optional<Rat>(Rat(1, 5)));
  RunRequest none = req;
  none.adversary.kind = "none";
  audit_adversary_constraint(none);
  EXPECT_FALSE(none.audit_r.has_value());
}

TEST(RunRequestParse, CanonicalRoundTripIsExact) {
  RunRequest req;
  req.id = "job-7";
  req.topology = "grid:4x4";
  req.protocol = "NTG";
  req.adversary.kind = "stochastic";
  req.adversary.w = 12;
  req.adversary.r = Rat(9, 10);
  req.adversary.d = 4;
  req.seed = 17;
  req.steps = 20000;
  req.drain = true;
  req.drain_cap = 512;
  req.audit_w = 12;
  req.audit_r = Rat(9, 10);
  req.art_metrics = true;
  req.art_growth = true;
  req.deadline_ms = 60000;

  const std::string bytes = canonical_request_json(req);
  const RunRequest back = parse_run_request(bytes, "round-trip");
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.topology, req.topology);
  EXPECT_EQ(back.protocol, req.protocol);
  EXPECT_EQ(back.adversary.kind, req.adversary.kind);
  EXPECT_EQ(back.adversary.w, req.adversary.w);
  EXPECT_EQ(back.adversary.r, req.adversary.r);
  EXPECT_EQ(back.adversary.d, req.adversary.d);
  EXPECT_EQ(back.seed, req.seed);
  EXPECT_EQ(back.steps, req.steps);
  EXPECT_EQ(back.drain, req.drain);
  EXPECT_EQ(back.drain_cap, req.drain_cap);
  EXPECT_EQ(back.audit_w, req.audit_w);
  EXPECT_EQ(back.audit_r, req.audit_r);
  EXPECT_EQ(back.art_metrics, req.art_metrics);
  EXPECT_EQ(back.art_trace_hash, req.art_trace_hash);
  EXPECT_EQ(back.art_growth, req.art_growth);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  // The fixed point: canonicalizing the parse re-emits identical bytes.
  EXPECT_EQ(canonical_request_json(back), bytes);
}

TEST(RunRequestParse, CanonicalFormMaterializesDefaults) {
  const RunRequest sparse = parse_run_request(minimal(), "test");
  const std::string bytes = canonical_request_json(sparse);
  // Every field is present in canonical form, even defaulted ones.
  EXPECT_NE(bytes.find("\"seed\":1"), std::string::npos);
  EXPECT_NE(bytes.find("\"stop_when_finished\":true"), std::string::npos);
  EXPECT_NE(bytes.find("\"artifacts\":[\"trace_hash\"]"), std::string::npos);
  // And the canonical form is itself a fixed point.
  EXPECT_EQ(canonical_request_json(parse_run_request(bytes, "again")), bytes);
}

}  // namespace
}  // namespace serve
}  // namespace aqt
