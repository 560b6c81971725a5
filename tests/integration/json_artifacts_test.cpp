// Every JSON document the repo emits is valid JSON that keeps its strings.
//
// A hand-built graph whose edge names hold '"', '\\', '\r' and a raw 0x01
// byte drives each emitter; the shared reader (util/json.hpp) must parse
// the output and hand back every string byte for byte.  The metrics reader
// of aqt-report is held to the same standard from the other side: exact
// escape decoding, and PreconditionError (never a foreign exception) on a
// malformed number.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "aqt/adversaries/stochastic.hpp"
#include "aqt/audit/auditor.hpp"
#include "aqt/core/engine.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/lint/linter.hpp"
#include "aqt/obs/events.hpp"
#include "aqt/obs/export.hpp"
#include "aqt/obs/registry.hpp"
#include "aqt/obs/report.hpp"
#include "aqt/obs/snapshot.hpp"
#include "aqt/obs/timeseries.hpp"
#include "aqt/obs/tracing.hpp"
#include "aqt/serve/registry.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/json.hpp"
#include "aqt/verify/verifier.hpp"

namespace aqt {
namespace {

// Built by concatenation so no hex escape swallows the next letter.
const std::string kQuote = "q\"uote";
const std::string kBackslash = "back\\slash";
const std::string kReturn = "carriage\rreturn";
const std::string kControl = std::string("ctl\x01") + "byte";

std::vector<std::string> hostile_names() {
  return {kQuote, kBackslash, kReturn, kControl};
}

/// A four-edge path whose edges carry the hostile names, in order.
Graph hostile_graph() {
  Graph g;
  const std::vector<std::string> names = hostile_names();
  for (std::size_t i = 0; i < names.size(); ++i)
    g.add_edge("n" + std::to_string(i), "n" + std::to_string(i + 1),
               names[i]);
  return g;
}

/// Runs a convoy over the whole path with `sinks` attached; every edge
/// carries traffic, so every name reaches every emitter.
void drive(const Graph& g, EngineSinks sinks,
           obs::MetricRegistry* metrics = nullptr) {
  FifoProtocol fifo;
  EngineConfig cfg;
  cfg.sinks = sinks;
  Engine eng(g, fifo, cfg);
  ConvoyAdversary adv(convoy_route(g, 8), 4, Rat(1, 2));
  eng.run(&adv, 24);
  if (metrics != nullptr) obs::collect_engine_metrics(eng, *metrics);
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

const JsonValue& at(const JsonValue& v, const char* key) {
  const JsonValue* field = v.find(key);
  EXPECT_NE(field, nullptr) << "missing key " << key;
  static const JsonValue kNull;
  return field != nullptr ? *field : kNull;
}

TEST(JsonArtifacts, ConvoyRouteCoversTheHostilePath) {
  const Graph g = hostile_graph();
  EXPECT_EQ(convoy_route(g, 8).size(), g.edge_count());
}

TEST(JsonArtifacts, MetricsSnapshotKeepsToolHelpAndEdgeLabels) {
  const Graph g = hostile_graph();
  obs::MetricRegistry reg;
  drive(g, {}, &reg);
  reg.gauge("aqt_hostile", kControl + kReturn, "edge", kBackslash).set(1.5);
  const std::string text = obs::to_json(reg, kQuote);

  const JsonValue doc = parse_json(text, "metrics");
  EXPECT_EQ(at(doc, "tool").as_string(), kQuote);
  std::set<std::string> labels;
  bool saw_help = false;
  for (const JsonValue& fam : at(doc, "metrics").items()) {
    saw_help = saw_help || at(fam, "help").as_string() == kControl + kReturn;
    for (const JsonValue& cell : at(fam, "values").items())
      labels.insert(at(cell, "label").as_string());
  }
  EXPECT_TRUE(saw_help);
  for (const std::string& name : hostile_names())
    EXPECT_EQ(labels.count(name), 1u) << name;

  // aqt-report's reader agrees with the shared parser.
  std::set<std::string> report_labels;
  for (const obs::ParsedMetricFamily& fam : obs::parse_metrics_json(text))
    for (const obs::ParsedMetricCell& cell : fam.cells)
      report_labels.insert(cell.label);
  EXPECT_EQ(report_labels, labels);
}

TEST(JsonArtifacts, PerfettoTraceKeepsProcessThreadAndSpanNames) {
  obs::TraceEventLog log;
  log.name_thread(1, kBackslash);
  log.complete(kControl, "aqt.test", 0, 10, 1);
  log.instant(kReturn, "aqt.test", 5, 1);
  const JsonValue doc = parse_json(log.to_json(kQuote), "perfetto");
  const std::vector<JsonValue>& events = at(doc, "traceEvents").items();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(at(at(events[0], "args"), "name").as_string(), kQuote);
  EXPECT_EQ(at(at(events[1], "args"), "name").as_string(), kBackslash);
  EXPECT_EQ(at(events[2], "name").as_string(), kControl);
  EXPECT_EQ(at(events[3], "name").as_string(), kReturn);
}

TEST(JsonArtifacts, TimeseriesJsonlKeepsWatchedEdgeNames) {
  const Graph g = hostile_graph();
  obs::TimeseriesConfig cfg;
  cfg.record_wall = false;
  for (EdgeId e = 0; e < g.edge_count(); ++e) cfg.watched.push_back(e);
  obs::TimeseriesRecorder rec(cfg, &g);
  EngineSinks sinks;
  sinks.samples = &rec;
  drive(g, sinks);
  const std::vector<std::string> lines = lines_of(rec.to_jsonl());
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    const JsonValue row = parse_json(line, "timeseries");
    std::vector<std::string> keys;
    for (const auto& member : at(row, "edges").members())
      keys.push_back(member.first);
    EXPECT_EQ(keys, hostile_names());
  }
}

TEST(JsonArtifacts, EventLinesKeepEdgeAndMilestoneNames) {
  const Graph g = hostile_graph();
  std::ostringstream os;
  obs::JsonlEventWriter writer(os, g);
  EngineSinks sinks;
  sinks.trace = &writer;
  drive(g, sinks);
  writer.milestone(24, kControl);

  std::set<std::string> sent_on;
  bool saw_route = false;
  bool saw_milestone = false;
  for (const std::string& line : lines_of(os.str())) {
    const JsonValue ev = parse_json(line, "events");
    const std::string& kind = at(ev, "ev").as_string();
    if (kind == "inject") {
      std::vector<std::string> route;
      for (const JsonValue& name : at(ev, "route").items())
        route.push_back(name.as_string());
      EXPECT_EQ(route, hostile_names());
      saw_route = true;
    } else if (kind == "send") {
      sent_on.insert(at(ev, "edge").as_string());
    } else if (kind == "milestone") {
      EXPECT_EQ(at(ev, "name").as_string(), kControl);
      saw_milestone = true;
    }
  }
  EXPECT_TRUE(saw_route);
  EXPECT_TRUE(saw_milestone);
  const std::vector<std::string> names = hostile_names();
  EXPECT_EQ(sent_on, std::set<std::string>(names.begin(), names.end()));

  // The stream's own reader decodes the same strings.
  std::istringstream is(os.str());
  const std::vector<obs::ObsEvent> parsed =
      obs::parse_jsonl_events(is, "events");
  ASSERT_FALSE(parsed.empty());
  EXPECT_EQ(parsed.back().name, kControl);
}

TEST(JsonArtifacts, LintReportKeepsFileCertificatesAndMessages) {
  LintReport rep;
  rep.file = kQuote;
  rep.certificates = kBackslash;
  rep.findings.push_back(LintFinding{"dangling-edge", 3, kControl + kReturn});
  const JsonValue doc = parse_json(to_json({rep}), "lint");
  const JsonValue& r = at(doc, "reports").items().at(0);
  EXPECT_EQ(at(r, "file").as_string(), kQuote);
  EXPECT_EQ(at(r, "certificates").as_string(), kBackslash);
  EXPECT_EQ(at(at(r, "findings").items().at(0), "message").as_string(),
            kControl + kReturn);
}

TEST(JsonArtifacts, VerifyReportKeepsFileProtocolAndMessages) {
  VerifyReport rep;
  rep.file = kReturn;
  rep.protocol = kQuote;
  rep.trace_hash = 0x00c0ffee00000001ULL;
  rep.findings.push_back(
      VerifyFinding{"parse-error", 0, kNoOrdinal, kNoEdge, kControl});
  const JsonValue doc = parse_json(to_json({rep}), "verify");
  const JsonValue& r = at(doc, "reports").items().at(0);
  EXPECT_EQ(at(r, "file").as_string(), kReturn);
  EXPECT_EQ(at(r, "protocol").as_string(), kQuote);
  EXPECT_EQ(at(r, "hash").as_string(), "00c0ffee00000001");
  EXPECT_EQ(at(at(r, "findings").items().at(0), "message").as_string(),
            kControl);
}

TEST(JsonArtifacts, AuditReportKeepsFilesAndMessagesBothWays) {
  audit::AuditReport rep;
  rep.file = kBackslash;
  rep.findings.push_back(audit::AuditFinding{"AUD001", 7, kControl});
  audit::AuditReport clean;
  clean.file = kReturn;
  const JsonValue doc = parse_json(audit::to_json({rep, clean}), "audit");
  EXPECT_EQ(at(doc, "tool").as_string(), "aqt-audit");
  EXPECT_FALSE(at(doc, "ok").as_bool());
  const std::vector<JsonValue>& reports = at(doc, "reports").items();
  ASSERT_EQ(reports.size(), 2u);

  const JsonValue& r = reports.at(0);
  EXPECT_EQ(at(r, "file").as_string(), kBackslash);
  EXPECT_FALSE(at(r, "ok").as_bool());
  const JsonValue& f = at(r, "findings").items().at(0);
  EXPECT_EQ(at(f, "rule").as_string(), "AUD001");
  EXPECT_EQ(at(f, "line").as_int(), 7);
  EXPECT_EQ(at(f, "message").as_string(), kControl);

  EXPECT_EQ(at(reports.at(1), "file").as_string(), kReturn);
  EXPECT_TRUE(at(reports.at(1), "ok").as_bool());
  EXPECT_TRUE(at(reports.at(1), "findings").items().empty());
}

TEST(JsonArtifacts, ServeCatalogKeepsNamedTopologyStrings) {
  serve::Registry registry;
  registry.register_topology(serve::NamedTopology{
      kQuote, kControl + kReturn + kBackslash,
      [](std::uint64_t) { return hostile_graph(); }});
  const JsonValue doc =
      parse_json(write_json(registry.catalog()), "catalog");
  bool found = false;
  for (const JsonValue& t : at(doc, "topologies").items()) {
    if (at(t, "name").as_string() != kQuote) continue;
    EXPECT_EQ(at(t, "description").as_string(),
              kControl + kReturn + kBackslash);
    found = true;
  }
  EXPECT_TRUE(found);
}

/// One-gauge aqt-metrics/1 document whose value is spelled `number`.
std::string metrics_with_value(const std::string& number) {
  return R"({"schema":"aqt-metrics/1","tool":"t","metrics":[{"name":"m",)"
         R"("type":"gauge","help":"h","label_key":"","values":[{"label":"",)"
         R"("value":)" +
         number + "}]}]}";
}

TEST(JsonArtifacts, MetricsReaderRejectsMalformedNumbersCleanly) {
  EXPECT_NO_THROW((void)obs::parse_metrics_json(metrics_with_value("2.5")));
  for (const char* bad : {"-", "1e999", "-1e999", "1e", "1.", "--1", "+1"})
    EXPECT_THROW((void)obs::parse_metrics_json(metrics_with_value(bad)),
                 PreconditionError)
        << bad;
}

TEST(JsonArtifacts, MetricsReaderDecodesEscapesExactly) {
  const std::string text =
      R"({"schema":"aqt-metrics/1","tool":"t","metrics":[{"name":"m",)"
      R"("type":"gauge","help":"a\u0001b\rc","label_key":"edge",)"
      R"("values":[{"label":"x\ty\u001f","value":1}]}]})";
  const std::vector<obs::ParsedMetricFamily> families =
      obs::parse_metrics_json(text);
  ASSERT_EQ(families.size(), 1u);
  EXPECT_EQ(families[0].help, std::string("a\x01") + "b\rc");
  ASSERT_EQ(families[0].cells.size(), 1u);
  EXPECT_EQ(families[0].cells[0].label, std::string("x\ty\x1f"));
}

}  // namespace
}  // namespace aqt
