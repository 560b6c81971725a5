#include "aqt/obs/export.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "aqt/core/engine.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/obs/registry.hpp"
#include "aqt/obs/snapshot.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/runner/run_spec.hpp"
#include "aqt/serve/registry.hpp"
#include "aqt/serve/request.hpp"

namespace aqt::obs {
namespace {

/// A small fixed registry exercising every type, labels, and escaping.
MetricRegistry golden_registry() {
  MetricRegistry reg;
  reg.counter("aqt_steps_total", "Engine steps executed").set(13);
  reg.gauge("aqt_mean_latency_steps", "Mean \"end-to-end\" latency").set(3.25);
  Histogram& h = reg.histogram("aqt_latency_steps", "Latency distribution");
  h.add(1);
  h.add(2);
  h.add(5);
  reg.counter("aqt_edge_sends_total", "Sends per edge", "edge", "r0").set(7);
  reg.counter("aqt_edge_sends_total", "Sends per edge", "edge", "r1").set(5);
  return reg;
}

TEST(Export, JsonGolden) {
  const MetricRegistry reg = golden_registry();
  EXPECT_EQ(
      to_json(reg, "test"),
      "{\"schema\":\"aqt-metrics/1\",\"tool\":\"test\",\"metrics\":["
      "{\"name\":\"aqt_steps_total\",\"type\":\"counter\",\"help\":\"Engine "
      "steps executed\",\"label_key\":\"\",\"values\":[{\"label\":\"\","
      "\"value\":13}]},"
      "{\"name\":\"aqt_mean_latency_steps\",\"type\":\"gauge\",\"help\":"
      "\"Mean \\\"end-to-end\\\" latency\",\"label_key\":\"\",\"values\":[{"
      "\"label\":\"\",\"value\":3.25}]},"
      "{\"name\":\"aqt_latency_steps\",\"type\":\"histogram\",\"help\":"
      "\"Latency distribution\",\"label_key\":\"\",\"values\":[{\"label\":"
      "\"\",\"count\":3,\"sum\":8,\"min\":1,\"max\":5,\"mean\":2."
      "666666667,\"p50\":3,\"p90\":5,\"p99\":5}]},"
      "{\"name\":\"aqt_edge_sends_total\",\"type\":\"counter\",\"help\":"
      "\"Sends per edge\",\"label_key\":\"edge\",\"values\":[{\"label\":"
      "\"r0\",\"value\":7},{\"label\":\"r1\",\"value\":5}]}]}");
}

TEST(Export, CsvGolden) {
  const MetricRegistry reg = golden_registry();
  EXPECT_EQ(to_csv(reg),
            "name,label,type,field,value\n"
            "aqt_steps_total,,counter,value,13\n"
            "aqt_mean_latency_steps,,gauge,value,3.25\n"
            "aqt_latency_steps,,histogram,count,3\n"
            "aqt_latency_steps,,histogram,sum,8\n"
            "aqt_latency_steps,,histogram,min,1\n"
            "aqt_latency_steps,,histogram,max,5\n"
            "aqt_latency_steps,,histogram,mean,2.666666667\n"
            "aqt_latency_steps,,histogram,p50,3\n"
            "aqt_latency_steps,,histogram,p90,5\n"
            "aqt_latency_steps,,histogram,p99,5\n"
            "aqt_edge_sends_total,r0,counter,value,7\n"
            "aqt_edge_sends_total,r1,counter,value,5\n");
}

TEST(Export, PrometheusGolden) {
  const MetricRegistry reg = golden_registry();
  EXPECT_EQ(to_prometheus(reg),
            "# HELP aqt_steps_total Engine steps executed\n"
            "# TYPE aqt_steps_total counter\n"
            "aqt_steps_total 13\n"
            "# HELP aqt_mean_latency_steps Mean \"end-to-end\" latency\n"
            "# TYPE aqt_mean_latency_steps gauge\n"
            "aqt_mean_latency_steps 3.25\n"
            "# HELP aqt_latency_steps Latency distribution\n"
            "# TYPE aqt_latency_steps histogram\n"
            "aqt_latency_steps_bucket{le=\"1\"} 1\n"
            "aqt_latency_steps_bucket{le=\"3\"} 2\n"
            "aqt_latency_steps_bucket{le=\"7\"} 3\n"
            "aqt_latency_steps_bucket{le=\"+Inf\"} 3\n"
            "aqt_latency_steps_sum 8\n"
            "aqt_latency_steps_count 3\n"
            "# HELP aqt_edge_sends_total Sends per edge\n"
            "# TYPE aqt_edge_sends_total counter\n"
            "aqt_edge_sends_total{edge=\"r0\"} 7\n"
            "aqt_edge_sends_total{edge=\"r1\"} 5\n");
}

/// Minimal exposition-format checker: every non-comment line must be
/// `name[{key="value"}] number`, every sample preceded by a TYPE for its
/// family, histogram families must end with a +Inf bucket, _sum and _count.
void check_prometheus_parses(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::string open_histogram;  // Family awaiting its closing triple.
  bool saw_inf = false;
  bool saw_sum = false;
  bool saw_count = false;
  const auto close_histogram = [&] {
    if (open_histogram.empty()) return;
    EXPECT_TRUE(saw_inf && saw_sum && saw_count)
        << "incomplete histogram " << open_histogram;
    open_histogram.clear();
  };
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      close_histogram();
      std::istringstream ls(line.substr(7));
      std::string name;
      std::string type;
      ls >> name >> type;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      if (type == "histogram") {
        open_histogram = name;
        saw_inf = saw_sum = saw_count = false;
      }
      continue;
    }
    // Sample line: name or name{...}, one space, a finite number.
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    EXPECT_EQ(value.find("nan"), std::string::npos) << line;
    EXPECT_EQ(value.find("inf"), std::string::npos) << line;
    std::string name = series;
    const std::size_t brace = series.find('{');
    if (brace != std::string::npos) {
      ASSERT_EQ(series.back(), '}') << line;
      name = series.substr(0, brace);
      const std::string labels =
          series.substr(brace + 1, series.size() - brace - 2);
      EXPECT_NE(labels.find('='), std::string::npos) << line;
      EXPECT_NE(labels.find('"'), std::string::npos) << line;
    }
    ASSERT_FALSE(name.empty()) << line;
    EXPECT_TRUE(name.front() == '_' || std::islower(name.front())) << line;
    for (const char c : name)
      EXPECT_TRUE(c == '_' || std::islower(c) || std::isdigit(c)) << line;
    if (!open_histogram.empty() &&
        name.rfind(open_histogram, 0) == 0) {
      if (series.find("le=\"+Inf\"") != std::string::npos) saw_inf = true;
      if (name == open_histogram + "_sum") saw_sum = true;
      if (name == open_histogram + "_count") saw_count = true;
    }
  }
  close_histogram();
}

/// The acceptance scenario: run a scripted example request end to end,
/// snapshot the engine, and pin the exported values.  The script is
/// deterministic, so this is a golden test of the whole collect -> export
/// pipeline.
TEST(Export, RingConvoyScenarioSnapshot) {
  std::ifstream in(std::string(AQT_SOURCE_DIR) +
                   "/examples/requests/ring_convoy.json");
  std::ostringstream text;
  text << in.rdbuf();
  const RunSpec spec = serve::Registry().compile(
      serve::parse_run_request(text.str(), "ring_convoy"));
  const Graph graph = spec.topology.build();
  auto protocol = make_protocol(spec.protocol);
  Engine eng(graph, *protocol);
  const std::unique_ptr<Adversary> adv = spec.adversary(graph, spec.seed);
  for (Time i = 0; i < 64; ++i) {
    if (adv->finished(eng.now() + 1)) break;
    eng.step(adv.get());
  }
  eng.drain(64);

  MetricRegistry reg;
  collect_engine_metrics(eng, reg);

  const auto counter_value = [&](const std::string& name) {
    const MetricRegistry::Family* fam = reg.find(name);
    EXPECT_NE(fam, nullptr) << name;
    return fam == nullptr ? 0 : fam->cells.front().counter.value();
  };
  EXPECT_EQ(counter_value("aqt_injected_total"), 4u);
  EXPECT_EQ(counter_value("aqt_absorbed_total"), 4u);
  EXPECT_EQ(counter_value("aqt_sends_total"), 12u);

  const std::string json = to_json(reg, "aqt-sim");
  EXPECT_NE(json.find("\"schema\":\"aqt-metrics/1\""), std::string::npos);
  EXPECT_NE(json.find("\"tool\":\"aqt-sim\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"aqt_injected_total\",\"type\":\"counter\","
                      "\"help\":\"Packets created (initial configuration "
                      "plus injections)\",\"label_key\":\"\",\"values\":[{"
                      "\"label\":\"\",\"value\":4}]}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"aqt_residence_steps\",\"type\":"
                      "\"histogram\""),
            std::string::npos);
  // Nothing in an engine snapshot may be non-finite (empty-denominator
  // convention).
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);

  check_prometheus_parses(to_prometheus(reg));
}

TEST(Export, EmptyEngineSnapshotIsAllZeroAndFinite) {
  // An engine that never stepped: every rate/mean must export as exactly 0
  // (the empty-denominator convention), never NaN/Inf.
  const Graph g = make_ring(4);
  FifoProtocol fifo;
  const Engine eng(g, fifo);
  MetricRegistry reg;
  collect_engine_metrics(eng, reg);
  const std::string json = to_json(reg, "t");
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  const MetricRegistry::Family* rate =
      reg.find("aqt_injection_rate_per_step");
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(rate->cells.front().gauge.value(), 0.0);
  const MetricRegistry::Family* mean = reg.find("aqt_mean_latency_steps");
  ASSERT_NE(mean, nullptr);
  EXPECT_EQ(mean->cells.front().gauge.value(), 0.0);
  // Per-edge families are elided entirely when nothing moved.
  EXPECT_EQ(reg.find("aqt_edge_sends_total"), nullptr);
  check_prometheus_parses(json.empty() ? "" : to_prometheus(reg));
}

TEST(Export, PrometheusOfEmptyRegistryIsEmpty) {
  const MetricRegistry reg;
  EXPECT_EQ(to_prometheus(reg), "");
  EXPECT_EQ(to_csv(reg), "name,label,type,field,value\n");
  EXPECT_EQ(to_json(reg, "t"),
            "{\"schema\":\"aqt-metrics/1\",\"tool\":\"t\",\"metrics\":[]}");
}

}  // namespace
}  // namespace aqt::obs
