// TimeseriesRecorder contract: stride sampling, adaptive compaction as a
// pure function of step numbers, watched-edge columns, and byte-stable
// CSV/JSONL exports when the wall column is off.
#include "aqt/obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "aqt/adversaries/stochastic.hpp"
#include "aqt/core/engine.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/util/check.hpp"

namespace aqt::obs {
namespace {

TimeseriesConfig no_wall(Time stride, std::size_t capacity) {
  TimeseriesConfig cfg;
  cfg.stride = stride;
  cfg.capacity = capacity;
  cfg.record_wall = false;
  return cfg;
}

/// Runs a small stochastic workload with `recorder` attached.
void drive(const Graph& g, TimeseriesRecorder& recorder, Time steps,
           std::uint64_t seed = 7) {
  auto protocol = make_protocol("NTG", seed);
  EngineConfig cfg;
  cfg.sinks.samples = &recorder;
  Engine eng(g, *protocol, cfg);
  StochasticConfig adv_cfg;
  adv_cfg.w = 10;
  adv_cfg.r = Rat(1, 3);
  adv_cfg.max_route_len = 4;
  adv_cfg.seed = seed;
  StochasticAdversary adv(g, adv_cfg);
  eng.run(&adv, steps);
}

TEST(Timeseries, RecordsEveryStrideThStep) {
  const Graph g = make_ring(6);
  TimeseriesRecorder rec(no_wall(4, 4096));
  drive(g, rec, 100);
  ASSERT_FALSE(rec.rows().empty());
  EXPECT_EQ(rec.steps_seen(), 100u);
  EXPECT_EQ(rec.effective_stride(), 4u);
  for (const auto& row : rec.rows()) EXPECT_EQ(row.t % 4, 0u);
  // Cumulative columns are monotone.
  for (std::size_t i = 1; i < rec.rows().size(); ++i) {
    EXPECT_GE(rec.rows()[i].injected, rec.rows()[i - 1].injected);
    EXPECT_GE(rec.rows()[i].absorbed, rec.rows()[i - 1].absorbed);
    EXPECT_LT(rec.rows()[i - 1].t, rec.rows()[i].t);
  }
}

TEST(Timeseries, CompactionDoublesStrideAndKeepsWholeRunSpan) {
  const Graph g = make_ring(6);
  TimeseriesRecorder rec(no_wall(1, 8));
  drive(g, rec, 200);
  EXPECT_GT(rec.compactions(), 0u);
  EXPECT_LE(rec.rows().size(), 8u);
  // Surviving rows land on the final stride and still cover early steps.
  const Time stride = rec.effective_stride();
  EXPECT_GT(stride, 1u);
  for (const auto& row : rec.rows()) EXPECT_EQ(row.t % stride, 0u);
  EXPECT_LE(rec.rows().front().t, stride);
}

TEST(Timeseries, IdenticalRunsKeepByteIdenticalRows) {
  // The compaction schedule must be a pure function of the step sequence:
  // two identical runs export byte-identical CSV and JSONL (wall off).
  const Graph g = make_grid(3, 3);
  TimeseriesRecorder a(no_wall(1, 16));
  TimeseriesRecorder b(no_wall(1, 16));
  drive(g, a, 500);
  drive(g, b, 500);
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_jsonl(), b.to_jsonl());
}

TEST(Timeseries, WatchedEdgeColumnsTrackQueueDepths) {
  const Graph g = make_ring(5);
  TimeseriesConfig cfg = no_wall(1, 4096);
  cfg.watched = {EdgeId{0}, EdgeId{1}};
  TimeseriesRecorder rec(cfg, &g);
  drive(g, rec, 60);
  ASSERT_FALSE(rec.rows().empty());
  const auto headers = rec.headers();
  // Fixed columns then one per watched edge, named from the graph.
  ASSERT_GE(headers.size(), 2u);
  EXPECT_EQ(headers.front(), "t");
  EXPECT_NE(headers[headers.size() - 2].find("edge_"), std::string::npos);
  for (std::size_t i = 0; i < rec.rows().size(); ++i) {
    const auto depths = rec.watched_depths(i);
    ASSERT_EQ(depths.size(), 2u);
    // A single queue can never exceed the step's global max.
    EXPECT_LE(depths[0], rec.rows()[i].max_queue);
    EXPECT_LE(depths[1], rec.rows()[i].max_queue);
  }
}

TEST(Timeseries, StrideOneWatchedEdgesRecordEveryStepsDepth) {
  // Four packets queued on l0 of a 3-edge line drain through l1: at stride
  // 1 the watched columns are the exact per-step depth series.
  const Graph g = make_line(3);
  TimeseriesConfig cfg = no_wall(1, 4096);
  cfg.watched = {EdgeId{0}, EdgeId{1}};
  TimeseriesRecorder rec(cfg, &g);
  EngineConfig ec;
  ec.sinks.samples = &rec;
  FifoProtocol fifo;
  Engine eng(g, fifo, ec);
  for (int i = 0; i < 4; ++i) eng.add_initial_packet({0, 1, 2});
  eng.run(nullptr, 3);
  ASSERT_EQ(rec.rows().size(), 3u);
  std::vector<std::uint64_t> l0;
  std::vector<std::uint64_t> l1;
  for (std::size_t i = 0; i < rec.rows().size(); ++i) {
    EXPECT_EQ(rec.rows()[i].t, static_cast<Time>(i + 1));
    l0.push_back(rec.watched_depths(i)[0]);
    l1.push_back(rec.watched_depths(i)[1]);
  }
  EXPECT_EQ(l0, (std::vector<std::uint64_t>{3, 2, 1}));
  EXPECT_EQ(l1, (std::vector<std::uint64_t>{1, 1, 1}));
}

TEST(Timeseries, CsvHeaderMatchesHeaders) {
  const Graph g = make_ring(4);
  TimeseriesRecorder rec(no_wall(2, 64));
  drive(g, rec, 40);
  const std::string csv = rec.to_csv();
  const auto headers = rec.headers();
  std::string expected;
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (i) expected += ',';
    expected += headers[i];
  }
  EXPECT_EQ(csv.substr(0, expected.size()), expected);
  // One line per row plus the header.
  const auto lines = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, rec.rows().size() + 1);
}

TEST(Timeseries, RejectsInvalidConfig) {
  EXPECT_THROW(TimeseriesRecorder(no_wall(0, 64)), PreconditionError);
  EXPECT_THROW(TimeseriesRecorder(no_wall(1, 2)), PreconditionError);
}

TEST(Timeseries, RejectsAnEdgeWatchedTwice) {
  // Each watched edge is a JSONL key; a repeat would write it twice.
  const Graph g = make_grid(3, 3);
  TimeseriesConfig cfg = no_wall(1, 64);
  cfg.watched = {g.edge_by_name("h0_0"), g.edge_by_name("d1_1"),
                 g.edge_by_name("h0_0")};
  try {
    TimeseriesRecorder rec(cfg, &g);
    FAIL() << "a repeated watched edge was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("h0_0"), std::string::npos)
        << e.what();
  }
}

TEST(StepSampleFanoutTest, AsSinkCollapsesTrivialCases) {
  StepSampleFanout empty;
  EXPECT_EQ(empty.as_sink(), nullptr);

  TimeseriesRecorder only(no_wall(1, 64));
  StepSampleFanout one;
  one.add(&only);
  EXPECT_EQ(one.as_sink(), static_cast<StepSampleSink*>(&only));

  TimeseriesRecorder second(no_wall(1, 64));
  StepSampleFanout two;
  two.add(&only).add(&second);
  EXPECT_EQ(two.as_sink(), static_cast<StepSampleSink*>(&two));
}

TEST(StepSampleFanoutTest, DeliversToEverySink) {
  const Graph g = make_ring(5);
  TimeseriesRecorder a(no_wall(1, 64));
  TimeseriesRecorder b(no_wall(2, 64));
  StepSampleFanout fan;
  fan.add(&a).add(&b);

  auto protocol = make_protocol("FIFO", 1);
  EngineConfig cfg;
  cfg.sinks.samples = fan.as_sink();
  Engine eng(g, *protocol, cfg);
  StochasticConfig adv_cfg;
  adv_cfg.w = 8;
  adv_cfg.r = Rat(1, 4);
  adv_cfg.max_route_len = 3;
  adv_cfg.seed = 11;
  StochasticAdversary adv(g, adv_cfg);
  eng.run(&adv, 50);

  EXPECT_EQ(a.steps_seen(), 50u);
  EXPECT_EQ(b.steps_seen(), 50u);
  EXPECT_GT(a.rows().size(), b.rows().size());
}

}  // namespace
}  // namespace aqt::obs
