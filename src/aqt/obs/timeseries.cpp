#include "aqt/obs/timeseries.hpp"

#include <algorithm>
#include <sstream>

#include "aqt/core/engine.hpp"
#include "aqt/core/graph.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/json.hpp"

namespace aqt::obs {
namespace {

std::string edge_label(const Graph* graph, EdgeId e) {
  if (graph != nullptr) return graph->edge(e).name;
  return "edge_" + std::to_string(e);
}

}  // namespace

TimeseriesRecorder::TimeseriesRecorder(TimeseriesConfig config,
                                       const Graph* graph)
    : config_(std::move(config)), graph_(graph), stride_(config_.stride) {
  AQT_REQUIRE(config_.stride >= 1, "timeseries stride must be >= 1");
  AQT_REQUIRE(config_.capacity >= 4,
              "timeseries capacity must be >= 4 (got " << config_.capacity
                                                       << ")");
  if (graph_ != nullptr)
    for (const EdgeId e : config_.watched)
      AQT_REQUIRE(e < graph_->edge_count(),
                  "watched edge id out of range: " << e);
  // Each watched edge is one column and one JSONL key, so a repeat would
  // write a duplicate key.
  for (auto it = config_.watched.begin(); it != config_.watched.end(); ++it)
    AQT_REQUIRE(std::find(config_.watched.begin(), it, *it) == it,
                "watched edge " << edge_label(graph_, *it)
                                << " is listed twice");
  rows_.reserve(config_.capacity);
  depths_.reserve(config_.capacity * config_.watched.size());
}

void TimeseriesRecorder::on_step(const StepSample& sample,
                                 const Engine& engine) {
  ++steps_seen_;
  if (sample.t % stride_ != 0) return;

  Row row;
  row.t = sample.t;
  row.in_flight = sample.in_flight;
  row.injected = sample.injected_total;
  row.absorbed = sample.absorbed_total;
  row.active_edges = sample.active_edges;
  row.max_queue = sample.max_queue;
  if (config_.record_wall) {
    const std::uint64_t ticks = clock_.ticks();
    if (have_last_wall_ && ticks > last_wall_ticks_)
      row.wall_nanos = clock_.to_nanos(ticks - last_wall_ticks_);
    last_wall_ticks_ = ticks;
    have_last_wall_ = true;
  }
  rows_.push_back(row);
  for (const EdgeId e : config_.watched)
    depths_.push_back(static_cast<std::uint64_t>(engine.queue_size(e)));

  if (rows_.size() < config_.capacity) return;

  // Overflow: keep every other row (the ones landing on the doubled
  // stride) and double the stride.  Row survival is a pure function of
  // step numbers, so identical runs compact identically.
  stride_ *= 2;
  ++compactions_;
  const std::size_t watched = config_.watched.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].t % stride_ != 0) continue;
    if (kept != i) {
      // Surviving rows fold the wall time of the dropped row between them,
      // so the wall column still sums to total elapsed time.
      rows_[kept] = rows_[i];
      rows_[kept].wall_nanos =
          rows_[i].wall_nanos +
          (i > 0 && rows_[i - 1].t % stride_ != 0 ? rows_[i - 1].wall_nanos
                                                  : 0);
      for (std::size_t w = 0; w < watched; ++w)
        depths_[kept * watched + w] = depths_[i * watched + w];
    }
    ++kept;
  }
  rows_.resize(kept);
  depths_.resize(kept * watched);
}

std::vector<std::uint64_t> TimeseriesRecorder::watched_depths(
    std::size_t i) const {
  AQT_REQUIRE(i < rows_.size(), "timeseries row out of range: " << i);
  const std::size_t watched = config_.watched.size();
  return {depths_.begin() + static_cast<std::ptrdiff_t>(i * watched),
          depths_.begin() + static_cast<std::ptrdiff_t>((i + 1) * watched)};
}

std::vector<std::string> TimeseriesRecorder::headers() const {
  std::vector<std::string> out = {"t",       "in_flight",    "injected",
                                  "absorbed", "active_edges", "max_queue",
                                  "wall_nanos"};
  for (const EdgeId e : config_.watched)
    out.push_back("edge_" + edge_label(graph_, e));
  return out;
}

std::string TimeseriesRecorder::to_csv() const {
  std::ostringstream os;
  const std::vector<std::string> head = headers();
  for (std::size_t i = 0; i < head.size(); ++i)
    os << (i == 0 ? "" : ",") << head[i];
  os << '\n';
  const std::size_t watched = config_.watched.size();
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    os << r.t << ',' << r.in_flight << ',' << r.injected << ','
       << r.absorbed << ',' << r.active_edges << ',' << r.max_queue << ','
       << r.wall_nanos;
    for (std::size_t w = 0; w < watched; ++w)
      os << ',' << depths_[i * watched + w];
    os << '\n';
  }
  return os.str();
}

std::string TimeseriesRecorder::to_jsonl() const {
  std::ostringstream os;
  const std::size_t watched = config_.watched.size();
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    os << "{\"t\":" << r.t << ",\"in_flight\":" << r.in_flight
       << ",\"injected\":" << r.injected << ",\"absorbed\":" << r.absorbed
       << ",\"active_edges\":" << r.active_edges
       << ",\"max_queue\":" << r.max_queue
       << ",\"wall_nanos\":" << r.wall_nanos;
    if (watched > 0) {
      os << ",\"edges\":{";
      for (std::size_t w = 0; w < watched; ++w)
        os << (w == 0 ? "" : ",") << '"'
           << json_escape_string(edge_label(graph_, config_.watched[w]))
           << "\":" << depths_[i * watched + w];
      os << '}';
    }
    os << "}\n";
  }
  return os.str();
}

StepSampleFanout& StepSampleFanout::add(StepSampleSink* sink) {
  if (sink != nullptr) sinks_.push_back(sink);
  return *this;
}

void StepSampleFanout::on_step(const StepSample& sample,
                               const Engine& engine) {
  for (StepSampleSink* sink : sinks_) sink->on_step(sample, engine);
}

StepSampleSink* StepSampleFanout::as_sink() {
  if (sinks_.empty()) return nullptr;
  if (sinks_.size() == 1) return sinks_.front();
  return this;
}

}  // namespace aqt::obs
