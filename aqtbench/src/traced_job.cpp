// The traced job decomposition.  Every span is taken here, around calls
// into the libraries' public API; nothing inside the program is
// instrumented.  run_traced mirrors runner/run_spec.cpp's run_cell for a
// fresh job step for step, with two forwarding decorators slotted into the
// seams the engine already exposes: an Adversary that times step() and a
// RunTraceSink that counts every record before handing it to the real
// RunTraceWriter.  The traced job must reproduce execute_run's result bytes
// (trace hash included); the workloads check that it does.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <streambuf>

#include "aqt/adversaries/lps.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/core/rate_check.hpp"
#include "aqt/core/route_table.hpp"
#include "aqt/core/stability.hpp"
#include "aqt/obs/snapshot.hpp"
#include "aqt/serve/request.hpp"
#include "aqt/serve/result.hpp"
#include "aqt/trace/run_trace.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/rng.hpp"
#include "harness.hpp"

namespace aqtb {
namespace {

using aqt::Adversary;
using aqt::AdversaryStep;
using aqt::EdgeId;
using aqt::Engine;
using aqt::RouteSpan;
using aqt::Time;

/// Accumulates elapsed steady-clock time into a double of seconds.
class Stopwatch {
 public:
  explicit Stopwatch(double& sink) : sink_(sink), start_(Clock::now()) {}
  ~Stopwatch() { sink_ += seconds_between(start_, Clock::now()); }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  double& sink_;
  Clock::time_point start_;
};

/// The bytes of the run trace are not needed, only its streaming hash (as
/// in run_spec.cpp).
class NullBuf final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

/// Forwarding adversary: times step(), counts the work it returns, and
/// replays the engine's per-injection route work (simple-path validation,
/// interning) into a private RouteTable so those costs are measured on
/// the job's real routes.  Replay time is the harness's own and is kept
/// out of every engine layer.
class TimedAdversary final : public Adversary {
 public:
  TimedAdversary(std::unique_ptr<Adversary> inner, const aqt::Graph& graph,
                 LayerTimes& out)
      : inner_(std::move(inner)), graph_(graph), out_(out) {}

  void step(Time now, const Engine& engine, AdversaryStep& work) override {
    const Clock::time_point t0 = Clock::now();
    inner_->step(now, engine, work);
    const Clock::time_point t1 = Clock::now();
    out_.adversary += seconds_between(t0, t1);
    out_.injections += work.injections.size();
    out_.reroutes += work.reroutes.size();
    if (work.injections.empty()) return;

    std::uint64_t valid = 0;
    for (const aqt::Injection& inj : work.injections)
      valid += graph_.is_simple_path(inj.route) ? 1 : 0;
    const Clock::time_point t2 = Clock::now();
    for (const aqt::Injection& inj : work.injections)
      (void)routes_.intern(inj.route);
    const Clock::time_point t3 = Clock::now();
    valid_ += valid;
    out_.route_validate += seconds_between(t1, t2);
    out_.route_intern += seconds_between(t2, t3);
    out_.replay += seconds_between(t1, t3);
  }
  [[nodiscard]] bool finished(Time now) const override {
    return inner_->finished(now);
  }
  [[nodiscard]] bool is_oblivious() const override {
    return inner_->is_oblivious();
  }

  [[nodiscard]] std::uint64_t unique_routes() const {
    return routes_.route_count();
  }
  [[nodiscard]] std::uint64_t valid_routes() const { return valid_; }

 private:
  std::unique_ptr<Adversary> inner_;
  const aqt::Graph& graph_;
  LayerTimes& out_;
  aqt::RouteTable routes_;
  std::uint64_t valid_ = 0;
};

/// Forwarding trace sink: counts every record the engine emits on its way
/// into the real RunTraceWriter.  It reads no clock: trace.hash_s comes
/// from the untraced with/without-trace_hash A/B instead.
class CountingTraceSink final : public aqt::RunTraceSink {
 public:
  CountingTraceSink(aqt::RunTraceWriter& inner, std::uint64_t& records)
      : inner_(inner), records_(records) {}

  void record_initial(std::uint64_t ordinal, std::uint64_t tag,
                      RouteSpan route) override {
    ++records_;
    inner_.record_initial(ordinal, tag, route);
  }
  void begin_step(Time t) override {
    ++records_;
    inner_.begin_step(t);
  }
  void record_send(EdgeId e, std::uint64_t ordinal) override {
    ++records_;
    inner_.record_send(e, ordinal);
  }
  void record_absorb(std::uint64_t ordinal) override {
    ++records_;
    inner_.record_absorb(ordinal);
  }
  void record_reroute(std::uint64_t ordinal, RouteSpan new_suffix) override {
    ++records_;
    inner_.record_reroute(ordinal, new_suffix);
  }
  void record_inject(std::uint64_t ordinal, std::uint64_t tag,
                     RouteSpan route) override {
    ++records_;
    inner_.record_inject(ordinal, tag, route);
  }
  void record_queue_depth(EdgeId e, std::size_t depth) override {
    ++records_;
    inner_.record_queue_depth(e, depth);
  }

 private:
  aqt::RunTraceWriter& inner_;
  std::uint64_t& records_;
};

/// Forwarding adversary for untraced jobs: stamps the clock when polled
/// for every kSegmentSteps-th step and does nothing else, so a job's wall
/// time splits into segments that are the same work in every repetition
/// of the job.  On the polled path the stamps fall between steps; on the
/// compiled path they fall inside block lowering, which still cuts the
/// job at the same points every time.
class SegmentClock final : public Adversary {
 public:
  SegmentClock(std::unique_ptr<Adversary> inner,
               std::vector<Clock::time_point>& marks)
      : inner_(std::move(inner)), marks_(marks) {}

  void step(Time now, const Engine& engine, AdversaryStep& work) override {
    if ((now - 1) % kSegmentSteps == 0) marks_.push_back(Clock::now());
    inner_->step(now, engine, work);
  }
  [[nodiscard]] bool finished(Time now) const override {
    return inner_->finished(now);
  }
  [[nodiscard]] bool is_oblivious() const override {
    return inner_->is_oblivious();
  }
  [[nodiscard]] const Adversary& inner() const { return *inner_; }

 private:
  static constexpr Time kSegmentSteps = 256;
  std::unique_ptr<Adversary> inner_;
  std::vector<Clock::time_point>& marks_;
};

std::string default_name(const aqt::RunSpec& spec) {
  return spec.name.empty() ? spec.protocol + "/" + spec.topology.name + "/" +
                                 std::to_string(spec.seed)
                           : spec.name;
}

/// The fresh-job body of run_cell, with spans.  Throws like run_cell.
void traced_cell(const aqt::RunSpec& spec, aqt::RunResult& result,
                 LayerTimes& lt) {
  AQT_REQUIRE(spec.controls.resume_from.empty() &&
                  spec.controls.checkpoint_to.empty() &&
                  spec.controls.slice_steps == 0,
              "the traced decomposition covers fresh, unsliced jobs only");
  std::optional<aqt::Graph> graph;
  {
    Stopwatch sw(lt.topology);
    graph.emplace(spec.topology.build());
  }

  aqt::EngineConfig ec = spec.engine;
  const bool want_audit = spec.audit_w.has_value() || spec.audit_r.has_value();
  if (want_audit) ec.audit_rates = true;
  if (spec.artifacts.growth && ec.series_stride == 0)
    ec.series_stride = std::max<Time>(1, spec.steps / 512);

  NullBuf null_buf;
  std::ostream null_os(&null_buf);
  std::optional<aqt::RunTraceWriter> writer;
  std::optional<CountingTraceSink> counting_sink;
  if (spec.artifacts.trace_hash) {
    Stopwatch sw(lt.trace_outside);
    aqt::RunTraceMeta meta;
    meta.protocol = spec.protocol;
    meta.seed = spec.seed;
    if (spec.audit_w.has_value()) {
      meta.window_w = *spec.audit_w;
      meta.window_r = *spec.audit_r;
    } else if (spec.audit_r.has_value()) {
      meta.rate_r = *spec.audit_r;
    }
    writer.emplace(null_os, *graph, meta);
    counting_sink.emplace(*writer, lt.records);
    ec.sinks.trace = &*counting_sink;
  }

  std::unique_ptr<aqt::Protocol> protocol;
  std::optional<Engine> eng;
  std::unique_ptr<TimedAdversary> adversary;
  {
    // Initial-packet trace records (the LPS flat queue) land here.
    Stopwatch sw(lt.engine_init);
    protocol = aqt::make_protocol(spec.protocol, aqt::mix_seed(spec.seed, 1));
    eng.emplace(*graph, *protocol, ec);
    if (spec.setup) spec.setup(*eng, *graph);
    if (spec.adversary)
      adversary = std::make_unique<TimedAdversary>(
          spec.adversary(*graph, spec.seed), *graph, lt);
  }

  {
    // Nested spans (adversary, replay) accumulate inside; trace records
    // are not timed separately.
    Stopwatch sw(lt.run);
    AQT_REQUIRE(spec.steps >= 1, "RunSpec needs steps >= 1");
    eng->run(adversary.get(), spec.steps, spec.stop_when_finished);
    if (spec.drain_after) eng->drain(spec.drain_cap);
  }
  if (writer) {
    Stopwatch sw(lt.trace_outside);
    writer->finish(eng->total_injected(), eng->total_absorbed());
  }

  result.steps_run = eng->now();
  result.injected = eng->total_injected();
  result.absorbed = eng->total_absorbed();
  result.in_flight = eng->packets_in_flight();
  result.max_queue = eng->metrics().max_queue_global();
  result.max_residence = eng->metrics().max_residence_global();
  result.max_latency = eng->metrics().max_latency();
  if (writer) result.trace_hash = writer->content_hash();
  lt.sends = eng->metrics().sends();
  lt.max_queue = result.max_queue;
  if (adversary) {
    lt.unique_routes = adversary->unique_routes();
    AQT_REQUIRE(adversary->valid_routes() == lt.injections,
                "route replay found a non-simple injected route");
  }

  if (spec.artifacts.growth) {
    Stopwatch sw(lt.run);
    const aqt::GrowthReport growth =
        aqt::classify_growth(eng->metrics().series());
    result.verdict = growth.verdict;
    result.growth_ratio = growth.ratio;
  }
  if (want_audit) {
    Stopwatch sw(lt.rate_check);
    eng->finalize_audit();
    result.feasible =
        spec.audit_w.has_value()
            ? aqt::check_window(eng->audit(), *spec.audit_w, *spec.audit_r).ok
            : aqt::check_rate_r(eng->audit(), *spec.audit_r).ok;
  }
  if (spec.artifacts.metrics) {
    Stopwatch sw(lt.metrics);
    aqt::obs::collect_engine_metrics(*eng, result.metrics);
  }
}

}  // namespace

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

LayerTimes run_traced(const aqt::serve::Registry& registry,
                      const std::string& request_text, aqt::RunResult& result,
                      std::string& bytes) {
  LayerTimes lt;
  const Clock::time_point start = Clock::now();
  std::optional<aqt::serve::RunRequest> req;
  {
    Stopwatch sw(lt.parse);
    req.emplace(aqt::serve::parse_run_request(request_text, "bench"));
  }
  std::optional<aqt::RunSpec> spec;
  {
    Stopwatch sw(lt.compile);
    spec.emplace(registry.compile(*req));
  }
  result = aqt::RunResult{};
  result.name = default_name(*spec);
  result.protocol = spec->protocol;
  result.topology = spec->topology.name;
  result.seed = spec->seed;
  try {
    traced_cell(*spec, result, lt);
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  {
    Stopwatch sw(lt.result);
    bytes = aqt::serve::canonical_result_json(result);
  }
  lt.wall = seconds_between(start, Clock::now());
  return lt;
}

PlainJob run_plain(const aqt::serve::Registry& registry,
                   const std::string& request_text) {
  PlainJob job;
  std::vector<Clock::time_point> marks;
  marks.reserve(4096);
  const Clock::time_point start = Clock::now();
  marks.push_back(start);
  const aqt::serve::RunRequest req =
      aqt::serve::parse_run_request(request_text, "bench");
  aqt::RunSpec spec = registry.compile(req);
  if (spec.adversary)
    spec.adversary = [factory = spec.adversary, &marks](
                         const aqt::Graph& graph, std::uint64_t seed)
        -> std::unique_ptr<Adversary> {
      return std::make_unique<SegmentClock>(factory(graph, seed), marks);
    };
  spec.collect = [&job](const Engine& eng, const Adversary* adv,
                        aqt::RunResult&) {
    job.sends = eng.metrics().sends();
    const auto* clock = dynamic_cast<const SegmentClock*>(adv);
    if (const auto* lps = dynamic_cast<const aqt::LpsAdversary*>(
            clock != nullptr ? &clock->inner() : adv))
      for (const aqt::LpsIterationRecord& it : lps->history())
        job.lps_growth.emplace_back(it.s_start, it.s_end);
  };
  job.result = aqt::execute_run(spec);
  job.bytes = aqt::serve::canonical_result_json(job.result);
  const Clock::time_point end = Clock::now();
  marks.push_back(end);
  job.wall = seconds_between(start, end);
  for (std::size_t i = 1; i < marks.size(); ++i)
    job.segments.push_back(seconds_between(marks[i - 1], marks[i]));
  return job;
}

std::string setup_note(const std::vector<double>& samples) {
  std::ostringstream note;
  note.precision(4);
  note << "setup samples (us):";
  for (const double s : samples) note << " " << 1e6 * s;
  return note.str();
}

std::string without_trace_hash(std::string request_text) {
  const std::string art = "\"trace_hash\"";
  const std::size_t at = request_text.find(art);
  AQT_REQUIRE(at != std::string::npos, "request carries no trace_hash");
  const bool comma = at > 0 && request_text[at - 1] == ',';
  request_text.erase(comma ? at - 1 : at, art.size() + (comma ? 1 : 0));
  return request_text;
}

double interference_free_wall(const std::vector<PlainJob>& jobs,
                              std::size_t count) {
  if (jobs.empty()) return 0.0;
  const std::size_t used = std::min(count, jobs.size());
  const std::size_t n = jobs.front().segments.size();
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    double best = jobs.front().segments[k];
    for (std::size_t j = 0; j < used; ++j) {
      AQT_REQUIRE(jobs[j].segments.size() == n,
                  "repetitions of one job differ in segment count");
      best = std::min(best, jobs[j].segments[k]);
    }
    total += best;
  }
  return total;
}

void check_same_statistics(const aqt::RunResult& with_hash,
                           const aqt::RunResult& without_hash,
                           const std::string& who, Report& report) {
  aqt::RunResult a = with_hash;
  a.trace_hash = 0;
  if (aqt::serve::canonical_result_json(a) !=
      aqt::serve::canonical_result_json(without_hash))
    report.fail(who + ": the job without trace_hash simulated differently");
}

void check_conservation(const aqt::RunResult& r, const std::string& who,
                        Report& report) {
  if (!r.ok()) {
    report.fail(who + ": run failed: " + r.error);
    return;
  }
  if (r.injected - r.absorbed != r.in_flight)
    report.fail(who + ": injected - absorbed != in_flight (" +
                std::to_string(r.injected) + " - " +
                std::to_string(r.absorbed) +
                " != " + std::to_string(r.in_flight) + ")");
}

void check_layer_sum(const LayerTimes& lt, const std::string& who,
                     Report& report) {
  const double tolerance = kLayerSumShare * lt.wall + kLayerSumSlackS;
  std::ostringstream note;
  note.precision(9);
  note << "layer-sum " << who << ": wall " << lt.wall << " s, spans "
       << lt.top_level_sum() << " s, tolerance " << tolerance << " s";
  report.notes.push_back(note.str());
  if (std::abs(lt.unattributed()) > tolerance)
    report.fail(who + ": layer spans sum to " +
                std::to_string(lt.top_level_sum()) + " s of " +
                std::to_string(lt.wall) + " s traced wall (tolerance " +
                std::to_string(tolerance) + " s)");
  if (lt.adversary + lt.replay > lt.run)
    report.fail(who + ": nested spans exceed Engine::run (" +
                std::to_string(lt.adversary + lt.replay) + " s of " +
                std::to_string(lt.run) + " s)");
}

void add_layer_metrics(const std::vector<WeightedLayers>& jobs,
                       Report& report) {
  double total = 0;
  for (const WeightedLayers& j : jobs) total += j.weight;
  const auto mean = [&](auto field) {
    double sum = 0;
    for (const WeightedLayers& j : jobs)
      sum += j.weight * static_cast<double>(field(j));
    return total > 0 ? sum / total : 0.0;
  };
  const auto layer = [&](const char* name, auto field, const char* unit) {
    report.set(name, mean([&](const WeightedLayers& j) {
                 return field(j.layers);
               }),
               unit);
  };
  layer("serve.parse_s", [](const LayerTimes& l) { return l.parse; }, "s");
  layer("serve.compile_s", [](const LayerTimes& l) { return l.compile; }, "s");
  layer("serve.result_s", [](const LayerTimes& l) { return l.result; }, "s");
  layer("topology.build_s", [](const LayerTimes& l) { return l.topology; },
        "s");
  layer("core.engine_init_s",
        [](const LayerTimes& l) { return l.engine_init; }, "s");
  layer("core.run_s", [](const LayerTimes& l) { return l.engine_run(); }, "s");
  // The in-run share of the trace A/B: trace.hash_s less the header and
  // footer, which sit outside Engine::run.
  report.set("core.step_self_s", mean([](const WeightedLayers& j) {
               const LayerTimes& l = j.layers;
               return l.engine_run() - l.adversary -
                      std::max(0.0, j.trace_hash - l.trace_outside);
             }),
             "s");
  layer("core.route_validate_s",
        [](const LayerTimes& l) { return l.route_validate; }, "s");
  layer("core.route_intern_s",
        [](const LayerTimes& l) { return l.route_intern; }, "s");
  layer("core.rate_check_s", [](const LayerTimes& l) { return l.rate_check; },
        "s");
  layer("core.sends", [](const LayerTimes& l) { return l.sends; }, "count");
  layer("core.max_queue", [](const LayerTimes& l) { return l.max_queue; },
        "count");
  layer("adversaries.step_s", [](const LayerTimes& l) { return l.adversary; },
        "s");
  layer("adversaries.injections",
        [](const LayerTimes& l) { return l.injections; }, "count");
  layer("adversaries.reroutes", [](const LayerTimes& l) { return l.reroutes; },
        "count");
  report.set("trace.hash_s",
             mean([](const WeightedLayers& j) { return j.trace_hash; }), "s");
  layer("trace.records", [](const LayerTimes& l) { return l.records; },
        "count");
  layer("obs.metrics_s", [](const LayerTimes& l) { return l.metrics; }, "s");
  layer("bench.unattributed_s",
        [](const LayerTimes& l) { return l.unattributed(); }, "s");
  report.set("bench.trace_overhead_s",
             mean([](const WeightedLayers& j) {
               return j.layers.wall - j.plain_wall;
             }),
             "s");
  const double injections =
      mean([](const WeightedLayers& j) { return j.layers.injections; });
  const double unique =
      mean([](const WeightedLayers& j) { return j.layers.unique_routes; });
  report.set("core.route_dedup_ratio",
             injections > 0 ? unique / injections : 0.0, "ratio");
  report.set("serve.submit_s", 0.0, "s");
  report.set("serve.queue_wait_ms.p50", 0.0, "ms");
  report.set("serve.queue_wait_ms.p99", 0.0, "ms");
  report.set("serve.rejected", 0.0, "count");
  report.set("loadgen.lag_ms.max", 0.0, "ms");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace aqtb
