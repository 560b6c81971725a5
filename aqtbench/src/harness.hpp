// Shared pieces of the aqt benchmark harness: the clock, order statistics,
// the metric/check report every workload fills in, and the traced job
// decomposition (traced_job.cpp) that times each layer from outside by
// wrapping calls into the libraries' public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "aqt/runner/run_spec.hpp"
#include "aqt/serve/registry.hpp"

namespace aqtb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median (mean of the two middle values for even sizes); 0 for empty.
double median(std::vector<double> xs);

/// Nearest-rank quantile, q in [0, 1]; 0 for empty.
double quantile(std::vector<double> xs, double q);

/// Options shared by every workload (parsed in main.cpp).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// Self-test mode: one job (offline) or a short window (served).
  bool short_mode = false;
  /// Self-test hook: perturb one expected output so the checks must fail.
  bool corrupt_check = false;
};

inline constexpr std::uint64_t kDefaultSeed = 1;

/// setup_s sampling: this many samples before the measuring window and as
/// many after it.  Each sample is the mean of one batch of back-to-back
/// set-ups, tens of milliseconds long so that it sits well above clock
/// and scheduler noise.  setup_s is the fastest sample: a shared host
/// switches between a calm and a loaded state for seconds at a time, and
/// a median over ten samples flips with the share of loaded ones.  The
/// count is fixed, so every build meets the same order statistic.
inline constexpr int kSetupSamples = 5;

/// One setup_s sample: the mean seconds of `batch` calls of `set_up`.
/// `set_up` returns the seconds of its own timed part, so a workload can
/// keep tear-down of the previous set-up out of the figure.
template <typename SetUp>
double setup_sample(int batch, SetUp&& set_up) {
  double total = 0;
  for (int i = 0; i < batch; ++i) total += set_up();
  return total / batch;
}

/// The note line listing a run's setup_s samples, in microseconds.
std::string setup_note(const std::vector<double>& samples);

/// served_mix threads: service workers + the service monitor + the
/// generator.  A run with more threads than cores is invalid.
inline constexpr unsigned kServedWorkers = 2;
inline constexpr unsigned kServedThreads = kServedWorkers + 2;

/// What a workload hands back to main: metrics by name (value, unit), how
/// many jobs it attempted, and every failed output check.
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed_jobs = 0;
  std::vector<std::string> failures;  ///< One line per failed check.
  std::vector<std::string> notes;     ///< Informational lines for stdout.

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& what) { failures.push_back(what); }
  /// Counts one failed job if any check failed since `failures_before`;
  /// returns whether one did.
  bool close_job(std::size_t failures_before) {
    const bool failed = failures.size() > failures_before;
    if (failed) ++failed_jobs;
    return failed;
  }
};

/// Per-job layer costs of one traced execution (seconds unless noted).
/// Top-level spans are contiguous, so their sum plus `unattributed`
/// is the traced wall time; the nested spans sit inside `run`.
struct LayerTimes {
  double wall = 0;  ///< Request text to result bytes, traced.

  // Top-level spans.
  double parse = 0;         ///< serve::parse_run_request
  double compile = 0;       ///< serve::Registry::compile
  double topology = 0;      ///< RunSpec::topology.build()
  double engine_init = 0;   ///< protocol, Engine ctor, RunSpec::setup, factory
  double trace_outside = 0; ///< RunTraceWriter header + finish()
  double run = 0;           ///< Engine::run (+ drain), trace records included
  double rate_check = 0;    ///< finalize_audit + check_window/check_rate_r
  double metrics = 0;       ///< obs::collect_engine_metrics
  double result = 0;        ///< serve::canonical_result_json

  // Nested inside `run`.
  double adversary = 0;     ///< Adversary::step via the forwarding decorator
  double replay = 0;        ///< The harness's own route replay (overhead)

  // Route replay (bench-side re-execution of the engine's per-injection
  // route work over the job's injected routes).
  double route_validate = 0;
  double route_intern = 0;
  std::uint64_t unique_routes = 0;

  std::uint64_t injections = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t records = 0;
  std::uint64_t sends = 0;
  std::uint64_t max_queue = 0;

  [[nodiscard]] double top_level_sum() const {
    return parse + compile + topology + engine_init + trace_outside + run +
           rate_check + metrics + result;
  }
  /// Engine::run without the harness's route replay (core.run_s).
  [[nodiscard]] double engine_run() const { return run - replay; }
  [[nodiscard]] double unattributed() const { return wall - top_level_sum(); }
};

/// Layer-sum tolerance: the traced top-level spans must cover the traced
/// wall time to within this share plus this absolute slack per job.
inline constexpr double kLayerSumShare = 0.02;
inline constexpr double kLayerSumSlackS = 0.0005;

/// Runs one request text through the public pipeline with every layer
/// wrapped: parse -> compile -> topology build -> engine set-up -> run ->
/// audit -> metrics -> canonical result.  Reproduces execute_run for fresh
/// (non-resumed, non-checkpointing) jobs byte for byte; `result` and
/// `bytes` receive what execute_run + canonical_result_json would return.
LayerTimes run_traced(const aqt::serve::Registry& registry,
                      const std::string& request_text, aqt::RunResult& result,
                      std::string& bytes);

/// Untraced whole job through the same public pipeline: parse -> compile
/// -> execute_run -> canonical_result_json.  `sends` receives the engine's
/// send count through a RunSpec::collect hook that leaves the result
/// untouched; `lps_growth` receives (s_start, s_end) per LPS iteration.
/// `segments` splits `wall` at every 256th adversary step (clock reads
/// only), into pieces that are the same work in every repetition.
struct PlainJob {
  double wall = 0;
  std::vector<double> segments;
  aqt::RunResult result;
  std::string bytes;
  std::uint64_t sends = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> lps_growth;
};
PlainJob run_plain(const aqt::serve::Registry& registry,
                   const std::string& request_text);

/// The request text with the trace_hash artifact removed: the B side of
/// the trace.hash_s A/B.
std::string without_trace_hash(std::string request_text);

/// Wall time of a job repeated several times, with interference from
/// other tenants of the host removed: the sum over segments of each
/// segment's fastest repetition among the first `count` jobs (all of them
/// when there are fewer).  A fixed count keeps the estimator the same for
/// a faster and a slower build.  Every repetition must run the same
/// deterministic job.
double interference_free_wall(const std::vector<PlainJob>& jobs,
                              std::size_t count);

/// Checks that a job run without trace_hash simulated exactly what the
/// job with it did (everything but the hash).
void check_same_statistics(const aqt::RunResult& with_hash,
                           const aqt::RunResult& without_hash,
                           const std::string& who, Report& report);

/// Checks every job must pass: ok, and injected - absorbed == in_flight.
void check_conservation(const aqt::RunResult& r, const std::string& who,
                        Report& report);

/// The layer-sum check: the traced top-level spans must account for the
/// traced wall time within the stated tolerance, and the nested spans must
/// fit inside Engine::run.
void check_layer_sum(const LayerTimes& lt, const std::string& who,
                     Report& report);

/// One traced job and how many jobs of the workload it stands for.
struct WeightedLayers {
  LayerTimes layers;
  double weight = 1;
  double plain_wall = 0;  ///< The same job untraced, for the overhead.
  /// trace.hash_s: untraced wall with trace_hash minus without, both
  /// through the interference filter.  Timing each trace record would
  /// cost more than hashing it, so the hash is measured as this A/B.
  double trace_hash = 0;
};

/// Sets every per-layer metric that the traced decomposition measures, as
/// weighted means per job.  The serve.submit/queue-wait/rejected and
/// loadgen metrics are the served workload's; offline workloads report 0.
void add_layer_metrics(const std::vector<WeightedLayers>& jobs,
                       Report& report);

/// Workload entry points (offline.cpp, served.cpp).
Report run_offline(const Options& opt);
Report run_served(const Options& opt);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

}  // namespace aqtb
