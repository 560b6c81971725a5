// aqt-sim: general-purpose simulation driver.
//
// Pick a topology, a protocol, and an adversary from the command line — or
// run a .aqts scenario file verbatim; print the stability-relevant metrics.
// Every run is one job with one execution path: the flags become a
// serve::RunRequest compiled by serve::Registry (the compiler aqt-serve
// uses), a scenario becomes its scripted RunSpec, and both run through
// execute_run.  What the command line adds are observers: verify rate
// feasibility, record the engine run as aqt-verify evidence, re-run from
// the same seed to prove determinism, profile, and the flight recorder.
//
// Examples:
//   aqt-sim --topology grid:5x5 --protocol FIFO
//           --adversary stochastic --w 12 --r 1/4 --d 4 --steps 20000
//   aqt-sim --scenario examples/scenarios/ring_convoy.aqts
//           --record-run out/ring_convoy.trace --replay-twice true
//   aqt-sim --topology ring:16 --protocol NTG --adversary convoy
//           --w 12 --r 1/3 --steps 5000 --audit true
//   aqt-sim --batch examples/scenarios --jobs 4
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "aqt/obs/events.hpp"
#include "aqt/obs/export.hpp"
#include "aqt/obs/profiler.hpp"
#include "aqt/obs/registry.hpp"
#include "aqt/obs/snapshot.hpp"
#include "aqt/obs/timeseries.hpp"
#include "aqt/obs/tracing.hpp"
#include "aqt/obs/watchdog.hpp"
#include "aqt/runner/pool.hpp"
#include "aqt/runner/run_spec.hpp"
#include "aqt/serve/registry.hpp"
#include "aqt/serve/request.hpp"
#include "aqt/serve/result.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/cli.hpp"
#include "aqt/util/hash.hpp"
#include "aqt/util/table.hpp"
#include "aqt/verify/scenario_run.hpp"

namespace {

using namespace aqt;

/// A .aqts file as its scripted job.  With `audit`, the run checks the
/// file's declared window, or else its declared rate.
RunSpec scenario_job(const std::string& path, Time steps, bool audit) {
  RunSpec spec =
      make_scenario_spec(load_scenario_run(path),
                         std::filesystem::path(path).stem().string(), steps);
  if (audit) {
    const RunTraceMeta& declared = *spec.header;
    AQT_REQUIRE(declared.window_w.has_value() || declared.rate_r.has_value(),
                "--audit needs a declared window/rate in " << path);
    if (declared.window_w.has_value()) {
      spec.audit_w = declared.window_w;
      spec.audit_r = declared.window_r;
    } else {
      spec.audit_r = declared.rate_r;
    }
  }
  return spec;
}

/// The command-line run as a RunRequest, audited against its adversary's
/// constraint.  It goes through the request parser, so flag values get the
/// validation a request file gets.
serve::RunRequest request_from_flags(const Cli& cli) {
  serve::RunRequest req;
  req.topology = cli.get("topology");
  req.protocol = cli.get("protocol");
  req.seed = get_seed(cli);
  req.steps = cli.get_int("steps");
  serve::AdversarySpec& adv = req.adversary;
  adv.kind = cli.get("adversary");
  adv.w = cli.get_int("w");
  adv.r = cli.get_rat("r");
  adv.d = cli.get_int("d");
  adv.burst = cli.get_int("burst");
  adv.iterations = cli.get_int("iterations");
  adv.s_star = cli.get_int("s-star");
  serve::audit_adversary_constraint(req);
  req.art_trace_hash =
      !cli.get("record-run").empty() || cli.get_bool("replay-twice");
  return serve::parse_run_request(serve::run_request_to_json(req),
                                  "aqt-sim flags");
}

/// A run that stopped on an error exits 2, like any other bad input.
int run_failed(const RunResult& result) {
  std::fprintf(stderr, "aqt-sim: %s\n", result.error.c_str());
  return 2;
}

/// --progress: a heartbeat line on stderr every `every` steps.
class ProgressSink final : public StepSampleSink {
 public:
  explicit ProgressSink(Time every) : every_(every) {}

  void on_step(const StepSample& sample, const Engine& engine) override {
    if (sample.t % every_ != 0) return;
    const auto now = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(now - last_).count();
    const double sps =
        secs > 0.0 ? static_cast<double>(sample.t - last_step_) / secs : 0.0;
    std::fprintf(stderr,
                 "progress: step %lld  in-flight %llu  max-queue %llu  "
                 "%.0f steps/sec\n",
                 static_cast<long long>(sample.t),
                 static_cast<unsigned long long>(sample.in_flight),
                 static_cast<unsigned long long>(
                     engine.metrics().max_queue_global()),
                 sps);
    last_ = now;
    last_step_ = sample.t;
  }

 private:
  Time every_;
  std::chrono::steady_clock::time_point last_ =
      std::chrono::steady_clock::now();
  Time last_step_ = 0;
};

/// --batch <dir>: run every .aqts scenario and every .json RunRequest in
/// the directory through the deterministic run-pool, honoring --jobs.  The
/// summary table is in sorted filename order (submission order), so output
/// is byte-identical for any --jobs value.  RunRequest files go through
/// the same serve::Registry compiler as aqt-serve jobs, so --results-dir
/// artifacts here are byte-identical to the served ones.
int run_batch(const Cli& cli) {
  namespace fs = std::filesystem;
  const std::string dir = cli.get("batch");
  AQT_REQUIRE(fs::is_directory(dir), "--batch needs a directory: " << dir);
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file() && (entry.path().extension() == ".aqts" ||
                                    entry.path().extension() == ".json"))
      files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  AQT_REQUIRE(!files.empty(), "no .aqts scenarios or .json requests in "
                                  << dir);

  const bool audit = cli.get_bool("audit");
  const Time cap = cli.get_int("steps");
  const serve::Registry registry;
  std::vector<RunSpec> specs;
  specs.reserve(files.size());
  for (const fs::path& path : files) {
    if (path.extension() == ".json") {
      std::ifstream in(path);
      AQT_REQUIRE(static_cast<bool>(in), "cannot open " << path.string());
      std::ostringstream text;
      text << in.rdbuf();
      const serve::RunRequest req =
          serve::parse_run_request(text.str(), path.string());
      specs.push_back(registry.compile(req));
    } else {
      specs.push_back(scenario_job(path.string(), cap, audit));
    }
  }

  const RunPoolReport report = run_pool(specs, get_jobs(cli));
  if (!cli.get("results-dir").empty()) {
    // One canonical RunResult document per cell, named by the source file.
    // These bytes are the offline half of the serve byte-identity
    // contract: a client saving a served job's result_canonical line gets
    // the same content.
    const fs::path out_dir = cli.get("results-dir");
    fs::create_directories(out_dir);
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      const fs::path out = out_dir / (files[i].stem().string() + ".json");
      std::ofstream os(out, std::ios::trunc);
      AQT_REQUIRE(static_cast<bool>(os), "cannot open " << out.string());
      os << serve::canonical_result_json(report.results[i]) << "\n";
    }
    std::cout << report.results.size() << " result document(s) written to "
              << out_dir.string() << "\n";
  }
  Table t({"scenario", "protocol", "steps", "injected", "absorbed",
           "max queue", "max residence", "feasible", "trace hash",
           "status"});
  bool all_ok = true;
  for (const RunResult& r : report.results) {
    t.rowv(r.name, r.protocol, static_cast<long long>(r.steps_run),
           static_cast<long long>(r.injected),
           static_cast<long long>(r.absorbed),
           static_cast<long long>(r.max_queue),
           static_cast<long long>(r.max_residence), r.feasible,
           hash_hex(r.trace_hash),
           r.ok() ? std::string("ok") : r.error);
    all_ok = all_ok && r.ok() && r.feasible;
  }
  std::cout << t << "batch: " << report.results.size() << " scenario(s)\n";
  obs::export_cli_metrics(cli, report.metrics, "aqt-sim");
  return all_ok ? 0 : 1;
}

}  // namespace

static int run_main(int argc, char** argv) {
  Cli cli("aqt-sim", "adversarial queuing simulation driver");
  cli.flag("topology", "grid:4x4",
           "line:N ring:N bidiring:N grid:RxC torus:RxC tree:D hypercube:D "
           "dag:N lps:NxM");
  cli.flag("protocol", "FIFO", "FIFO LIFO LIS NIS FTG NTG FFS NTS RANDOM");
  cli.flag("adversary", "stochastic",
           "stochastic | hotspot | convoy | bucket | lps | none");
  cli.flag("scenario", "",
           "run this .aqts scenario (topology/protocol/script/declared "
           "constraints come from the file)");
  cli.flag("batch", "",
           "run every .aqts scenario and .json RunRequest in this "
           "directory through the deterministic run-pool (honors --jobs; "
           "summary in filename order)");
  cli.flag("results-dir", "",
           "with --batch: write one canonical RunResult JSON per cell "
           "into this directory (byte-identical to aqt-serve's "
           "result_canonical)");
  cli.flag("burst", "2", "token-bucket burst b (bucket adversary)");
  cli.flag("steps", "10000", "steps to run (lps: upper cap)");
  cli.flag("w", "12", "window size (stochastic/convoy)");
  cli.flag("r", "1/4", "injection rate");
  cli.flag("d", "4", "max route length (stochastic)");
  cli.flag("iterations", "3", "outer iterations (lps)");
  cli.flag("s-star", "1200", "initial flat queue (lps)");
  add_seed_flag(cli);
  add_jobs_flag(cli);
  cli.flag("audit", "false", "verify rate feasibility post-run");
  cli.flag("record-run", "",
           "record the engine run trace (aqt-verify evidence) to this file");
  cli.flag("replay-twice", "false",
           "run twice from the same seed and fail on run-trace divergence");
  add_metrics_flags(cli);
  cli.flag("events", "",
           "write the packet-lifecycle JSONL event stream to this path");
  cli.flag("profile", "false",
           "time engine substeps and print a per-phase breakdown");
  cli.flag("timeseries", "",
           "record the per-step flight-recorder series to this path "
           "(CSV, or JSONL when the path ends in .jsonl)");
  cli.flag("timeseries-stride", "1",
           "record every N-th step (adaptive: doubles when the bounded "
           "buffer fills)");
  cli.flag("watch-edges", "",
           "comma-separated edge names whose queue depth is added as "
           "--timeseries columns");
  cli.flag("trace-out", "",
           "write a Chrome trace_event / Perfetto JSON of sampled engine "
           "step phases to this path (mutually exclusive with --profile)");
  cli.flag("watchdog", "false",
           "run the online stability watchdog and print its verdict");
  cli.flag("progress", "0",
           "print a heartbeat line to stderr every N steps (0 = off)");
  if (!cli.parse(argc, argv)) return 0;

  if (!cli.get("batch").empty()) return run_batch(cli);

  const bool audit = cli.get_bool("audit");
  const bool replay_twice = cli.get_bool("replay-twice");
  const std::string record_run = cli.get("record-run");
  AQT_REQUIRE(cli.get("trace-out").empty() || !cli.get_bool("profile"),
              "--trace-out and --profile both want the phase sink; pick one");

  // The job, and the names the metric table gives its topology and
  // adversary.
  RunSpec spec;
  std::string topology_name;
  std::string adversary_name = "scenario";
  if (!cli.get("scenario").empty()) {
    spec = scenario_job(cli.get("scenario"), cli.get_int("steps"), audit);
    spec.seed = get_seed(cli);
    topology_name = parse_scenario_file(cli.get("scenario")).topology;
  } else {
    const serve::RunRequest req = request_from_flags(cli);
    spec = serve::Registry().compile(req);
    // The header declares the adversary's constraint, audited or not.
    spec.header = audit_header(spec);
    if (!audit) {
      spec.audit_w.reset();
      spec.audit_burst.reset();
      spec.audit_r.reset();
    }
    topology_name = req.topology;
    adversary_name = req.adversary.kind;
  }
  spec.artifacts.metrics = !cli.get("metrics-out").empty() ||
                           !cli.get("metrics-prom").empty() ||
                           !cli.get("metrics-csv").empty();
  spec.collect = [](const Engine& eng, const Adversary* adv, RunResult& r) {
    r.extra["mean latency"] = eng.metrics().mean_latency();
    r.extra["unfinished"] = adv != nullptr && !adv->finished(eng.now() + 1);
  };

  // Observers of the primary run; the determinism re-run has none, so it
  // measures nothing twice.  All are write-only: enabling them cannot
  // change the run (aqt-fuzz --obs-trials checks exactly that).
  const Graph graph = spec.topology.build();
  RunObservers observers;
  std::optional<obs::StepProfiler> profiler;
  if (cli.get_bool("profile")) {
    profiler.emplace();
    observers.phases = &*profiler;
  }
  std::optional<obs::TraceEventLog> trace_log;
  std::optional<obs::PhaseTraceRecorder> phase_trace;
  if (!cli.get("trace-out").empty()) {
    trace_log.emplace();
    trace_log->name_thread(0, "engine");
    phase_trace.emplace(*trace_log);
    observers.phases = &*phase_trace;
  }
  std::ofstream events_os;
  std::optional<obs::JsonlEventWriter> events;
  if (!cli.get("events").empty()) {
    events_os.open(cli.get("events"), std::ios::trunc);
    AQT_REQUIRE(static_cast<bool>(events_os),
                "cannot open " << cli.get("events"));
    events.emplace(events_os, graph);
    observers.events = &*events;
  }
  // Flight recorder, watchdog and heartbeat share the step-sample stream.
  std::optional<obs::TimeseriesRecorder> timeseries;
  std::optional<obs::StabilityWatchdog> watchdog;
  std::optional<ProgressSink> progress;
  obs::StepSampleFanout sample_fanout;
  if (!cli.get("timeseries").empty()) {
    obs::TimeseriesConfig tc;
    tc.stride = std::max<Time>(1, cli.get_int("timeseries-stride"));
    std::istringstream names(cli.get("watch-edges"));
    std::string name;
    while (std::getline(names, name, ','))
      if (!name.empty()) tc.watched.push_back(graph.edge_by_name(name));
    timeseries.emplace(tc, &graph);
    sample_fanout.add(&*timeseries);
  }
  if (cli.get_bool("watchdog")) {
    watchdog.emplace();
    sample_fanout.add(&*watchdog);
  }
  if (cli.get_int("progress") > 0) {
    progress.emplace(cli.get_int("progress"));
    sample_fanout.add(&*progress);
  }
  observers.samples = sample_fanout.as_sink();
  std::ofstream record_os;
  if (!record_run.empty()) {
    record_os.open(record_run);
    AQT_REQUIRE(static_cast<bool>(record_os), "cannot open " << record_run);
    observers.run_trace = &record_os;
  }

  RunResult result = execute_run(spec, observers);
  if (!result.ok()) return run_failed(result);

  Table t({"metric", "value"});
  t.rowv("topology", topology_name);
  t.rowv("protocol", spec.protocol);
  t.rowv("adversary", adversary_name);
  t.rowv("steps", static_cast<long long>(result.steps_run));
  t.rowv("injected", static_cast<long long>(result.injected));
  t.rowv("absorbed", static_cast<long long>(result.absorbed));
  t.rowv("in flight", static_cast<long long>(result.in_flight));
  t.rowv("max queue", static_cast<long long>(result.max_queue));
  t.rowv("max residence", static_cast<long long>(result.max_residence));
  t.rowv("max latency", static_cast<long long>(result.max_latency));
  t.rowv("mean latency", result.extra["mean latency"]);
  std::cout << "\n" << t;
  // The LPS construction is the one finite flag adversary: a --steps cap
  // that cuts it short must not read as a finished run.
  if (adversary_name == "lps" && result.extra["unfinished"] != 0)
    std::cout << "the lps adversary had not finished at --steps "
              << spec.steps << ": " << result.in_flight
              << " packets in flight\n";

  if (profiler) std::cout << "\n" << profiler->summary();
  if (events)
    std::cout << "events (" << events->lines_written()
              << " lines) written to " << cli.get("events") << "\n";
  if (timeseries) {
    const std::string path = cli.get("timeseries");
    const bool jsonl = path.size() >= 6 &&
                       path.compare(path.size() - 6, 6, ".jsonl") == 0;
    obs::write_file(path,
                    jsonl ? timeseries->to_jsonl() : timeseries->to_csv());
    std::cout << "timeseries (" << timeseries->rows().size()
              << " rows, effective stride "
              << static_cast<long long>(timeseries->effective_stride())
              << ") written to " << path << "\n";
  }
  if (trace_log) {
    trace_log->write(cli.get("trace-out"), "aqt-sim");
    std::cout << "trace (" << trace_log->size() << " events, "
              << phase_trace->recorded_steps()
              << " sampled steps) written to " << cli.get("trace-out")
              << "\n";
  }
  if (watchdog) std::cout << "\n" << watchdog->summary();

  if (spec.artifacts.metrics) {
    if (profiler) obs::collect_profile_metrics(*profiler, result.metrics);
    if (watchdog) watchdog->collect_metrics(result.metrics);
    obs::export_cli_metrics(cli, result.metrics, "aqt-sim");
  }
  if (audit)
    std::cout << "\nrate feasibility: " << result.audit.describe(graph)
              << "\n";
  if (!record_run.empty())
    std::cout << "run trace written to " << record_run << "\n";

  if (replay_twice) {
    const RunResult again = execute_run(spec);
    if (!again.ok()) return run_failed(again);
    if (again.trace_hash != result.trace_hash) {
      std::fprintf(stderr,
                   "DETERMINISM FAILURE: replay from seed %llu diverged "
                   "(trace hash %s vs %s)\n",
                   static_cast<unsigned long long>(spec.seed),
                   hash_hex(result.trace_hash).c_str(),
                   hash_hex(again.trace_hash).c_str());
      return 1;
    }
    std::printf("determinism: replay matched (trace hash %s)\n",
                hash_hex(result.trace_hash).c_str());
  }
  return result.feasible ? 0 : 1;
}

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const PreconditionError& e) {
    std::fprintf(stderr, "aqt-sim: %s\n", e.what());
    return 2;
  } catch (const serve::RequestError& e) {
    std::fprintf(stderr, "aqt-sim: %s %s\n", e.code().c_str(), e.what());
    return 2;
  }
}
