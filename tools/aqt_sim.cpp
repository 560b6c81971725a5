// aqt-sim: general-purpose simulation driver.
//
// Pick a topology, a protocol, and an adversary from the command line — or
// run a .aqts scenario file verbatim; run for a number of steps; print the
// stability-relevant metrics and optionally dump the occupancy time series
// as CSV, verify rate feasibility, record the adversary schedule as a
// trace, record the *engine run* as aqt-verify evidence, re-run from the
// same seed to prove determinism, or checkpoint the final state.
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
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "aqt/adversaries/lps.hpp"
#include "aqt/adversaries/bucket.hpp"
#include "aqt/adversaries/stochastic.hpp"
#include "aqt/analysis/bounds.hpp"
#include "aqt/core/checkpoint.hpp"
#include "aqt/core/engine.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/core/rate_check.hpp"
#include "aqt/core/stability.hpp"
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
#include "aqt/serve/result.hpp"
#include "aqt/topology/gadget.hpp"
#include "aqt/topology/spec.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/trace/run_trace.hpp"
#include "aqt/trace/trace.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/cli.hpp"
#include "aqt/util/csv.hpp"
#include "aqt/util/hash.hpp"
#include "aqt/util/table.hpp"
#include "aqt/verify/scenario_run.hpp"

namespace {

using namespace aqt;

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
      continue;
    }
    ScenarioRun srun = load_scenario_run(path.string());
    const Time horizon = std::max<Time>(cap, srun.last_event + 1);
    RunSpec spec =
        make_scripted_spec(path.stem().string(), srun.topology.graph,
                           srun.scenario.protocol, std::move(srun.script),
                           horizon);
    if (audit) {
      AQT_REQUIRE(srun.scenario.window_w.has_value() ||
                      srun.scenario.rate_r.has_value(),
                  "--audit needs a declared window/rate in "
                      << path.string());
      if (srun.scenario.window_w.has_value()) {
        spec.audit_w = *srun.scenario.window_w;
        spec.audit_r = *srun.scenario.window_r;
      } else {
        spec.audit_r = *srun.scenario.rate_r;
      }
    }
    specs.push_back(std::move(spec));
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
           "stochastic | hotspot | convoy | bucket | lps");
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
  cli.flag("series", "", "write occupancy series CSV to this path");
  cli.flag("record", "", "record the adversary schedule to this trace file");
  cli.flag("record-run", "",
           "record the engine run trace (aqt-verify evidence) to this file");
  cli.flag("replay-twice", "false",
           "run twice from the same seed and fail on run-trace divergence");
  cli.flag("checkpoint", "", "save the final state to this file");
  cli.flag("resume", "",
           "load this checkpoint before running (same topology required; "
           "the adversary starts fresh on the restored state)");
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

  const std::uint64_t seed = get_seed(cli);
  const bool audit = cli.get_bool("audit");
  const bool replay_twice = cli.get_bool("replay-twice");
  const std::string record_run = cli.get("record-run");
  const bool resuming = !cli.get("resume").empty();
  AQT_REQUIRE(!resuming || (record_run.empty() && !replay_twice),
              "--record-run / --replay-twice need a from-scratch run "
              "(drop --resume)");

  std::optional<ScenarioRun> srun;
  if (!cli.get("scenario").empty())
    srun.emplace(load_scenario_run(cli.get("scenario")));

  TopologySpec topo = srun ? std::move(srun->topology)
                           : parse_topology_spec(cli.get("topology"), seed);
  const std::string protocol_name =
      srun ? srun->scenario.protocol : cli.get("protocol");
  const std::string kind = srun ? "scenario" : cli.get("adversary");
  const Rat r = cli.get_rat("r");

  // The header of any recorded run trace: declared constraints come from
  // the scenario file, or from the (w, r)-shaped command-line adversaries.
  RunTraceMeta meta;
  if (srun) {
    meta = srun->meta;
  } else if (kind == "stochastic" || kind == "hotspot" || kind == "convoy") {
    meta.window_w = cli.get_int("w");
    meta.window_r = r;
  } else if (kind == "lps") {
    meta.rate_r = r;
  }
  meta.protocol = protocol_name;
  meta.seed = seed;

  // Convoy route.  Depends only on the graph, so computed once even when
  // the run is repeated for the determinism check.
  Route convoy_path;
  if (kind == "convoy") {
    convoy_path = convoy_route(topo.graph, cli.get_int("d"));
    AQT_REQUIRE(!convoy_path.empty(), "no forward path for the convoy");
  }

  // Everything stateful — protocol (RANDOM carries an RNG), engine,
  // adversary — is built fresh per run so a determinism re-run starts from
  // the exact same state.
  auto build_adversary = [&]() -> std::unique_ptr<Adversary> {
    if (srun) return std::make_unique<ReplayAdversary>(srun->script);
    if (kind == "stochastic" || kind == "hotspot") {
      StochasticConfig cfg;
      cfg.w = cli.get_int("w");
      cfg.r = r;
      cfg.max_route_len = cli.get_int("d");
      cfg.seed = seed;
      cfg.mode = kind == "hotspot" ? StochasticConfig::Mode::kHotspot
                                   : StochasticConfig::Mode::kUniform;
      return std::make_unique<StochasticAdversary>(topo.graph, cfg);
    }
    if (kind == "bucket") {
      BucketAdversary::Config cfg;
      cfg.burst = cli.get_int("burst");
      cfg.rate = r;
      cfg.max_route_len = cli.get_int("d");
      cfg.seed = seed;
      return std::make_unique<BucketAdversary>(topo.graph, cfg);
    }
    if (kind == "convoy")
      return std::make_unique<ConvoyAdversary>(convoy_path, cli.get_int("w"),
                                               r);
    if (kind == "lps") {
      AQT_REQUIRE(topo.is_lps, "--adversary lps needs --topology lps:NxM");
      LpsConfig cfg = make_lps_config(r);
      cfg.enforce_s0 = false;
      AQT_REQUIRE(cfg.n == topo.lps_net.n,
                  "topology lps:" << topo.lps_net.n << "xM does not match "
                                  << "n(" << r << ") = " << cfg.n
                                  << "; use lps:" << cfg.n << "xM");
      return std::make_unique<LpsAdversary>(topo.lps_net, cfg,
                                            cli.get_int("iterations"));
    }
    AQT_REQUIRE(false, "unknown adversary: " << kind);
    return nullptr;
  };

  // One complete simulation.  With `traced` set the run is recorded and
  // the returned value is its trace's content hash (0 otherwise); `run_os`,
  // when set, receives the trace bytes, else the writer is hash-only.
  // Metrics reporting and all side outputs happen only on the primary run.
  bool audit_ok = true;
  auto run_once = [&](bool traced, std::ostream* run_os,
                      bool primary) -> std::uint64_t {
    auto protocol = make_protocol(protocol_name, seed);
    EngineConfig ec;
    ec.audit_rates = audit && primary;
    ec.series_stride = (!primary || cli.get("series").empty())
                           ? 0
                           : std::max<Time>(1, cli.get_int("steps") / 512);
    std::optional<RunTraceWriter> writer;
    if (run_os != nullptr)
      writer.emplace(*run_os, topo.graph, meta);
    else if (traced)
      writer.emplace(topo.graph, meta);
    ec.sinks.trace = writer ? &*writer : nullptr;

    // Observability (primary run only, so the determinism re-run measures
    // nothing twice).  Both sinks are write-only: enabling them cannot
    // change the run (aqt-fuzz --obs-trials checks exactly that).
    std::optional<obs::StepProfiler> profiler;
    if (primary && cli.get_bool("profile")) profiler.emplace();
    ec.sinks.profile = profiler ? &*profiler : nullptr;
    std::ofstream events_os;
    std::optional<obs::JsonlEventWriter> events;
    if (primary && !cli.get("events").empty()) {
      events_os.open(cli.get("events"), std::ios::trunc);
      AQT_REQUIRE(static_cast<bool>(events_os),
                  "cannot open " << cli.get("events"));
      events.emplace(events_os, topo.graph);
    }
    ec.sinks.events = events ? &*events : nullptr;

    // Flight recorder + watchdog share the step-sample stream via fanout;
    // the phase trace takes the profile slot (one StepPhaseSink per run).
    std::optional<obs::TimeseriesRecorder> timeseries;
    std::optional<obs::StabilityWatchdog> watchdog;
    obs::StepSampleFanout sample_fanout;
    if (primary && !cli.get("timeseries").empty()) {
      obs::TimeseriesConfig tc;
      tc.stride = std::max<Time>(1, cli.get_int("timeseries-stride"));
      std::istringstream names(cli.get("watch-edges"));
      std::string name;
      while (std::getline(names, name, ','))
        if (!name.empty()) tc.watched.push_back(topo.graph.edge_by_name(name));
      timeseries.emplace(tc, &topo.graph);
      sample_fanout.add(&*timeseries);
    }
    if (primary && cli.get_bool("watchdog")) {
      watchdog.emplace();
      sample_fanout.add(&*watchdog);
    }
    ec.sinks.samples = sample_fanout.as_sink();

    std::optional<obs::TraceEventLog> trace_log;
    std::optional<obs::PhaseTraceRecorder> phase_trace;
    if (primary && !cli.get("trace-out").empty()) {
      AQT_REQUIRE(!cli.get_bool("profile"),
                  "--trace-out and --profile both want the phase sink; "
                  "pick one");
      trace_log.emplace();
      trace_log->name_thread(0, "engine");
      phase_trace.emplace(*trace_log);
      ec.sinks.profile = &*phase_trace;
    }

    Engine eng(topo.graph, *protocol, ec);

    if (resuming) {
      AQT_REQUIRE(!audit, "--resume requires --audit false");
      load_checkpoint_file(eng, cli.get("resume"));
      std::printf("resumed from %s at step %lld (%llu packets in flight)\n",
                  cli.get("resume").c_str(),
                  static_cast<long long>(eng.now()),
                  static_cast<unsigned long long>(eng.packets_in_flight()));
    }
    if (kind == "lps" && !resuming)
      setup_flat_queue(eng, topo.lps_net, 0, cli.get_int("s-star"));

    std::unique_ptr<Adversary> adversary = build_adversary();
    Trace trace;
    std::unique_ptr<RecordingAdversary> recorder;
    Adversary* driver = adversary.get();
    if (primary && !cli.get("record").empty()) {
      recorder = std::make_unique<RecordingAdversary>(*adversary, trace);
      driver = recorder.get();
    }

    const Time progress_every = primary ? cli.get_int("progress") : 0;
    auto last_beat = std::chrono::steady_clock::now();
    Time last_beat_step = 0;

    if (events) events->milestone(eng.now(), "run-begin");
    const Time cap = cli.get_int("steps");
    for (Time i = 0; i < cap; ++i) {
      if (driver->finished(eng.now() + 1)) break;
      eng.step(driver);
      if (progress_every > 0 && eng.now() % progress_every == 0) {
        const auto now_tp = std::chrono::steady_clock::now();
        const double secs =
            std::chrono::duration<double>(now_tp - last_beat).count();
        const double sps =
            secs > 0.0
                ? static_cast<double>(eng.now() - last_beat_step) / secs
                : 0.0;
        std::fprintf(stderr,
                     "progress: step %lld  in-flight %llu  max-queue %llu  "
                     "%.0f steps/sec\n",
                     static_cast<long long>(eng.now()),
                     static_cast<unsigned long long>(eng.packets_in_flight()),
                     static_cast<unsigned long long>(
                         eng.metrics().max_queue_global()),
                     sps);
        last_beat = now_tp;
        last_beat_step = eng.now();
      }
    }
    // Scenario scripts are finite: let the network empty so the recorded
    // evidence covers every packet's full journey.
    if (srun) {
      if (events) events->milestone(eng.now(), "drain-begin");
      eng.drain(cap);
    }
    if (events) events->milestone(eng.now(), "run-end");

    if (writer) writer->finish(eng.total_injected(), eng.total_absorbed());
    const std::uint64_t hash = writer ? writer->content_hash() : 0;
    if (!primary) return hash;

    Table t({"metric", "value"});
    t.rowv("topology", srun ? srun->scenario.topology : cli.get("topology"));
    t.rowv("protocol", protocol_name);
    t.rowv("adversary", kind);
    t.rowv("steps", static_cast<long long>(eng.now()));
    t.rowv("injected", static_cast<long long>(eng.total_injected()));
    t.rowv("absorbed", static_cast<long long>(eng.total_absorbed()));
    t.rowv("in flight", static_cast<long long>(eng.packets_in_flight()));
    t.rowv("max queue",
           static_cast<long long>(eng.metrics().max_queue_global()));
    t.rowv("max residence",
           static_cast<long long>(eng.metrics().max_residence_global()));
    t.rowv("max latency",
           static_cast<long long>(eng.metrics().max_latency()));
    t.rowv("mean latency", eng.metrics().mean_latency());
    std::cout << "\n" << t;

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

    if (!cli.get("metrics-out").empty() || !cli.get("metrics-prom").empty() ||
        !cli.get("metrics-csv").empty()) {
      obs::MetricRegistry registry;
      obs::collect_engine_metrics(eng, registry);
      if (profiler) obs::collect_profile_metrics(*profiler, registry);
      if (watchdog) watchdog->collect_metrics(registry);
      obs::export_cli_metrics(cli, registry, "aqt-sim");
    }

    if (ec.series_stride > 0) {
      const auto verdict = classify_growth(eng.metrics().series());
      std::cout << "\ngrowth verdict: " << to_string(verdict.verdict)
                << " (late/early occupancy ratio " << verdict.ratio << ")\n";
      CsvWriter csv(cli.get("series"), {"t", "in_flight", "max_queue"});
      for (const auto& p : eng.metrics().series())
        csv.rowv(static_cast<long long>(p.t),
                 static_cast<long long>(p.in_flight),
                 static_cast<long long>(p.max_queue));
      std::cout << "series written to " << cli.get("series") << "\n";
    }

    if (audit) {
      eng.finalize_audit();
      RateCheckResult res;
      if (srun) {
        AQT_REQUIRE(srun->scenario.window_w.has_value() ||
                        srun->scenario.rate_r.has_value(),
                    "--audit with --scenario needs a declared window/rate "
                    "in the scenario file");
        if (srun->scenario.window_w.has_value())
          res = check_window(eng.audit(), *srun->scenario.window_w,
                             *srun->scenario.window_r);
        else
          res = check_rate_r(eng.audit(), *srun->scenario.rate_r);
      } else if (kind == "lps") {
        res = check_rate_r(eng.audit(), r);
      } else if (kind == "bucket") {
        res = check_bucket(eng.audit(), cli.get_int("burst"), r);
      } else {
        res = check_window(eng.audit(), cli.get_int("w"), r);
      }
      std::cout << "\nrate feasibility: " << res.describe(topo.graph)
                << "\n";
      audit_ok = res.ok;
    }
    if (!cli.get("record").empty()) {
      trace.save_file(cli.get("record"), topo.graph);
      std::cout << "trace (" << trace.size() << " events) written to "
                << cli.get("record") << "\n";
    }
    if (!cli.get("checkpoint").empty()) {
      AQT_REQUIRE(!audit, "checkpointing requires --audit false");
      save_checkpoint_file(eng, cli.get("checkpoint"));
      std::cout << "checkpoint written to " << cli.get("checkpoint") << "\n";
    }
    return hash;
  };

  // Primary run: to the requested file, or (when only the determinism
  // check wants a trace) hash-only.
  std::uint64_t first_hash = 0;
  if (!record_run.empty()) {
    std::ofstream out(record_run);
    AQT_REQUIRE(static_cast<bool>(out), "cannot open " << record_run);
    first_hash = run_once(/*traced=*/true, &out, /*primary=*/true);
    std::cout << "run trace written to " << record_run << "\n";
  } else {
    first_hash = run_once(replay_twice, nullptr, /*primary=*/true);
  }

  if (replay_twice) {
    const std::uint64_t second_hash =
        run_once(/*traced=*/true, nullptr, /*primary=*/false);
    if (first_hash != second_hash) {
      std::fprintf(stderr,
                   "DETERMINISM FAILURE: replay from seed %llu diverged "
                   "(trace hash %s vs %s)\n",
                   static_cast<unsigned long long>(seed),
                   hash_hex(first_hash).c_str(),
                   hash_hex(second_hash).c_str());
      return 1;
    }
    std::printf("determinism: replay matched (trace hash %s)\n",
                hash_hex(first_hash).c_str());
  }
  return audit_ok ? 0 : 1;
}

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const PreconditionError& e) {
    std::fprintf(stderr, "aqt-sim: %s\n", e.what());
    return 2;
  }
}
