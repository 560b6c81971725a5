// E12 -- simulator throughput (google-benchmark).
//
// Not a paper experiment: characterizes the engine itself so that the
// scale of the instability runs (millions of steps, hundreds of thousands
// of live packets) is known to be in budget.
//
// Besides the google-benchmark microbenchmarks, `--perf-json=PATH` (our
// flag, stripped before google-benchmark sees argv) runs the profiled
// reference workload — grid 8x8, stochastic (w=12, r=1/4, d=4), 20000
// steps; one warm-up run, then fastest-of-three repetitions — and writes
// an aqt-metrics/1 snapshot (steps/sec, per-phase breakdown, engine
// counters) to PATH: the BENCH_engine_perf.json artifact CI tracks across
// commits.  `--perf-jobs=N` (also stripped) pins the worker count of the
// parallel-speedup leg; CI passes its core count so
// aqt_runner_parallel_speedup is measured on a real multi-core pool.
// `--perf-trajectory=PATH` (also stripped) appends one JSONL datapoint
// (timestamp, commit, steps/sec, speedup, selfhost seconds) to PATH — the
// BENCH_trajectory.jsonl history CI's perf-smoke step grows; the commit id
// resolves `--commit=SHA`, then $AQT_GIT_COMMIT, then $GITHUB_SHA, falling
// back to "unknown".  `--trace-out=PATH` (also stripped) writes a
// Perfetto-loadable trace_event JSON of the perf session: engine
// step-phase spans plus one span per parallel-leg pool cell on each
// worker's thread track.  The parallel leg also records per-worker
// telemetry (aqt_pool_worker_* families) into the snapshot.  The
// snapshot also carries aqt_audit_selfhost_seconds — the wall-clock of a
// full repo self-audit on 4 workers, gated below 10 s in CI so the
// analyzer's own cost stays bounded as rules accrete.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "aqt/adversaries/lps.hpp"
#include "aqt/adversaries/stochastic.hpp"
#include "aqt/audit/auditor.hpp"
#include "aqt/core/checkpoint.hpp"
#include "aqt/core/rate_check.hpp"
#include "aqt/core/engine.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/experiments/sweep.hpp"
#include "aqt/runner/pool.hpp"
#include "aqt/obs/export.hpp"
#include "aqt/obs/profiler.hpp"
#include "aqt/obs/registry.hpp"
#include "aqt/obs/snapshot.hpp"
#include "aqt/obs/tracing.hpp"
#include "aqt/topology/gadget.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/util/check.hpp"

namespace {

using namespace aqt;

void BM_GridStochasticSteps(benchmark::State& state) {
  const auto side = state.range(0);
  const Graph g = make_grid(side, side);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  StochasticConfig cfg;
  cfg.w = 12;
  cfg.r = Rat(1, 4);
  cfg.max_route_len = 4;
  cfg.seed = 1;
  StochasticAdversary adv(g, cfg);
  for (auto _ : state) {
    eng.step(&adv);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["edges"] = static_cast<double>(g.edge_count());
}
BENCHMARK(BM_GridStochasticSteps)->Arg(4)->Arg(8)->Arg(16);

void BM_GridStochasticStepsAudited(benchmark::State& state) {
  // Same workload with EngineConfig::audit_invariants on: the ratio to
  // BM_GridStochasticSteps is the full cost of re-checking every model
  // invariant each step (budgeted at < 2x).
  const auto side = state.range(0);
  const Graph g = make_grid(side, side);
  FifoProtocol fifo;
  EngineConfig eng_cfg;
  eng_cfg.audit_invariants = true;
  Engine eng(g, fifo, eng_cfg);
  StochasticConfig cfg;
  cfg.w = 12;
  cfg.r = Rat(1, 4);
  cfg.max_route_len = 4;
  cfg.seed = 1;
  StochasticAdversary adv(g, cfg);
  for (auto _ : state) {
    eng.step(&adv);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["edges"] = static_cast<double>(g.edge_count());
}
BENCHMARK(BM_GridStochasticStepsAudited)->Arg(4)->Arg(8)->Arg(16);

void BM_ProtocolStep(benchmark::State& state,
                     const std::string& protocol_name) {
  const Graph g = make_grid(6, 6);
  auto protocol = make_protocol(protocol_name, 1);
  Engine eng(g, *protocol);
  StochasticConfig cfg;
  cfg.w = 12;
  cfg.r = Rat(1, 3);
  cfg.max_route_len = 5;
  cfg.seed = 2;
  StochasticAdversary adv(g, cfg);
  for (auto _ : state) eng.step(&adv);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ProtocolStep, fifo, std::string("FIFO"));
BENCHMARK_CAPTURE(BM_ProtocolStep, lis, std::string("LIS"));
BENCHMARK_CAPTURE(BM_ProtocolStep, ntg, std::string("NTG"));

void BM_DeepQueueStep(benchmark::State& state) {
  // One very deep buffer: stresses the ordered-set buffer implementation.
  const auto depth = state.range(0);
  const Graph g = make_line(2);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  for (std::int64_t i = 0; i < depth; ++i)
    eng.add_initial_packet({0, 1});
  // One injection per step balances the one departure per step, keeping
  // the buffer at its initial depth for the whole measurement.
  struct Refill final : Adversary {
    void step(Time, const Engine&, AdversaryStep& out) override {
      out.injections.push_back(Injection{{0, 1}, 0});
    }
  } refill;
  for (auto _ : state) eng.step(&refill);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeepQueueStep)->Arg(10000)->Arg(100000);

void BM_LpsHandoffWholePhase(benchmark::State& state) {
  const Rat r(7, 10);
  LpsConfig cfg = make_lps_config(r);
  cfg.enforce_s0 = false;
  const std::int64_t S = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    const ChainedGadgets net = build_chain(cfg.n, 2);
    FifoProtocol fifo;
    Engine eng(net.graph, fifo);
    setup_gadget_invariant(eng, net, 0, S);
    LpsHandoff phase(net, cfg, 0);
    state.ResumeTiming();
    while (!phase.finished(eng.now() + 1)) eng.step(&phase);
    benchmark::DoNotOptimize(eng.packets_in_flight());
  }
  state.SetItemsProcessed(state.iterations() * 2 * S);
}
BENCHMARK(BM_LpsHandoffWholePhase)->Arg(500)->Arg(2000)->Unit(
    benchmark::kMillisecond);

void BM_RateCheckExact(benchmark::State& state) {
  // The exact post-hoc rate-r checker on a large single-edge audit.
  const auto entries = state.range(0);
  const Rat r(7, 10);
  RateAudit audit(1);
  std::int64_t emitted = 0;
  for (Time t = 1; emitted < entries; ++t) {
    const std::int64_t quota = r.floor_mul(t);
    for (; emitted < quota && emitted < entries; ++emitted)
      audit.add_edge(0, t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_rate_r(audit, r).ok);
  }
  state.SetItemsProcessed(state.iterations() * entries);
}
BENCHMARK(BM_RateCheckExact)->Arg(10000)->Arg(100000);

void BM_CheckpointRoundtrip(benchmark::State& state) {
  const Graph g = make_grid(6, 6);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  StochasticConfig cfg;
  cfg.w = 12;
  cfg.r = Rat(1, 3);
  cfg.max_route_len = 5;
  cfg.seed = 4;
  StochasticAdversary adv(g, cfg);
  eng.run(&adv, 2000);
  for (auto _ : state) {
    std::stringstream buf;
    save_checkpoint(eng, buf);
    Engine restored(g, fifo);
    load_checkpoint(restored, buf);
    benchmark::DoNotOptimize(restored.packets_in_flight());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckpointRoundtrip)->Unit(benchmark::kMicrosecond);

/// The profiled reference workload behind --perf-json: a medium grid under
/// the standard stochastic (w, r) adversary, long enough for steady-state
/// throughput, with the step-phase profiler attached.  One unprofiled
/// warm-up run primes caches and branch predictors, then the snapshot
/// keeps the fastest of three identical profiled repetitions — the work is
/// deterministic, so the minimum is the least-noise estimate of real
/// throughput (the reasoning behind --benchmark_repetitions' min).
void write_perf_json(const std::string& path, unsigned perf_jobs,
                     const std::string& trajectory_path,
                     const std::string& commit_flag,
                     const std::string& trace_path) {
  const Graph g = make_grid(8, 8);
  FifoProtocol fifo;
  StochasticConfig cfg;
  cfg.w = 12;
  cfg.r = Rat(1, 4);
  cfg.max_route_len = 4;
  cfg.seed = 1;
  // --trace-out: one Perfetto-loadable log for the whole perf session —
  // engine step-phase spans from the warm-up run (tid 0) plus one span per
  // pool cell from the parallel leg (tid = worker id + 1).
  std::unique_ptr<obs::TraceEventLog> trace_log;
  if (!trace_path.empty()) {
    trace_log = std::make_unique<obs::TraceEventLog>();
    trace_log->name_thread(0, "engine");
  }
  {
    EngineConfig warm_cfg;
    std::unique_ptr<obs::PhaseTraceRecorder> phase_trace;
    if (trace_log != nullptr) {
      phase_trace = std::make_unique<obs::PhaseTraceRecorder>(*trace_log);
      warm_cfg.sinks.profile = phase_trace.get();
    }
    Engine warm(g, fifo, warm_cfg);
    StochasticAdversary adv(g, cfg);
    warm.run(&adv, 20000);
  }
  std::unique_ptr<Engine> eng;
  std::unique_ptr<obs::StepProfiler> profiler;
  for (int rep = 0; rep < 3; ++rep) {
    auto prof = std::make_unique<obs::StepProfiler>();
    EngineConfig eng_cfg;
    eng_cfg.sinks.profile = prof.get();
    auto e = std::make_unique<Engine>(g, fifo, eng_cfg);
    StochasticAdversary adv(g, cfg);
    e->run(&adv, 20000);
    // Every repetition runs the identical deterministic schedule, so the
    // engine metrics agree bit-for-bit; only the profiler timings differ.
    if (!profiler || prof->report().steps_per_second() >
                         profiler->report().steps_per_second()) {
      profiler = std::move(prof);
      eng = std::move(e);
    }
  }

  obs::MetricRegistry registry;
  obs::collect_engine_metrics(*eng, registry);
  obs::collect_profile_metrics(*profiler, registry);

  // Carried into the optional trajectory datapoint below.
  double speedup_out = 1.0;
  unsigned jobs_out = 0;
  double selfhost_out = 0.0;

  // Parallel-speedup datapoint: the same miniature E5-style sweep (rings
  // under the standard (w, r) stochastic adversary) timed serially and on
  // the full run-pool.  On a single hardware thread the ratio is ~1; CI
  // runners with >= 4 cores should see a clear multiple.
  {
    SweepConfig sweep;
    sweep.protocols = {"FIFO", "NTG"};
    for (const std::int64_t n : {8, 12, 16})
      sweep.topologies.push_back(
          {"ring:" + std::to_string(n),
           [n] { return make_ring(n); }});
    sweep.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    sweep.steps = 4000;
    sweep.traffic.w = 12;
    sweep.traffic.r = Rat(1, 4);
    sweep.traffic.max_route_len = 4;
    sweep.audit = false;
    const std::vector<RunSpec> specs = sweep_specs(sweep);
    // --perf-jobs pins the parallel leg's worker count (CI passes the
    // runner's core count so the recorded datapoint is a real multi-core
    // measurement); 0 falls back to the detected hardware concurrency.
    const unsigned hw = perf_jobs == 0 ? resolve_jobs(0) : perf_jobs;
    // The parallel leg keeps its per-worker telemetry: when a speedup
    // datapoint looks flat, the aqt_pool_worker_* breakdown (cells per
    // worker, busy vs idle, chunk latency) says whether the pool starved,
    // imbalanced, or serialized.
    PoolTelemetry parallel_telemetry;
    const auto timed = [&](unsigned jobs, bool keep_telemetry) {
      PoolOptions options;
      if (keep_telemetry && trace_log != nullptr)
        options.trace = trace_log.get();
      const auto begin = std::chrono::steady_clock::now();
      const RunPoolReport pool_report = run_pool(specs, jobs, options);
      const auto end = std::chrono::steady_clock::now();
      for (const RunResult& r : pool_report.results)
        if (!r.ok())
          std::fprintf(stderr, "speedup sweep cell %s failed: %s\n",
                       r.name.c_str(), r.error.c_str());
      if (keep_telemetry) parallel_telemetry = pool_report.telemetry;
      return std::chrono::duration<double>(end - begin).count();
    };
    const double serial_secs = timed(1, false);
    const double parallel_secs = timed(hw, true);
    const double speedup =
        parallel_secs > 0.0 ? serial_secs / parallel_secs : 1.0;
    registry
        .gauge("aqt_runner_parallel_speedup",
               "Serial / parallel wall-clock ratio of the reference sweep "
               "on the run-pool")
        .set(speedup);
    registry
        .gauge("aqt_runner_parallel_jobs",
               "Worker threads used for the parallel leg")
        .set(static_cast<double>(hw));
    collect_pool_worker_metrics(parallel_telemetry, registry);
    std::printf("run-pool speedup: %.2fx on %u worker(s) "
                "(%.3fs serial, %.3fs parallel, %zu cells)\n",
                speedup, hw, serial_secs, parallel_secs, specs.size());
    for (std::size_t w = 0; w < parallel_telemetry.workers.size(); ++w) {
      const PoolWorkerStats& s = parallel_telemetry.workers[w];
      std::printf("  worker %zu: %llu cell(s) in %llu chunk(s), "
                  "busy %.3fs idle %.3fs\n",
                  w, static_cast<unsigned long long>(s.cells),
                  static_cast<unsigned long long>(s.steals),
                  static_cast<double>(s.busy_nanos) * 1e-9,
                  static_cast<double>(s.idle_nanos) * 1e-9);
    }
    speedup_out = speedup;
    jobs_out = hw;
  }

  // aqt-audit selfhost datapoint: wall-clock of the full repo self-audit
  // (the same per-file audit on the run-pool that the CI audit-selfhost
  // step runs), pinned to 4 workers so the number is comparable across
  // runners.  CI gates this below 10 seconds.
  {
    const std::string root(AQT_SOURCE_DIR);
    const std::vector<std::string> files = audit::collect_audit_files(
        {root + "/src", root + "/tools", root + "/tests"});
    const auto begin = std::chrono::steady_clock::now();
    std::vector<audit::AuditReport> reports(files.size());
    const std::vector<std::string> errors =
        parallel_for_each(files.size(), 4, [&](std::size_t i) {
          reports[i] = audit::audit_file(files[i]);
        });
    for (const std::string& err : errors) AQT_REQUIRE(err.empty(), "" << err);
    const auto end = std::chrono::steady_clock::now();
    const double selfhost_secs =
        std::chrono::duration<double>(end - begin).count();
    std::size_t findings = 0;
    for (const audit::AuditReport& r : reports) findings += r.findings.size();
    registry
        .gauge("aqt_audit_selfhost_seconds",
               "Wall-clock of the full repo self-audit (per-file audit "
               "on 4 workers)")
        .set(selfhost_secs);
    registry
        .gauge("aqt_audit_selfhost_files",
               "Sources covered by the selfhost audit datapoint")
        .set(static_cast<double>(files.size()));
    std::printf("audit selfhost: %zu files, %zu finding(s), %.3fs on 4 "
                "workers\n",
                files.size(), findings, selfhost_secs);
    selfhost_out = selfhost_secs;
  }

  obs::write_file(path, obs::to_json(registry, "bench_e12_engine_perf"));
  std::printf("perf snapshot (%.0f steps/sec) written to %s\n",
              profiler->report().steps_per_second(), path.c_str());

  if (trace_log != nullptr) {
    trace_log->write(trace_path, "bench_e12_engine_perf");
    std::printf("perfetto trace (%zu events) written to %s\n",
                trace_log->size(), trace_path.c_str());
  }

  // --perf-trajectory: append one compact JSONL datapoint per snapshot so
  // the repo accumulates a throughput history across commits (CI's
  // perf-smoke step appends to BENCH_trajectory.jsonl).  The commit id
  // resolves --commit, then AQT_GIT_COMMIT, then CI's GITHUB_SHA, and is
  // never left empty — a blank id makes the history row unattributable.
  if (!trajectory_path.empty()) {
    std::FILE* f = std::fopen(trajectory_path.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot append trajectory to %s\n",
                   trajectory_path.c_str());
      return;
    }
    std::string commit = commit_flag;
    for (const char* var : {"AQT_GIT_COMMIT", "GITHUB_SHA"}) {
      if (!commit.empty()) break;
      // aqt-audit: allow(AUD001) -- trajectory metadata: commit id only
      const char* value = std::getenv(var);
      if (value != nullptr && *value != '\0') commit = value;
    }
    if (commit.empty()) commit = "unknown";
    const obs::StepProfiler::Report rep = profiler->report();
    std::fprintf(
        f,
        "{\"ts\":%lld,\"commit\":\"%s\",\"steps_per_second\":%.0f,"
        "\"parallel_speedup\":%.3f,\"parallel_jobs\":%u,"
        "\"selfhost_seconds\":%.3f}\n",
        // aqt-audit: allow(AUD001) -- datapoint timestamp, not sim state
        static_cast<long long>(std::time(nullptr)), commit.c_str(),
        rep.steps_per_second(), speedup_out, jobs_out, selfhost_out);
    std::fclose(f);
    std::printf("trajectory datapoint appended to %s\n",
                trajectory_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our --perf-json/--perf-jobs/--perf-trajectory/--commit/
  // --trace-out flags before google-benchmark parses argv (it rejects
  // flags it does not know).
  std::string perf_json;
  std::string perf_trajectory;
  std::string commit;
  std::string trace_out;
  unsigned perf_jobs = 0;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--perf-json=", 12) == 0)
      perf_json = argv[i] + 12;
    else if (std::strncmp(argv[i], "--perf-jobs=", 12) == 0)
      perf_jobs = static_cast<unsigned>(std::strtoul(argv[i] + 12, nullptr, 10));
    else if (std::strncmp(argv[i], "--perf-trajectory=", 18) == 0)
      perf_trajectory = argv[i] + 18;
    else if (std::strncmp(argv[i], "--commit=", 9) == 0)
      commit = argv[i] + 9;
    else if (std::strncmp(argv[i], "--trace-out=", 12) == 0)
      trace_out = argv[i] + 12;
    else
      argv[kept++] = argv[i];
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!perf_json.empty())
    write_perf_json(perf_json, perf_jobs, perf_trajectory, commit, trace_out);
  return 0;
}
