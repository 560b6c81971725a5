#include "aqt/runner/pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>
#include <thread>

#include "aqt/obs/profiler.hpp"
#include "aqt/obs/tracing.hpp"
#include "aqt/util/check.hpp"

namespace aqt {
namespace {

/// Chunk size for the shared-index queue: large enough that workers do not
/// contend on the atomic for tiny cells, small enough that a slow cell at
/// the end cannot leave workers idle behind a big chunk.
std::size_t chunk_size(std::size_t count, unsigned workers) {
  const std::size_t target = count / (static_cast<std::size_t>(workers) * 8);
  return std::clamp<std::size_t>(target, 1, 32);
}

}  // namespace

unsigned resolve_jobs(unsigned jobs) {
  if (jobs != 0) return jobs;
  return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<std::string> parallel_for_each(
    std::size_t count, unsigned jobs,
    const std::function<void(std::size_t)>& body) {
  AQT_REQUIRE(body != nullptr, "parallel_for_each needs a body");
  std::vector<std::string> errors(count);
  const auto guarded = [&](std::size_t i) {
    try {
      body(i);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    } catch (...) {
      errors[i] = "unknown exception";
    }
  };

  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      resolve_jobs(jobs), std::max<std::size_t>(count, 1)));
  if (workers <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) guarded(i);
    return errors;
  }

  // Chunked work stealing over a shared atomic index: each worker grabs
  // the next chunk of indices; items are fully independent, so no further
  // synchronization is needed — each index is processed exactly once and
  // every output slot is written by exactly one worker.
  const std::size_t chunk = chunk_size(count, workers);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t begin =
            next.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= count) return;
        const std::size_t end = std::min(count, begin + chunk);
        for (std::size_t i = begin; i < end; ++i) guarded(i);
      }
    });
  }
  for (auto& t : pool) t.join();
  return errors;
}

void collect_pool_worker_metrics(const PoolTelemetry& telemetry,
                                 obs::MetricRegistry& registry) {
  registry
      .gauge("aqt_pool_workers", "Worker threads the batch dispatched on")
      .set(static_cast<double>(telemetry.workers.size()));
  registry
      .gauge("aqt_pool_wall_seconds", "Batch dispatch wall time")
      .set(static_cast<double>(telemetry.wall_nanos) * 1e-9);
  for (std::size_t w = 0; w < telemetry.workers.size(); ++w) {
    const PoolWorkerStats& s = telemetry.workers[w];
    const std::string id = std::to_string(w);
    registry
        .counter("aqt_pool_worker_cells_total",
                 "Cells executed, per pool worker", "worker", id)
        .set(s.cells);
    registry
        .counter("aqt_pool_worker_steals_total",
                 "Chunks grabbed from the shared queue, per pool worker",
                 "worker", id)
        .set(s.steals);
    registry
        .counter("aqt_pool_worker_steal_failures_total",
                 "Empty chunk grabs (queue exhausted), per pool worker",
                 "worker", id)
        .set(s.steal_failures);
    registry
        .gauge("aqt_pool_worker_busy_seconds",
               "Wall time inside cell bodies, per pool worker", "worker",
               id)
        .set(static_cast<double>(s.busy_nanos) * 1e-9);
    registry
        .gauge("aqt_pool_worker_idle_seconds",
               "Worker wall time minus busy time, per pool worker",
               "worker", id)
        .set(static_cast<double>(s.idle_nanos) * 1e-9);
    registry
        .histogram("aqt_pool_worker_chunk_nanos",
                   "Per-chunk wall-time distribution, per pool worker",
                   "worker", id)
        .merge(s.chunk_nanos);
  }
}

RunPoolReport run_pool(const std::vector<RunSpec>& specs, unsigned jobs) {
  return run_pool(specs, jobs, PoolOptions{});
}

RunPoolReport run_pool(const std::vector<RunSpec>& specs, unsigned jobs,
                       const PoolOptions& options) {
  RunPoolReport report;
  report.results.resize(specs.size());

  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      resolve_jobs(jobs), std::max<std::size_t>(specs.size(), 1)));

  // One registry per worker, indexed by worker id; cells update only their
  // worker's instance, so no locking, and the post-barrier merge is
  // commutative (counters add, gauges max) — the merged snapshot is
  // byte-identical no matter which worker ran which cell.  The telemetry
  // slots follow the same single-writer discipline but are merged by
  // worker id, never summed across workers.
  std::vector<obs::MetricRegistry> worker_metrics(workers);
  report.telemetry.workers.resize(workers);
  std::vector<obs::TraceEventLog> worker_traces(
      options.trace != nullptr ? workers : 0);
  const obs::TickClock clock;
  const auto count_cell = [](obs::MetricRegistry& reg, const RunResult& r) {
    reg.counter("aqt_runner_cells_total", "Cells executed by the pool").inc();
    reg.counter("aqt_runner_cell_errors_total",
                "Cells that ended in an error RunResult")
        .inc(r.ok() ? 0 : 1);
    reg.counter("aqt_runner_steps_total", "Engine steps across all cells")
        .inc(static_cast<std::uint64_t>(r.steps_run));
    reg.counter("aqt_runner_injected_total",
                "Packets injected across all cells")
        .inc(r.injected);
    reg.counter("aqt_runner_absorbed_total",
                "Packets absorbed across all cells")
        .inc(r.absorbed);
    obs::Gauge& peak = reg.gauge("aqt_runner_max_queue_packets",
                                 "Largest queue observed by any cell");
    peak.set(std::max(peak.value(), static_cast<double>(r.max_queue)));
    reg.histogram("aqt_runner_cell_residence_steps",
                  "Per-cell max residence distribution")
        .add(static_cast<std::int64_t>(r.max_residence));
  };

  // The per-worker body for one claimed chunk [begin, end): executes the
  // cells, accounts busy time, and (optionally) logs one span per cell.
  const auto run_chunk = [&](unsigned w, std::size_t begin,
                             std::size_t end) {
    PoolWorkerStats& stats = report.telemetry.workers[w];
    obs::TraceEventLog* const tlog =
        options.trace != nullptr ? &worker_traces[w] : nullptr;
    const std::uint64_t chunk_start = clock.ticks();
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint64_t cell_span_start =
          tlog != nullptr ? tlog->now_nanos() : 0;
      report.results[i] = execute_run(specs[i]);
      report.results[i].index = i;
      count_cell(worker_metrics[w], report.results[i]);
      ++stats.cells;
      if (tlog != nullptr) {
        const std::uint64_t now = tlog->now_nanos();
        tlog->complete("cell " + report.results[i].name, "aqt.cell",
                       cell_span_start,
                       now > cell_span_start ? now - cell_span_start : 0,
                       w + 1);
      }
    }
    const std::uint64_t chunk_nanos =
        clock.to_nanos(clock.ticks() - chunk_start);
    ++stats.steals;
    stats.busy_nanos += chunk_nanos;
    stats.chunk_nanos.add(static_cast<std::int64_t>(chunk_nanos));
  };

  const std::uint64_t pool_start = clock.ticks();
  if (workers <= 1 || specs.size() <= 1) {
    if (!specs.empty()) run_chunk(0, 0, specs.size());
    report.telemetry.workers[0].steal_failures = 1;
  } else {
    const std::size_t chunk = chunk_size(specs.size(), workers);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        const std::uint64_t worker_start = clock.ticks();
        for (;;) {
          const std::size_t begin =
              next.fetch_add(chunk, std::memory_order_relaxed);
          if (begin >= specs.size()) break;
          run_chunk(w, begin, std::min(specs.size(), begin + chunk));
        }
        PoolWorkerStats& stats = report.telemetry.workers[w];
        ++stats.steal_failures;
        const std::uint64_t wall =
            clock.to_nanos(clock.ticks() - worker_start);
        stats.idle_nanos = wall > stats.busy_nanos
                               ? wall - stats.busy_nanos
                               : 0;
      });
    }
    for (auto& t : pool) t.join();
  }
  report.telemetry.wall_nanos = clock.to_nanos(clock.ticks() - pool_start);

  report.jobs_used = workers;
  for (const obs::MetricRegistry& reg : worker_metrics)
    report.metrics.merge_from(reg);
  if (options.trace != nullptr) {
    for (unsigned w = 0; w < workers; ++w) {
      options.trace->name_thread(w + 1, "pool worker " + std::to_string(w));
      options.trace->merge_from(worker_traces[w]);
    }
  }
  return report;
}

std::vector<RunResult> run_all(const std::vector<RunSpec>& specs,
                               unsigned jobs) {
  return run_pool(specs, jobs).results;
}

}  // namespace aqt
