// The two offline workloads: one job, repeated for the measuring window,
// each time from RunRequest text to canonical result bytes.
//
//   grid_stochastic   grid:8x8, FIFO, stochastic w=12 r=1/4 d=4, 100k steps.
//                     Oblivious adversary: Engine::run's compiled-schedule
//                     path; queues stay <= ceil(w*r) = 3.
//   lps_construction  The Theorem 3.17 construction: lps:9x8, FIFO, lps
//                     r=7/10, s_star 800, 2 iterations.  Adaptive
//                     adversary: polled path, Lemma 3.3 reroutes, queues of
//                     more than 12k packets.
//
// Jobs are sized so a run holds a few dozen of them: on a shared host the
// run's fastest decile is steady where a handful of long jobs is not.
#include <cmath>
#include <sstream>

#include "aqt/serve/request.hpp"
#include "harness.hpp"

namespace aqtb {
namespace {

/// Simulated statistics pinned for the default seed.  Trace hashes are
/// deliberately not pinned, so the hash may be re-versioned.
struct Pinned {
  std::int64_t steps_run, injected, absorbed, max_queue, max_residence,
      max_latency;
};

struct OfflineWorkload {
  std::string request;  ///< The measured job.
  Pinned pinned;
  bool lps = false;
  /// Untraced runs repeat the job at least this often, and job_wall_s
  /// filters exactly this many repetitions (about 20 s of jobs).
  std::size_t filter_jobs = 1;
};

/// Set-ups per setup_s sample: about 15-30 ms of them.
inline constexpr int kSetupBatch = 200;

std::string grid_request(std::uint64_t seed, std::int64_t steps) {
  std::ostringstream os;
  os << R"({"aqt_run_request":1,"topology":"grid:8x8","protocol":"FIFO",)"
     << R"("adversary":{"kind":"stochastic","w":12,"r":"1/4","d":4},)"
     << R"("seed":)" << seed << R"(,"steps":)" << steps
     << R"(,"artifacts":["trace_hash"]})";
  return os.str();
}

std::string lps_request(std::uint64_t seed, std::int64_t iterations,
                        std::int64_t s_star) {
  std::ostringstream os;
  os << R"({"aqt_run_request":1,"topology":"lps:9x8","protocol":"FIFO",)"
     << R"("adversary":{"kind":"lps","r":"7/10","iterations":)" << iterations
     << R"(,"s_star":)" << s_star << R"(},"seed":)" << seed
     << R"(,"steps":5000000,"artifacts":["trace_hash"]})";
  return os.str();
}

OfflineWorkload make_workload(const Options& opt) {
  OfflineWorkload w;
  if (opt.workload == "grid_stochastic") {
    w.request = grid_request(opt.seed, opt.short_mode ? 50000 : 100000);
    w.pinned = opt.short_mode ? Pinned{50000, 173119, 173112, 3, 3, 7}
                              : Pinned{100000, 345718, 345708, 3, 3, 7};
    w.filter_jobs = 40;
  } else {
    w.request = opt.short_mode ? lps_request(opt.seed, 1, 1600)
                               : lps_request(opt.seed, 2, 800);
    w.pinned = opt.short_mode
                   ? Pinned{84396, 337817, 334239, 11328, 11328, 71958}
                   : Pinned{137630, 548870, 544838, 12768, 12768, 81189};
    w.lps = true;
    w.filter_jobs = 20;
  }
  if (opt.short_mode) w.filter_jobs = 1;
  return w;
}

void check_job(const OfflineWorkload& w, const Options& opt,
               const aqt::RunResult& r, const std::string& who,
               Report& report) {
  check_conservation(r, who, report);
  if (!r.ok()) return;
  // ceil(w * r) = ceil(12 / 4): the FIFO residence bound of Theorem 4.3.
  if (!w.lps && r.max_residence > 3)
    report.fail(who + ": max_residence " + std::to_string(r.max_residence) +
                " > ceil(w*r) = 3");
  if (opt.seed != kDefaultSeed) return;
  Pinned want = w.pinned;
  if (opt.corrupt_check) want.steps_run += 1;
  const Pinned got{r.steps_run,
                   static_cast<std::int64_t>(r.injected),
                   static_cast<std::int64_t>(r.absorbed),
                   static_cast<std::int64_t>(r.max_queue),
                   r.max_residence,
                   r.max_latency};
  const auto pin = [&](const char* field, std::int64_t g, std::int64_t e) {
    if (g != e)
      report.fail(who + ": " + field + " = " + std::to_string(g) +
                  ", pinned " + std::to_string(e));
  };
  pin("steps_run", got.steps_run, want.steps_run);
  pin("injected", got.injected, want.injected);
  pin("absorbed", got.absorbed, want.absorbed);
  pin("max_queue", got.max_queue, want.max_queue);
  pin("max_residence", got.max_residence, want.max_residence);
  pin("max_latency", got.max_latency, want.max_latency);
}

/// The construction must amplify: every outer iteration ends with more
/// flat packets at the ingress than it started with.
void check_amplification(const PlainJob& job, const std::string& who,
                         Report& report) {
  if (job.lps_growth.empty()) {
    report.fail(who + ": the LPS adversary completed no iteration");
    return;
  }
  for (std::size_t i = 0; i < job.lps_growth.size(); ++i) {
    const auto [s_start, s_end] = job.lps_growth[i];
    if (s_end <= s_start)
      report.fail(who + ": iteration " + std::to_string(i + 1) +
                  " did not amplify (S " + std::to_string(s_start) + " -> " +
                  std::to_string(s_end) + ")");
  }
}

}  // namespace

Report run_offline(const Options& opt) {
  Report report;
  const OfflineWorkload w = make_workload(opt);

  // Set-up: the registry, and the request parsed and compiled once
  // (topology grammar included).  Sampled kSetupSamples times before the
  // window and again after it, so setup_s samples the whole run.
  std::unique_ptr<aqt::serve::Registry> registry;
  std::vector<double> setups;
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    registry = std::make_unique<aqt::serve::Registry>();
    (void)registry->compile(aqt::serve::parse_run_request(w.request, "bench"));
    return seconds_between(t0, Clock::now());
  };
  for (int i = 0; i < kSetupSamples; ++i)
    setups.push_back(setup_sample(kSetupBatch, set_up));

  const std::string bare_request = without_trace_hash(w.request);
  std::vector<PlainJob> jobs;
  std::vector<PlainJob> bare_jobs;  // Traced runs: the trace.hash_s A/B.
  std::vector<WeightedLayers> traced;
  std::string first_bytes;
  std::uint64_t steps = 0;
  std::uint64_t sends = 0;
  const Clock::time_point begin = Clock::now();
  do {
    const std::string who = "job " + std::to_string(jobs.size() + 1);
    ++report.attempted;
    PlainJob job = run_plain(*registry, w.request);
    const std::size_t failures = report.failures.size();
    check_job(w, opt, job.result, who, report);
    if (w.lps) check_amplification(job, who, report);
    if (first_bytes.empty()) {
      first_bytes = job.bytes;
      steps = static_cast<std::uint64_t>(job.result.steps_run);
      sends = job.sends;
    } else if (job.bytes != first_bytes) {
      report.fail(who + ": result bytes differ from the first job's");
    }
    report.notes.push_back(who + " wall " + std::to_string(job.wall) + " s");

    if (opt.trace) {
      ++report.attempted;
      WeightedLayers t;
      aqt::RunResult result;
      std::string bytes;
      t.layers = run_traced(*registry, w.request, result, bytes);
      t.plain_wall = job.wall;
      if (bytes != job.bytes)
        report.fail(who + " traced: result bytes differ from execute_run's "
                          "(trace hash or statistics)");
      check_layer_sum(t.layers, who + " traced", report);
      traced.push_back(t);

      ++report.attempted;
      PlainJob bare = run_plain(*registry, bare_request);
      check_same_statistics(job.result, bare.result, who + " without hash",
                            report);
      bare_jobs.push_back(std::move(bare));
    }
    report.close_job(failures);
    jobs.push_back(std::move(job));
  } while (!opt.short_mode &&
           (seconds_between(begin, Clock::now()) < opt.seconds ||
            (!opt.trace && jobs.size() < w.filter_jobs)));

  for (int i = 0; i < kSetupSamples; ++i)
    setups.push_back(setup_sample(kSetupBatch, set_up));
  report.notes.push_back("result " + first_bytes);
  report.notes.push_back(setup_note(setups));
  std::vector<double> walls;
  for (const PlainJob& job : jobs) walls.push_back(job.wall);
  report.notes.push_back(
      std::to_string(jobs.size()) + " jobs, wall median " +
      std::to_string(median(walls)) + " s, fastest decile " +
      std::to_string(quantile(walls, 0.1)) + " s");
  // Other tenants of a shared host only ever slow a job down, in bursts;
  // the job is deterministic, so each of its segments' fastest repetition
  // is that segment's cost to the program.  One closed-loop client with
  // no queue: its latency is the job's wall, its rate the inverse.
  const double wall = interference_free_wall(jobs, w.filter_jobs);
  if (!opt.trace) {
    report.set("job_wall_s", wall, "s");
    report.set("steps_per_s", static_cast<double>(steps) / wall, "1/s");
    report.set("hops_per_s", static_cast<double>(sends) / wall, "1/s");
    report.set("serve_p50_ms", 1000.0 * wall, "ms");
    report.set("serve_p99_ms", 1000.0 * wall, "ms");
    report.set("serve_jobs_per_s", 1.0 / wall, "1/s");
    report.set("setup_s", quantile(setups, 0.0), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    const double trace_hash =
        wall - interference_free_wall(bare_jobs, w.filter_jobs);
    for (WeightedLayers& t : traced) t.trace_hash = trace_hash;
    add_layer_metrics(traced, report);
  }
  return report;
}

}  // namespace aqtb
