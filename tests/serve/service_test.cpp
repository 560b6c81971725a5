// The resident job service: bounded intake (SRV010), round-robin fairness
// across clients, deadlines, cancellation, drain semantics (shed vs
// checkpoint), and the aqt_serve_* metrics surface.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "aqt/obs/export.hpp"
#include "aqt/obs/registry.hpp"
#include "aqt/serve/request.hpp"
#include "aqt/serve/service.hpp"

namespace aqt {
namespace serve {
namespace {

RunRequest small_request(std::uint64_t seed, Time steps = 300) {
  RunRequest req;
  req.topology = "grid:3x3";
  req.protocol = "FIFO";
  req.adversary.kind = "stochastic";
  req.adversary.w = 8;
  req.adversary.r = Rat(1, 4);
  req.adversary.d = 4;
  req.seed = seed;
  req.steps = steps;
  return req;
}

/// Collects completion callbacks (which arrive on worker threads) and lets
/// the test thread block until N of them have fired.
class Collector {
 public:
  Service::CompletionFn sink() {
    return [this](const JobOutcome& outcome) {
      std::lock_guard<std::mutex> lock(mu_);
      outcomes_.push_back(outcome);
      cv_.notify_all();
    };
  }

  /// Waits for `n` outcomes; fails the test on timeout.
  std::vector<JobOutcome> wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    const bool ok = cv_.wait_for(lock, std::chrono::seconds(30),
                                 [&] { return outcomes_.size() >= n; });
    EXPECT_TRUE(ok) << "timed out with " << outcomes_.size() << "/" << n;
    return outcomes_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<JobOutcome> outcomes_;
};

TEST(ServeService, RunsASubmittedJobToDone) {
  const Registry registry;
  ServiceConfig config;
  config.workers = 2;
  Service service(registry, config);

  Collector collector;
  const std::uint64_t id =
      service.submit("alice", small_request(1), collector.sink());
  EXPECT_GE(id, 1u);
  const auto outcomes = collector.wait_for(1);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].job, id);
  EXPECT_EQ(outcomes[0].client, "alice");
  EXPECT_EQ(outcomes[0].state, JobState::kDone);
  EXPECT_TRUE(outcomes[0].result.ok()) << outcomes[0].result.error;
  EXPECT_NE(outcomes[0].result.trace_hash, 0u);
  EXPECT_GE(outcomes[0].start_seq, 1u);
}

TEST(ServeService, FullQueueRejectsWithSRV010) {
  const Registry registry;
  ServiceConfig config;
  config.workers = 1;
  config.queue_cap = 2;
  config.start_paused = true;  // Nothing dispatches; the queue must fill.
  Service service(registry, config);

  Collector collector;
  service.submit("c", small_request(1), collector.sink());
  service.submit("c", small_request(2), collector.sink());
  try {
    service.submit("c", small_request(3), collector.sink());
    FAIL() << "expected SRV010";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), errc::kQueueFull);
  }
  EXPECT_EQ(service.queue_depth(), 2u);

  // Rejection is back-pressure, not a black hole: resuming drains the two
  // accepted jobs and frees capacity again.
  service.resume();
  const auto outcomes = collector.wait_for(2);
  EXPECT_EQ(outcomes.size(), 2u);
  service.drain();
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(ServeService, DispatchIsRoundRobinAcrossClients) {
  const Registry registry;
  ServiceConfig config;
  config.workers = 1;  // Serial dispatch makes start_seq deterministic.
  config.start_paused = true;
  Service service(registry, config);

  Collector collector;
  // alice floods four jobs before bob's two arrive; fairness says bob is
  // not starved behind the flood.
  std::vector<std::uint64_t> alice;
  std::vector<std::uint64_t> bob;
  for (int i = 0; i < 4; ++i)
    alice.push_back(service.submit("alice", small_request(10 + i),
                                   collector.sink()));
  for (int i = 0; i < 2; ++i)
    bob.push_back(service.submit("bob", small_request(20 + i),
                                 collector.sink()));
  service.resume();
  const auto outcomes = collector.wait_for(6);
  ASSERT_EQ(outcomes.size(), 6u);

  std::map<std::uint64_t, std::uint64_t> seq_of_job;
  for (const JobOutcome& o : outcomes) seq_of_job[o.job] = o.start_seq;
  // Expected interleave: a1 b1 a2 b2 a3 a4.
  EXPECT_EQ(seq_of_job[alice[0]], 1u);
  EXPECT_EQ(seq_of_job[bob[0]], 2u);
  EXPECT_EQ(seq_of_job[alice[1]], 3u);
  EXPECT_EQ(seq_of_job[bob[1]], 4u);
  EXPECT_EQ(seq_of_job[alice[2]], 5u);
  EXPECT_EQ(seq_of_job[alice[3]], 6u);
  // Per client, jobs ran in submission order.
  EXPECT_LT(seq_of_job[alice[0]], seq_of_job[alice[1]]);
  EXPECT_LT(seq_of_job[bob[0]], seq_of_job[bob[1]]);
}

TEST(ServeService, DeadlineExpiryCancelsTheJob) {
  const Registry registry;
  ServiceConfig config;
  config.workers = 1;
  config.slice_steps = 64;  // Tight slices so the deadline lands quickly.
  Service service(registry, config);

  Collector collector;
  RunRequest req = small_request(7, 2000000000);  // Far beyond the deadline.
  req.deadline_ms = 1;
  const std::uint64_t id = service.submit("d", req, collector.sink());
  const auto outcomes = collector.wait_for(1);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].job, id);
  EXPECT_EQ(outcomes[0].state, JobState::kDeadline);
}

TEST(ServeService, ClientCancelStopsAnActiveJob) {
  const Registry registry;
  ServiceConfig config;
  config.workers = 1;
  config.slice_steps = 64;
  Service service(registry, config);

  Collector collector;
  const std::uint64_t id =
      service.submit("c", small_request(8, 2000000000), collector.sink());
  // Wait until the job is actually running, then cancel it.
  while (service.active_jobs() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(service.cancel(id));
  const auto outcomes = collector.wait_for(1);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].state, JobState::kCancelled);
  // Cancelling a finished job is a polite no.
  EXPECT_FALSE(service.cancel(id));
  EXPECT_FALSE(service.cancel(999999));
}

TEST(ServeService, DrainShedsQueuedJobs) {
  const Registry registry;
  ServiceConfig config;
  config.workers = 1;
  config.start_paused = true;  // Keep everything queued.
  Service service(registry, config);

  Collector collector;
  service.submit("c", small_request(1), collector.sink());
  service.submit("c", small_request(2), collector.sink());
  service.drain();
  EXPECT_TRUE(service.draining());
  const auto outcomes = collector.wait_for(2);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const JobOutcome& o : outcomes) {
    EXPECT_EQ(o.state, JobState::kShed);
    EXPECT_FALSE(o.result.ok());
  }
  // Submitting after drain is SRV013.
  try {
    service.submit("c", small_request(3), collector.sink());
    FAIL() << "expected SRV013";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), errc::kDraining);
  }
}

TEST(ServeService, DrainCheckpointsActiveJobsAndTheCheckpointResumes) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "aqt_serve_drain_ckpt")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const Registry registry;
  // The served job is far longer than the drain takes to land, so the
  // drain always finds it active; it stops at the next slice boundary.
  const Time steps = 2000000;
  std::string checkpoint_path;
  Time checkpoint_step = 0;
  {
    ServiceConfig config;
    config.workers = 1;
    config.slice_steps = 256;
    config.checkpoint_dir = dir;
    Service service(registry, config);

    Collector collector;
    service.submit("c", small_request(9, steps), collector.sink());
    while (service.active_jobs() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    service.drain();
    const auto outcomes = collector.wait_for(1);
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_EQ(outcomes[0].state, JobState::kCheckpointed);
    checkpoint_path = outcomes[0].checkpoint_path;
    checkpoint_step = outcomes[0].result.checkpoint_step;
    ASSERT_FALSE(checkpoint_path.empty());
    ASSERT_TRUE(std::filesystem::exists(checkpoint_path));
    ASSERT_GT(checkpoint_step, 0);
    ASSERT_LT(checkpoint_step, steps);
  }

  // The drained checkpoint continues to the uninterrupted result.  A few
  // slices past the checkpoint prove that as well as the whole 2M steps:
  // a checkpoint resumes to any later horizon.
  const Time horizon = checkpoint_step + 4 * 256;
  const RunResult full =
      execute_run(registry.compile(small_request(9, horizon)));
  ASSERT_TRUE(full.ok()) << full.error;
  RunRequest resume = small_request(9, horizon);
  resume.resume_from = checkpoint_path;
  const RunResult resumed = execute_run(registry.compile(resume));
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  EXPECT_EQ(resumed.trace_hash, full.trace_hash);
  std::filesystem::remove_all(dir);
}

TEST(ServeService, MetricsExposeTheServeSurface) {
  const Registry registry;
  ServiceConfig config;
  config.workers = 2;
  Service service(registry, config);

  Collector collector;
  service.submit("m", small_request(1), collector.sink());
  service.submit("m", small_request(2), collector.sink());
  collector.wait_for(2);

  obs::MetricRegistry metrics;
  service.collect_metrics(metrics);
  const std::string text = obs::to_prometheus(metrics);
  for (const char* name :
       {"aqt_serve_queue_depth", "aqt_serve_active_jobs",
        "aqt_serve_submitted_total", "aqt_serve_rejected_total",
        "aqt_serve_completed_total", "aqt_serve_shed_total",
        "aqt_serve_job_seconds_p50", "aqt_serve_job_seconds_p99"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  EXPECT_NE(text.find("aqt_serve_submitted_total 2"), std::string::npos);
  EXPECT_NE(text.find("aqt_serve_completed_total 2"), std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace aqt
