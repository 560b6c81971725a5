#include "aqt/serve/service.hpp"

#include <algorithm>
#include <utility>

#include "aqt/util/check.hpp"

namespace aqt {
namespace serve {
namespace {

/// Quantile of an unsorted sample (nearest-rank); 0 for empty samples.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  const std::size_t rank = std::min(
      xs.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(xs.size())));
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank),
                   xs.end());
  return xs[rank];
}

}  // namespace

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kActive: return "active";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kDeadline: return "deadline";
    case JobState::kCheckpointed: return "checkpointed";
    case JobState::kShed: return "shed";
  }
  return "?";
}

Service::Service(const Registry& registry, ServiceConfig config)
    : registry_(registry), config_(std::move(config)) {
  AQT_REQUIRE(config_.workers >= 1, "Service needs at least one worker");
  AQT_REQUIRE(config_.queue_cap >= 1, "Service needs queue_cap >= 1");
  paused_ = config_.start_paused;
  workers_.reserve(config_.workers);
  for (unsigned w = 0; w < config_.workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
  monitor_ = std::thread([this] { monitor_loop(); });
}

Service::~Service() { drain(); }

std::uint64_t Service::submit(const std::string& client,
                              const RunRequest& request,
                              CompletionFn on_done) {
  AQT_REQUIRE(on_done != nullptr, "Service::submit needs a completion fn");
  // Compile outside the lock: pure, and the expensive part (topology
  // parse) must never block the scheduler.
  RunSpec spec = registry_.compile(request);

  auto job = std::make_shared<Job>();
  job->client = client;
  job->request = request;
  job->spec = std::move(spec);
  job->cancel_flag = std::make_shared<std::atomic<bool>>(false);
  job->on_done = std::move(on_done);
  job->spec.controls.cancel = job->cancel_flag;
  job->spec.controls.slice_steps = config_.slice_steps;
  job->submitted = std::chrono::steady_clock::now();
  const std::uint64_t deadline_ms =
      request.deadline_ms != 0 ? request.deadline_ms
                               : config_.default_deadline_ms;
  job->deadline = deadline_ms != 0
                      ? job->submitted + std::chrono::milliseconds(deadline_ms)
                      : std::chrono::steady_clock::time_point::max();

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      ++rejected_total_;
      throw RequestError(errc::kDraining, "server is draining");
    }
    if (queued_count_ >= config_.queue_cap) {
      ++rejected_total_;
      throw RequestError(errc::kQueueFull,
                         "intake queue is full (" +
                             std::to_string(config_.queue_cap) +
                             " jobs); resubmit later");
    }
    job->id = next_id_++;
    // Checkpoint eligibility decided up front so the path is immutable
    // once a worker can see the spec: run_cell only honors it when the
    // drain arms checkpoint_on_cancel.  A resume fast-forwards only an
    // adversary that never reads the engine: not lps, not a script that
    // reroutes.
    const std::vector<ScriptEvent>& events = request.adversary.events;
    const bool checkpointable =
        !config_.checkpoint_dir.empty() && !request.audit_r.has_value() &&
        request.protocol != "RANDOM" && request.adversary.kind != "lps" &&
        std::none_of(events.begin(), events.end(),
                     [](const ScriptEvent& ev) { return ev.reroute; });
    if (checkpointable) {
      job->spec.controls.checkpoint_to = config_.checkpoint_dir + "/job-" +
                                         std::to_string(job->id) + ".ckpt";
      job->spec.controls.checkpoint_on_cancel =
          std::make_shared<std::atomic<bool>>(false);
    }
    if (queues_.find(client) == queues_.end()) rotation_.push_back(client);
    queues_[client].push_back(job);
    ++queued_count_;
    jobs_[job->id] = job;
    ++submitted_total_;
  }
  cv_.notify_all();
  return job->id;
}

bool Service::cancel(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  it->second->client_cancelled = true;
  it->second->cancel_flag->store(true, std::memory_order_relaxed);
  return true;
}

void Service::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void Service::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

bool Service::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

std::size_t Service::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_count_;
}

std::size_t Service::active_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_count_;
}

std::shared_ptr<Service::Job> Service::next_job_locked() {
  if (rotation_.empty()) return nullptr;
  for (std::size_t probe = 0; probe < rotation_.size(); ++probe) {
    const std::size_t at = (rotation_cursor_ + probe) % rotation_.size();
    auto& queue = queues_[rotation_[at]];
    if (queue.empty()) continue;
    std::shared_ptr<Job> job = queue.front();
    queue.pop_front();
    --queued_count_;
    // Advance past the chosen client so its next job waits one full turn.
    rotation_cursor_ = (at + 1) % rotation_.size();
    return job;
  }
  return nullptr;
}

void Service::finish_job(const std::shared_ptr<Job>& job, JobState state,
                         RunResult result, const std::string& checkpoint_path) {
  JobOutcome outcome;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.erase(job->id);
    job->state = state;
    switch (state) {
      case JobState::kDone:
        if (result.ok())
          ++completed_total_;
        else
          ++failed_total_;
        break;
      case JobState::kCancelled: ++cancelled_total_; break;
      case JobState::kDeadline: ++deadline_total_; break;
      case JobState::kCheckpointed: ++checkpointed_total_; break;
      case JobState::kShed: ++shed_total_; break;
      case JobState::kQueued:
      case JobState::kActive: break;  // Not terminal; unreachable.
    }
    outcome.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      job->submitted)
            .count();
    if (state != JobState::kShed) latencies_.push_back(outcome.wall_seconds);
  }
  outcome.job = job->id;
  outcome.client = job->client;
  outcome.state = state;
  outcome.result = std::move(result);
  outcome.checkpoint_path = checkpoint_path;
  outcome.start_seq = job->start_seq;
  // Outside the lock: the transport may call back into the service.
  job->on_done(outcome);
}

void Service::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return draining_ || (!paused_ && queued_count_ > 0);
      });
      if (draining_) return;  // drain() sheds the queue itself.
      job = next_job_locked();
      if (job == nullptr) continue;
      job->state = JobState::kActive;
      job->start_seq = ++dispatch_seq_;
      ++active_count_;
    }

    RunResult result = execute_run(job->spec);

    JobState state = JobState::kDone;
    {
      // deadline_hit / client_cancelled are written under mu_ (by
      // monitor_loop and cancel), so they must be read under it too.
      std::lock_guard<std::mutex> lock(mu_);
      --active_count_;
      if (result.checkpointed) {
        state = JobState::kCheckpointed;
      } else if (result.error == "cancelled") {
        state = job->deadline_hit && !job->client_cancelled
                    ? JobState::kDeadline
                    : JobState::kCancelled;
      }
    }
    finish_job(job, state, std::move(result),
               state == JobState::kCheckpointed
                   ? job->spec.controls.checkpoint_to
                   : std::string());
  }
}

void Service::monitor_loop() {
  for (;;) {
    std::vector<std::shared_ptr<Job>> expired;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_for(lock, std::chrono::milliseconds(20),
                       [this] { return draining_; }))
        return;
      const auto now = std::chrono::steady_clock::now();
      for (auto& [id, job] : jobs_) {
        (void)id;
        if (job->state == JobState::kActive && !job->deadline_hit &&
            job->deadline != std::chrono::steady_clock::time_point::max() &&
            now >= job->deadline) {
          job->deadline_hit = true;
          expired.push_back(job);
        }
      }
    }
    for (const auto& job : expired)
      job->cancel_flag->store(true, std::memory_order_relaxed);
  }
}

void Service::drain() {
  std::vector<std::shared_ptr<Job>> shed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      // A second drain (destructor after an explicit drain) only needs the
      // joins below to be idempotent; they are — threads are joined once.
    }
    draining_ = true;
    for (auto& [client, queue] : queues_) {
      (void)client;
      for (auto& job : queue) shed.push_back(job);
      queue.clear();
    }
    queued_count_ = 0;
    // Active jobs: arm checkpoint-on-cancel where a checkpoint path was
    // provisioned, then ask everyone to stop at the next slice boundary.
    for (auto& [id, job] : jobs_) {
      (void)id;
      if (job->state != JobState::kActive) continue;
      if (job->spec.controls.checkpoint_on_cancel != nullptr)
        job->spec.controls.checkpoint_on_cancel->store(
            true, std::memory_order_relaxed);
      job->cancel_flag->store(true, std::memory_order_relaxed);
    }
  }
  cv_.notify_all();
  for (const auto& job : shed) {
    RunResult result;
    result.name = job->spec.name.empty()
                      ? job->spec.protocol + "/" + job->spec.topology.name +
                            "/" + std::to_string(job->spec.seed)
                      : job->spec.name;
    result.protocol = job->spec.protocol;
    result.topology = job->spec.topology.name;
    result.seed = job->spec.seed;
    result.error = "shed: server draining";
    finish_job(job, JobState::kShed, std::move(result), std::string());
  }
  for (auto& t : workers_)
    if (t.joinable()) t.join();
  if (monitor_.joinable()) monitor_.join();
}

void Service::collect_metrics(obs::MetricRegistry& registry) const {
  std::lock_guard<std::mutex> lock(mu_);
  registry.gauge("aqt_serve_queue_depth", "Jobs queued, not yet dispatched")
      .set(static_cast<double>(queued_count_));
  registry.gauge("aqt_serve_active_jobs", "Jobs currently executing")
      .set(static_cast<double>(active_count_));
  registry.gauge("aqt_serve_clients", "Distinct clients ever seen")
      .set(static_cast<double>(rotation_.size()));
  registry.gauge("aqt_serve_queue_cap", "Intake queue capacity")
      .set(static_cast<double>(config_.queue_cap));
  registry.gauge("aqt_serve_workers", "Job executor threads")
      .set(static_cast<double>(config_.workers));
  registry
      .counter("aqt_serve_submitted_total", "Jobs accepted into the queue")
      .set(submitted_total_);
  registry
      .counter("aqt_serve_rejected_total",
               "Submits rejected (queue full or draining)")
      .set(rejected_total_);
  registry.counter("aqt_serve_completed_total", "Jobs finished successfully")
      .set(completed_total_);
  registry.counter("aqt_serve_failed_total", "Jobs whose cell errored")
      .set(failed_total_);
  registry.counter("aqt_serve_cancelled_total", "Jobs cancelled by clients")
      .set(cancelled_total_);
  registry
      .counter("aqt_serve_deadline_total", "Jobs stopped at their deadline")
      .set(deadline_total_);
  registry
      .counter("aqt_serve_checkpointed_total",
               "Jobs checkpointed (scheduled or drain)")
      .set(checkpointed_total_);
  registry.counter("aqt_serve_shed_total", "Queued jobs shed by drain")
      .set(shed_total_);
  registry
      .gauge("aqt_serve_job_seconds_p50",
             "Median submit-to-terminal job latency")
      .set(quantile(latencies_, 0.50));
  registry
      .gauge("aqt_serve_job_seconds_p99",
             "99th-percentile submit-to-terminal job latency")
      .set(quantile(latencies_, 0.99));
}

}  // namespace serve
}  // namespace aqt
