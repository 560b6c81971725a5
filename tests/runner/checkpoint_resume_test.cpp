// The checkpoint/resume byte-identity contract (PR 10): a run interrupted
// at a checkpoint and resumed from the saved state produces artifacts —
// the run-trace content hash above all — byte-identical to the same run
// executed uninterrupted, and the guarantee holds under the deterministic
// run-pool at any --jobs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "aqt/runner/job_checkpoint.hpp"
#include "aqt/runner/pool.hpp"
#include "aqt/runner/run_spec.hpp"
#include "aqt/serve/registry.hpp"
#include "aqt/serve/request.hpp"

namespace aqt {
namespace {

/// A per-test scratch file under the system temp dir, removed on scope
/// exit.  The name carries the test-chosen tag so parallel ctest shards
/// cannot collide.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("aqt_ckpt_" + tag + ".ckpt"))
                  .string()) {}
  ~ScratchFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The reference workload: a stochastic adversary on a small grid,
/// compiled through the same serve::Registry the server uses.
RunSpec make_spec(std::uint64_t seed, Time steps) {
  serve::RunRequest req;
  req.topology = "grid:3x3";
  req.protocol = "FIFO";
  req.adversary.kind = "stochastic";
  req.adversary.w = 8;
  req.adversary.r = Rat(1, 4);
  req.adversary.d = 4;
  req.seed = seed;
  req.steps = steps;
  const serve::Registry registry;
  return registry.compile(req);
}

TEST(JobCheckpoint, ResumeReproducesTheUninterruptedHash) {
  const RunResult full = execute_run(make_spec(11, 600));
  ASSERT_TRUE(full.ok()) << full.error;
  ASSERT_NE(full.trace_hash, 0u);

  ScratchFile ckpt("single_11");
  RunSpec first = make_spec(11, 600);
  first.controls.checkpoint_at = 251;
  first.controls.checkpoint_to = ckpt.path();
  const RunResult interrupted = execute_run(first);
  ASSERT_TRUE(interrupted.ok()) << interrupted.error;
  EXPECT_TRUE(interrupted.checkpointed);
  EXPECT_EQ(interrupted.checkpoint_step, 251);
  EXPECT_EQ(interrupted.steps_run, 251);
  // An interrupted run reports no final artifacts.
  EXPECT_EQ(interrupted.trace_hash, 0u);

  RunSpec second = make_spec(11, 600);
  second.controls.resume_from = ckpt.path();
  const RunResult resumed = execute_run(second);
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  EXPECT_FALSE(resumed.checkpointed);
  EXPECT_EQ(resumed.steps_run, full.steps_run);
  EXPECT_EQ(resumed.injected, full.injected);
  EXPECT_EQ(resumed.absorbed, full.absorbed);
  EXPECT_EQ(resumed.max_queue, full.max_queue);
  EXPECT_EQ(resumed.trace_hash, full.trace_hash);
}

TEST(JobCheckpoint, SlicedExecutionIsByteInvisible) {
  const RunResult whole = execute_run(make_spec(5, 400));
  RunSpec sliced_spec = make_spec(5, 400);
  sliced_spec.controls.slice_steps = 7;  // Deliberately not a divisor.
  const RunResult sliced = execute_run(sliced_spec);
  ASSERT_TRUE(whole.ok() && sliced.ok());
  EXPECT_EQ(whole.trace_hash, sliced.trace_hash);
  EXPECT_EQ(whole.injected, sliced.injected);
}

TEST(JobCheckpoint, ResumeIsByteIdenticalUnderThePoolAtAnyJobs) {
  // Three independent cells, each checkpointed mid-flight; the resumed
  // batch must match the uninterrupted batch hash-for-hash whether the
  // pool runs with 1, 2, or 4 workers.
  const std::vector<std::uint64_t> seeds = {21, 22, 23};
  const Time steps = 500;

  std::vector<std::uint64_t> full_hashes;
  for (const std::uint64_t seed : seeds) {
    const RunResult full = execute_run(make_spec(seed, steps));
    ASSERT_TRUE(full.ok()) << full.error;
    full_hashes.push_back(full.trace_hash);
  }

  std::vector<ScratchFile> files;
  files.reserve(seeds.size());
  std::vector<RunSpec> interrupt_specs;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    files.emplace_back("pool_" + std::to_string(seeds[i]));
    RunSpec spec = make_spec(seeds[i], steps);
    spec.controls.checkpoint_at = 173 + static_cast<Time>(i);
    spec.controls.checkpoint_to = files[i].path();
    interrupt_specs.push_back(std::move(spec));
  }
  // Interrupt under the pool too: checkpoint files are per-cell, so
  // workers never share output paths.
  const RunPoolReport interrupted = run_pool(interrupt_specs, 2);
  for (const RunResult& r : interrupted.results) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.checkpointed);
  }

  std::vector<RunSpec> resume_specs;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    RunSpec spec = make_spec(seeds[i], steps);
    spec.controls.resume_from = files[i].path();
    resume_specs.push_back(std::move(spec));
  }
  for (const unsigned jobs : {1u, 2u, 4u}) {
    const RunPoolReport resumed = run_pool(resume_specs, jobs);
    ASSERT_EQ(resumed.results.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      ASSERT_TRUE(resumed.results[i].ok())
          << "jobs=" << jobs << ": " << resumed.results[i].error;
      EXPECT_EQ(resumed.results[i].trace_hash, full_hashes[i])
          << "jobs=" << jobs << " seed=" << seeds[i];
    }
  }
}

/// A scripted request: a convoy on ring:8 and one Lemma 3.3 reroute at
/// t=60, compiled like any served request.
RunSpec scripted_spec() {
  // Packet 19, injected at t=58, waits in r2's buffer at t=60.
  std::string events = R"({"t": 1, "route": ["r0", "r1", "r2"]})";
  for (int t = 4; t <= 88; t += 3) {
    if (t == 61) events += R"(, {"t": 60, "packet": 19, "suffix": ["r3", "r4"]})";
    events += R"(, {"t": )" + std::to_string(t) +
              R"(, "route": ["r0", "r1", "r2"]})";
  }
  const std::string text =
      R"({"aqt_run_request": 1, "topology": "ring:8", "protocol": "FIFO",)"
      R"( "adversary": {"kind": "scripted", "events": [)" +
      events + R"(]}, "steps": 200, "drain": true})";
  return serve::Registry().compile(serve::parse_run_request(text, "scripted"));
}

TEST(JobCheckpoint, ScriptedRequestCutBeforeItsRerouteResumes) {
  const RunResult full = execute_run(scripted_spec());
  ASSERT_TRUE(full.ok()) << full.error;
  ASSERT_NE(full.trace_hash, 0u);

  // Two cells cut before the reroute at t=60, resumed under the pool.
  std::vector<ScratchFile> files;
  files.reserve(2);
  std::vector<RunSpec> resume_specs;
  for (const Time cut : {Time{25}, Time{59}}) {
    files.emplace_back("scripted_" + std::to_string(cut));
    RunSpec first = scripted_spec();
    first.controls.checkpoint_at = cut;
    first.controls.checkpoint_to = files.back().path();
    ASSERT_TRUE(execute_run(first).checkpointed);
    RunSpec second = scripted_spec();
    second.controls.resume_from = files.back().path();
    resume_specs.push_back(std::move(second));
  }
  for (const unsigned jobs : {1u, 4u}) {
    const RunPoolReport resumed = run_pool(resume_specs, jobs);
    for (const RunResult& r : resumed.results) {
      ASSERT_TRUE(r.ok()) << "jobs=" << jobs << ": " << r.error;
      EXPECT_EQ(r.trace_hash, full.trace_hash) << "jobs=" << jobs;
    }
  }

  // Cut after the reroute, a resume would have to replay a poll that read
  // the engine, so it refuses.
  ScratchFile late("scripted_late");
  RunSpec first = scripted_spec();
  first.controls.checkpoint_at = 60;
  first.controls.checkpoint_to = late.path();
  ASSERT_TRUE(execute_run(first).checkpointed);
  RunSpec second = scripted_spec();
  second.controls.resume_from = late.path();
  const RunResult refused = execute_run(second);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.error.find("oblivious up to the cut"), std::string::npos)
      << refused.error;
}

TEST(JobCheckpoint, CancelWithoutCheckpointReportsCancelled) {
  RunSpec spec = make_spec(31, 100000);
  spec.controls.slice_steps = 50;
  spec.controls.cancel = std::make_shared<std::atomic<bool>>(true);
  const RunResult result = execute_run(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error, "cancelled");
  EXPECT_LE(result.steps_run, 50);
}

TEST(JobCheckpoint, ArmedCancelCheckpointsInstead) {
  ScratchFile ckpt("armed_41");
  RunSpec spec = make_spec(41, 100000);
  spec.controls.slice_steps = 60;
  spec.controls.cancel = std::make_shared<std::atomic<bool>>(true);
  spec.controls.checkpoint_to = ckpt.path();
  spec.controls.checkpoint_on_cancel =
      std::make_shared<std::atomic<bool>>(true);
  const RunResult result = execute_run(spec);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.checkpointed);
  EXPECT_EQ(result.checkpoint_step, 60);

  // And the armed checkpoint is a real one: resuming completes the run
  // with the uninterrupted hash.
  const RunResult full = execute_run(make_spec(41, 200));
  RunSpec resume = make_spec(41, 200);
  resume.controls.resume_from = ckpt.path();
  const RunResult resumed = execute_run(resume);
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  EXPECT_EQ(resumed.trace_hash, full.trace_hash);
}

TEST(JobCheckpoint, FileFormatRoundTrips) {
  JobCheckpoint cp;
  cp.name = "demo";
  cp.protocol = "FIFO";
  cp.topology = "grid:3x3";
  cp.seed = 9;
  cp.steps_done = 123;
  cp.has_trace = true;
  cp.trace.hash_state = 0xdeadbeefcafef00dULL;
  cp.trace.last_step = 123;
  cp.engine_state = "aqt-checkpoint 1\nnot really\n";

  std::ostringstream os;
  save_job_checkpoint(cp, os);
  std::istringstream is(os.str());
  const JobCheckpoint back = load_job_checkpoint(is, "round-trip");
  EXPECT_EQ(back.name, cp.name);
  EXPECT_EQ(back.protocol, cp.protocol);
  EXPECT_EQ(back.topology, cp.topology);
  EXPECT_EQ(back.seed, cp.seed);
  EXPECT_EQ(back.steps_done, cp.steps_done);
  EXPECT_TRUE(back.has_trace);
  EXPECT_EQ(back.trace.hash_state, cp.trace.hash_state);
  EXPECT_EQ(back.trace.last_step, cp.trace.last_step);
  EXPECT_EQ(back.engine_state, cp.engine_state);
}

TEST(JobCheckpoint, ResumeRejectsMismatchedSpecs) {
  ScratchFile ckpt("mismatch_51");
  RunSpec first = make_spec(51, 300);
  first.controls.checkpoint_at = 100;
  first.controls.checkpoint_to = ckpt.path();
  ASSERT_TRUE(execute_run(first).checkpointed);

  RunSpec wrong_seed = make_spec(52, 300);
  wrong_seed.controls.resume_from = ckpt.path();
  const RunResult r1 = execute_run(wrong_seed);
  EXPECT_FALSE(r1.ok());
  EXPECT_NE(r1.error.find("belongs to"), std::string::npos);

  RunSpec too_short = make_spec(51, 100);
  too_short.controls.resume_from = ckpt.path();
  const RunResult r2 = execute_run(too_short);
  EXPECT_FALSE(r2.ok());
  EXPECT_NE(r2.error.find("already at step"), std::string::npos);
}

TEST(JobCheckpoint, CheckpointRequiresDeterministicProtocolAndNoAudit) {
  RunSpec random_spec = make_spec(61, 300);
  random_spec.protocol = "RANDOM";
  random_spec.controls.checkpoint_at = 100;
  random_spec.controls.checkpoint_to = "/tmp/never-written.ckpt";
  const RunResult r1 = execute_run(random_spec);
  EXPECT_FALSE(r1.ok());
  EXPECT_NE(r1.error.find("RANDOM"), std::string::npos);

  RunSpec audited = make_spec(62, 300);
  audited.audit_r = Rat(1, 4);
  audited.controls.checkpoint_at = 100;
  audited.controls.checkpoint_to = "/tmp/never-written.ckpt";
  const RunResult r2 = execute_run(audited);
  EXPECT_FALSE(r2.ok());
  EXPECT_NE(r2.error.find("audit"), std::string::npos);
}

}  // namespace
}  // namespace aqt
