// The unified run-construction API: one explicit recipe (RunSpec) for a
// single independent simulation cell, and one explicit outcome (RunResult).
//
// Every workload in this repo — the §4 stability sweeps, the r = 1/2 + ε
// instability scans, fuzz trials, request batches, benches — is a bag of
// independent cells of the same shape: build a topology, make a protocol,
// make an adversary, run N steps, read the stability-relevant numbers.
// RunSpec factors that implicit per-tool tuple into one value type so the
// deterministic parallel pool (pool.hpp) can execute any of them, and so a
// cell's identity (protocol, topology, seed, steps) is explicit in one
// place instead of being re-spelled by every tool.
//
// Cells are self-contained by construction: the topology is a *recipe*
// (rebuilt per run), the adversary a *factory* (instantiated per run), and
// the engine/protocol are created inside execute_run — no shared mutable
// state exists between two executing cells, which is what makes the pool's
// byte-identical-to-serial guarantee possible.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "aqt/core/adversary.hpp"
#include "aqt/core/engine.hpp"
#include "aqt/core/rate_check.hpp"
#include "aqt/core/stability.hpp"
#include "aqt/core/types.hpp"
#include "aqt/obs/registry.hpp"
#include "aqt/trace/run_trace.hpp"
#include "aqt/util/rational.hpp"

namespace aqt {

class Trace;

namespace obs {
class JsonlEventWriter;
}

/// A named topology recipe (rebuilt per run so cells are independent).
struct TopologyRecipe {
  std::string name;
  std::function<Graph()> build;
};

/// Which optional artifacts a run should produce (each costs something, so
/// they are opt-in; the always-on scalars in RunResult are free).
struct RunArtifacts {
  /// Fill RunResult::metrics with the engine's aqt_* metric snapshot
  /// (obs/snapshot.hpp names).
  bool metrics = false;

  /// Record the full run trace (into a byte sink) and keep its FNV-1a
  /// content hash in RunResult::trace_hash — the cheapest way to prove two
  /// runs observably identical.
  bool trace_hash = false;

  /// Subsample the occupancy series and classify growth
  /// (RunResult::verdict); stride comes from engine.series_stride, or
  /// steps/512 when that is 0.
  bool growth = false;
};

struct RunResult;

/// Cooperative long-job controls (value-only, all off by default so batch
/// specs are unchanged).  The executor slices the engine loop so it can
/// observe these between slices; slicing itself is byte-invisible —
/// Engine::run compiles/polls the identical adversary step sequence
/// whether called once or many times, so trace hashes are unaffected.
struct RunControls {
  /// Largest number of engine steps between cancellation checks; 0 means
  /// the whole run is one slice (cancel then only observed at the end).
  Time slice_steps = 0;

  /// Borrowed stop flag (e.g. a deadline or client cancellation from the
  /// serve layer).  When it reads true at a slice boundary the cell stops:
  /// with checkpoint_to set, the run state is saved there and the result
  /// reports checkpointed; otherwise the result carries error "cancelled".
  std::shared_ptr<std::atomic<bool>> cancel;

  /// Deterministic mid-flight checkpoint: stop at exactly this step
  /// boundary and save to checkpoint_to (0 = no scheduled checkpoint).
  Time checkpoint_at = 0;

  /// Borrowed arming flag: when it reads true at the moment a cancel is
  /// observed, the cell checkpoints to checkpoint_to instead of returning
  /// error "cancelled".  Null (or false) keeps plain cancellation.  The
  /// serve layer arms this during graceful drain so long jobs survive a
  /// SIGTERM, while an explicit client cancel still just cancels.
  std::shared_ptr<std::atomic<bool>> checkpoint_on_cancel;

  /// Job-checkpoint file path written when checkpoint_at fires or a cancel
  /// arrives with this set.  Requires a checkpointable cell: no rate
  /// audit, a deterministic (non-RANDOM) protocol, and — for the resumed
  /// side — an adversary oblivious up to the cut (fast-forward replays its
  /// poll sequence; adaptive adversaries would need state the engine
  /// cannot reconstruct).
  std::string checkpoint_to;

  /// Resume a previously checkpointed run: restore engine + trace-hash
  /// state from this job-checkpoint file, fast-forward the adversary, and
  /// continue to `steps`.  The finished artifacts (trace hash included)
  /// are byte-identical to the uninterrupted run.
  std::string resume_from;
};

/// Builds a fresh adversary for one cell.  `seed` is the cell seed, so
/// stochastic adversaries are reproducible per cell regardless of which
/// pool worker runs it.  A null factory runs the engine with no injections.
using AdversaryFactory = std::function<std::unique_ptr<Adversary>(
    const Graph& graph, std::uint64_t seed)>;

/// Everything needed to run one independent simulation cell.
struct RunSpec {
  /// Display identity; when empty, "protocol/topology/seed" is used.
  std::string name;

  TopologyRecipe topology;
  std::string protocol = "FIFO";  ///< A make_protocol name.
  AdversaryFactory adversary;
  std::uint64_t seed = 1;
  Time steps = 1000;

  /// Stop early once the adversary reports finished() (scripted/phase
  /// adversaries); unbounded adversaries never finish, so this is safe on.
  bool stop_when_finished = true;

  /// After the main loop, run with no injections until the network empties
  /// (finite scripts: evidence then covers every packet's full journey).
  bool drain_after = false;
  Time drain_cap = 4096;  ///< Step cap for the drain phase.

  /// Value-only engine knobs (validate_routes, audit_rates, series_stride,
  /// audit_invariants).  Borrowed observer sinks must be null: per-cell
  /// sinks are created inside execute_run, never shared across cells —
  /// execute_run rejects a spec whose sinks are set.
  EngineConfig engine;

  /// Post-run traffic-feasibility audit: with both audit_w and audit_r,
  /// the exact (w, r) window check; with audit_burst and audit_r, the exact
  /// (b, r) bucket check; with only audit_r, the rate-r check.  Any of them
  /// forces engine.audit_rates on.  Result in RunResult::feasible.
  std::optional<std::int64_t> audit_w;
  std::optional<std::int64_t> audit_burst;
  std::optional<Rat> audit_r;

  /// The run trace header's declared constraints, audited or not
  /// (aqt-sim's flag runs declare their adversary's either way); protocol
  /// and seed always come from this spec.  Unset, it is
  /// audit_header(*this).
  std::optional<RunTraceMeta> header;

  /// Optional initial configuration applied before step 1 (e.g. the
  /// S-initial-configuration of Corollaries 4.5/4.6).
  std::function<void(Engine&, const Graph&)> setup;

  /// Optional post-run extractor for cell-specific numbers (gadget sizes,
  /// longest routes, ...); fills RunResult::extra.  `adversary` may be null
  /// when the spec had no factory.
  std::function<void(const Engine&, const Adversary* adversary, RunResult&)>
      collect;

  RunArtifacts artifacts;
  RunControls controls;
};

/// One cell's outcome.  `error` empty means the run completed; on failure
/// the scalar fields hold whatever was known at the point of failure.
struct RunResult {
  std::size_t index = 0;  ///< Submission order within a pool batch.
  std::string name;
  std::string protocol;
  std::string topology;
  std::uint64_t seed = 0;

  Time steps_run = 0;  ///< Steps actually executed (incl. drain).
  std::uint64_t injected = 0;
  std::uint64_t absorbed = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t max_queue = 0;
  Time max_residence = 0;
  Time max_latency = 0;

  /// Growth classification of the occupancy series (artifacts.growth);
  /// kUndecided when the series was not requested.
  GrowthVerdict verdict = GrowthVerdict::kUndecided;
  double growth_ratio = 0.0;

  /// Post-run audit outcome; true when no audit was requested.
  bool feasible = true;
  /// The audit's verdict, with the violating interval when infeasible
  /// (RateCheckResult::describe renders it).
  RateCheckResult audit;

  /// FNV-1a content hash of the run trace (artifacts.trace_hash); 0 when
  /// not requested.
  std::uint64_t trace_hash = 0;

  /// Engine metric snapshot (artifacts.metrics); empty when not requested.
  obs::MetricRegistry metrics;

  /// Cell-specific numbers from RunSpec::collect.
  std::map<std::string, double> extra;

  /// True when the run stopped at a checkpoint (RunControls::checkpoint_at
  /// or a cancel with checkpoint_to set) instead of completing; the saved
  /// state is at RunSpec::controls.checkpoint_to and `checkpoint_step`
  /// records where.  Not an error: resubmit with resume_from to continue.
  bool checkpointed = false;
  Time checkpoint_step = 0;

  std::string error;  ///< Empty = success.

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Borrowed observers of one run, for a caller that watches it (aqt-sim).
/// All null by default: run_pool and serve::Service pass none.  Like
/// EngineSinks they are write-only, so observing a run never changes it.
struct RunObservers {
  StepPhaseSink* phases = nullptr;          ///< EngineSinks::profile.
  /// Packet events + milestones; rides EngineSinks::trace beside the run
  /// trace writer.
  obs::JsonlEventWriter* events = nullptr;
  StepSampleSink* samples = nullptr;        ///< EngineSinks::samples.
  /// Receives the run trace bytes (the hash in RunResult::trace_hash is
  /// taken over them); null keeps the writer hash-only.
  std::ostream* run_trace = nullptr;
};

/// The trace header a spec declares by default: its protocol and seed,
/// and the audited (w, r) window or rate r; a bucket audit declares
/// nothing.
RunTraceMeta audit_header(const RunSpec& spec);

/// Runs one cell start to finish.  Never throws: any exception the cell
/// raises (bad topology recipe, unknown protocol, adversary precondition)
/// is contained in RunResult::error, so one failing cell cannot take down
/// a batch.
RunResult execute_run(const RunSpec& spec, const RunObservers& observers = {});

/// The adversary of a scripted job: replays `script` (injections verbatim,
/// reroutes by creation ordinal) and fails the run at the first scripted
/// reroute that cannot apply, with an error naming its t= and packet=.
/// The factory owns the script.
AdversaryFactory script_adversary(Trace script);

}  // namespace aqt
