#include "aqt/runner/run_spec.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "aqt/core/checkpoint.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/core/rate_check.hpp"
#include "aqt/obs/events.hpp"
#include "aqt/obs/snapshot.hpp"
#include "aqt/runner/job_checkpoint.hpp"
#include "aqt/trace/run_trace.hpp"
#include "aqt/trace/trace.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/rng.hpp"

namespace aqt {
namespace {

/// True when a stop was requested through RunControls::cancel.
bool cancel_requested(const RunControls& rc) {
  return rc.cancel != nullptr && rc.cancel->load(std::memory_order_relaxed);
}

/// A ReplayAdversary that fails the run at the first scripted reroute it
/// cannot apply, instead of counting it as E10's cross-protocol replay does.
class ScriptReplayAdversary final : public Adversary {
 public:
  explicit ScriptReplayAdversary(const Trace& script) : replay_(script) {}

  void step(Time now, const Engine& engine, AdversaryStep& out) override {
    replay_.step(now, engine, out);
    if (const TraceEvent* ev = replay_.first_skipped()) {
      std::ostringstream os;
      os << "scripted reroute t=" << ev->t << " packet=" << ev->ordinal
         << " cannot apply: the packet is no longer in flight, or the "
            "suffix does not continue its route from where it is";
      throw PreconditionError(os.str());
    }
  }
  [[nodiscard]] bool finished(Time now) const override {
    return replay_.finished(now);
  }

 private:
  ReplayAdversary replay_;
};

void run_cell(const RunSpec& spec, const RunObservers& observers,
              RunResult& result) {
  AQT_REQUIRE(spec.topology.build != nullptr,
              "RunSpec '" << result.name << "' has no topology recipe");
  AQT_REQUIRE(spec.steps >= 1,
              "RunSpec '" << result.name << "' needs steps >= 1");
  EngineConfig ec = spec.engine;
  AQT_REQUIRE(ec.sinks.trace == nullptr && ec.sinks.profile == nullptr &&
                  ec.sinks.samples == nullptr,
              "RunSpec carries value configuration only; observer sinks are "
              "created per cell by the runner");

  const RunControls& rc = spec.controls;
  const bool resuming = !rc.resume_from.empty();
  const bool may_checkpoint = !rc.checkpoint_to.empty();
  AQT_REQUIRE(rc.checkpoint_at == 0 || may_checkpoint,
              "RunSpec '" << result.name
                          << "' sets checkpoint_at without checkpoint_to");
  AQT_REQUIRE(rc.checkpoint_at < spec.steps,
              "RunSpec '" << result.name << "' checkpoint_at "
                          << rc.checkpoint_at << " is not mid-run (steps = "
                          << spec.steps << ")");
  if (resuming || may_checkpoint) {
    // Checkpointable cells: the core checkpoint cannot carry the rate
    // audit, and the RANDOM protocol's key stream is engine-internal RNG
    // state the resumed process cannot reconstruct.
    AQT_REQUIRE(!spec.audit_w.has_value() && !spec.audit_burst.has_value() &&
                    !spec.audit_r.has_value() && !ec.audit_rates,
                "RunSpec '" << result.name
                            << "': checkpoint/resume requires the rate "
                               "audit off (core/checkpoint limitation)");
    AQT_REQUIRE(spec.protocol != "RANDOM",
                "RunSpec '" << result.name
                            << "': checkpoint/resume requires a "
                               "deterministic protocol, not RANDOM");
  }

  JobCheckpoint cp;
  if (resuming) {
    cp = load_job_checkpoint_file(rc.resume_from);
    AQT_REQUIRE(cp.protocol == spec.protocol && cp.seed == spec.seed &&
                    cp.topology == spec.topology.name,
                "job checkpoint '"
                    << rc.resume_from << "' belongs to " << cp.protocol << "/"
                    << cp.topology << "/" << cp.seed << ", not "
                    << spec.protocol << "/" << spec.topology.name << "/"
                    << spec.seed);
    AQT_REQUIRE(cp.steps_done < spec.steps,
                "job checkpoint '" << rc.resume_from << "' is already at step "
                                   << cp.steps_done << " of " << spec.steps);
    AQT_REQUIRE(cp.has_trace == spec.artifacts.trace_hash,
                "job checkpoint '" << rc.resume_from
                                   << "' trace-hash artifact mismatch");
  }

  const Graph graph = spec.topology.build();
  // The adversary factory receives spec.seed verbatim; the protocol gets a
  // mixed stream so a stateful protocol (RANDOM) never shares the
  // adversary's RNG sequence.
  auto protocol = make_protocol(spec.protocol, mix_seed(spec.seed, 1));

  const bool want_audit = spec.audit_r.has_value();
  AQT_REQUIRE((!spec.audit_w.has_value() && !spec.audit_burst.has_value()) ||
                  want_audit,
              "RunSpec audit_w and audit_burst need audit_r");
  AQT_REQUIRE(!spec.audit_w.has_value() || !spec.audit_burst.has_value(),
              "RunSpec audits a window or a bucket, not both");
  if (want_audit) ec.audit_rates = true;
  if (spec.artifacts.growth && ec.series_stride == 0)
    ec.series_stride = std::max<Time>(1, spec.steps / 512);

  // Trace-hash runs keep only the streaming content hash unless an
  // observer wants the bytes.
  std::optional<RunTraceWriter> writer;
  if (spec.artifacts.trace_hash || observers.run_trace != nullptr) {
    if (resuming) {
      // Continuation writer: no header, hash seeded from the interrupted
      // segment, so finish() yields the uninterrupted run's hash.
      if (observers.run_trace != nullptr)
        writer.emplace(*observers.run_trace, cp.trace);
      else
        writer.emplace(cp.trace);
    } else {
      RunTraceMeta meta =
          spec.header.has_value() ? *spec.header : audit_header(spec);
      meta.protocol = spec.protocol;
      meta.seed = spec.seed;
      if (observers.run_trace != nullptr)
        writer.emplace(*observers.run_trace, graph, meta);
      else
        writer.emplace(graph, meta);
    }
    ec.sinks.trace = &*writer;
  }
  // The JSONL writer reads the same records; a job without it keeps its
  // trace writer attached directly.
  obs::RunTraceFanout trace_sinks;
  if (observers.events != nullptr)
    ec.sinks.trace =
        trace_sinks.add(ec.sinks.trace).add(observers.events).as_sink();
  ec.sinks.profile = observers.phases;
  ec.sinks.samples = observers.samples;

  Engine eng(graph, *protocol, ec);
  if (resuming) {
    std::istringstream engine_state(cp.engine_state);
    load_checkpoint(eng, engine_state);
    AQT_REQUIRE(eng.now() == cp.steps_done,
                "job checkpoint '" << rc.resume_from << "': engine clock "
                                   << eng.now() << " != steps-done "
                                   << cp.steps_done);
    if (observers.events != nullptr) observers.events->resume_from(eng);
  } else if (spec.setup) {
    // Initial configuration only for fresh runs; a resumed engine already
    // carries it inside the restored state.
    spec.setup(eng, graph);
  }

  std::unique_ptr<Adversary> adversary;
  if (spec.adversary) adversary = spec.adversary(graph, spec.seed);
  if (resuming && adversary != nullptr && cp.steps_done > 0) {
    // Fast-forward: replay the poll sequence the interrupted segment
    // consumed (steps 1..k, each exactly once, in order — the same
    // sequence Engine::run produces on both its polled and compiled
    // paths), discarding the output.  Only sound for oblivious
    // adversaries, whose work is a pure function of `now` and internal
    // state; adaptive ones would have observed intermediate engine states
    // that no longer exist.
    AQT_REQUIRE(adversary->is_oblivious(),
                "RunSpec '" << result.name
                            << "': resume requires an oblivious adversary "
                               "(adaptive adversaries cannot fast-forward)");
    AdversaryStep discard;
    for (Time t = 1; t <= cp.steps_done; ++t) {
      discard.injections.clear();
      discard.reroutes.clear();
      adversary->step(t, eng, discard);
    }
  }

  if (observers.events != nullptr)
    observers.events->milestone(eng.now(), "run-begin");

  // The main loop, sliced so cancellation and the scheduled checkpoint are
  // observed at deterministic step boundaries.  Slicing never changes the
  // outcome: each Engine::run call advances the same step/poll sequence.
  bool checkpointed = false;
  for (;;) {
    const Time done = eng.now();
    if (done >= spec.steps) break;
    Time next = spec.steps;
    if (rc.checkpoint_at > done && rc.checkpoint_at < next)
      next = rc.checkpoint_at;
    if (rc.slice_steps > 0 && done + rc.slice_steps < next)
      next = done + rc.slice_steps;
    eng.run(adversary.get(), next - done, spec.stop_when_finished);
    if (eng.now() < next) break;  // Adversary finished early; engine stopped.
    const bool at_checkpoint =
        rc.checkpoint_at != 0 && eng.now() == rc.checkpoint_at;
    const bool cancel_now = cancel_requested(rc);
    const bool checkpoint_cancel =
        cancel_now && may_checkpoint && rc.checkpoint_on_cancel != nullptr &&
        rc.checkpoint_on_cancel->load(std::memory_order_relaxed);
    if (at_checkpoint || checkpoint_cancel) {
      JobCheckpoint out;
      out.name = spec.name;
      out.protocol = spec.protocol;
      out.topology = spec.topology.name;
      out.seed = spec.seed;
      out.steps_done = eng.now();
      if (writer) {
        out.has_trace = true;
        out.trace = writer->resume_state();
      }
      std::ostringstream engine_state;
      save_checkpoint(eng, engine_state);
      out.engine_state = engine_state.str();
      save_job_checkpoint_file(out, rc.checkpoint_to);
      checkpointed = true;
      break;
    }
    if (cancel_now) {
      result.steps_run = eng.now();
      result.injected = eng.total_injected();
      result.absorbed = eng.total_absorbed();
      result.in_flight = eng.packets_in_flight();
      result.error = "cancelled";
      return;
    }
  }

  if (checkpointed) {
    // Interrupted, not finished: no drain, no trace footer, no growth /
    // audit verdicts — those belong to the resumed completion.
    result.checkpointed = true;
    result.checkpoint_step = eng.now();
    result.steps_run = eng.now();
    result.injected = eng.total_injected();
    result.absorbed = eng.total_absorbed();
    result.in_flight = eng.packets_in_flight();
    result.max_queue = eng.metrics().max_queue_global();
    result.max_residence = eng.metrics().max_residence_global();
    result.max_latency = eng.metrics().max_latency();
    return;
  }

  if (spec.drain_after) {
    if (observers.events != nullptr)
      observers.events->milestone(eng.now(), "drain-begin");
    eng.drain(spec.drain_cap);
  }
  if (observers.events != nullptr)
    observers.events->milestone(eng.now(), "run-end");
  if (writer) writer->finish(eng.total_injected(), eng.total_absorbed());

  result.steps_run = eng.now();
  result.injected = eng.total_injected();
  result.absorbed = eng.total_absorbed();
  result.in_flight = eng.packets_in_flight();
  result.max_queue = eng.metrics().max_queue_global();
  result.max_residence = eng.metrics().max_residence_global();
  result.max_latency = eng.metrics().max_latency();
  if (writer) result.trace_hash = writer->content_hash();

  if (spec.artifacts.growth) {
    const GrowthReport growth = classify_growth(eng.metrics().series());
    result.verdict = growth.verdict;
    result.growth_ratio = growth.ratio;
  }
  if (want_audit) {
    eng.finalize_audit();
    if (spec.audit_w.has_value())
      result.audit = check_window(eng.audit(), *spec.audit_w, *spec.audit_r);
    else if (spec.audit_burst.has_value())
      result.audit =
          check_bucket(eng.audit(), *spec.audit_burst, *spec.audit_r);
    else
      result.audit = check_rate_r(eng.audit(), *spec.audit_r);
    result.feasible = result.audit.ok;
  }
  if (spec.artifacts.metrics)
    obs::collect_engine_metrics(eng, result.metrics);
  if (spec.collect) spec.collect(eng, adversary.get(), result);
}

}  // namespace

RunTraceMeta audit_header(const RunSpec& spec) {
  RunTraceMeta meta;
  meta.protocol = spec.protocol;
  meta.seed = spec.seed;
  if (spec.audit_w.has_value()) {
    meta.window_w = spec.audit_w;
    meta.window_r = spec.audit_r;
  } else if (!spec.audit_burst.has_value()) {
    meta.rate_r = spec.audit_r;
  }
  return meta;
}

RunResult execute_run(const RunSpec& spec, const RunObservers& observers) {
  RunResult result;
  result.name = spec.name.empty()
                    ? spec.protocol + "/" + spec.topology.name + "/" +
                          std::to_string(spec.seed)
                    : spec.name;
  result.protocol = spec.protocol;
  result.topology = spec.topology.name;
  result.seed = spec.seed;
  try {
    run_cell(spec, observers, result);
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

RunSpec make_scripted_spec(std::string name, Graph graph, Trace script,
                           const RunTraceMeta& header, Time horizon) {
  // The graph and script outlive every per-cell replay through shared
  // ownership captured in the recipe/factory closures.
  auto shared_graph = std::make_shared<Graph>(std::move(graph));
  auto shared_script = std::make_shared<Trace>(std::move(script));
  RunSpec spec;
  spec.name = name;
  spec.topology.name = std::move(name);
  spec.topology.build = [shared_graph] { return *shared_graph; };
  spec.protocol = header.protocol;
  spec.adversary = [shared_script](const Graph&, std::uint64_t) {
    return std::make_unique<ScriptReplayAdversary>(*shared_script);
  };
  spec.steps = std::max<Time>(1, horizon);
  spec.drain_after = true;
  spec.header = header;
  spec.artifacts.trace_hash = true;
  return spec;
}

}  // namespace aqt
