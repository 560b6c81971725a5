// Engine-side interfaces for the observability layer (aqt/obs).
//
// Two borrowed sinks, following the pattern of trace_sink.hpp: core defines
// the pure interfaces and calls them when configured; the concrete
// implementations (the wall-clock step-phase profiler, the time-series
// recorder and the stability watchdog) live in the obs layer, which links
// core — never the reverse.  (Packet events reach the obs layer's JSONL
// writer through trace_sink.hpp.)  Both sinks are write-only observers:
// they may not influence the simulation, so enabling them must never change
// a run (aqt-fuzz cross-checks this by comparing run-trace content hashes
// with observability on and off).
//
// When a sink pointer is null the per-step cost is one predictable branch
// per call site — the "near-zero when off" contract the profiler-overhead
// test in tests/obs enforces.
#pragma once

#include <cstddef>
#include <cstdint>

#include "aqt/core/types.hpp"

namespace aqt {

/// The engine's substeps, in execution order within one step.  kTransmit is
/// substep 1 (every nonempty buffer sends), kAbsorb is substep 2a
/// (deliveries: absorptions and re-enqueues), kInject is substep 2b (the
/// adversary's reroutes and injections), kRecord covers end-of-step metric
/// and trace recording, and kAudit is the optional invariant re-derivation.
enum class StepPhase : std::uint8_t {
  kTransmit = 0,
  kAbsorb = 1,
  kInject = 2,
  kRecord = 3,
  kAudit = 4,
};

inline constexpr std::size_t kStepPhaseCount = 5;

/// Stable lower-case phase names ("transmit", "absorb", "inject", "record",
/// "audit") — used as metric labels and in exported schemas.
const char* to_string(StepPhase phase);

/// Receives phase boundaries from the engine.  Call order per step:
/// begin_step, then — when begin_step returned true — begin_phase/end_phase
/// pairs in phase order (a phase with nothing to do may be skipped), then
/// end_step.  When begin_step returns false the engine skips the brackets
/// for that step and instead passes the mask of phases that ran (bit i =
/// StepPhase(i), each ran exactly once) to end_step, so a sink that only
/// samples phase timings keeps exact call accounting without paying the
/// per-boundary cost on every step.  Sinks that time every boundary return
/// true unconditionally and receive mask 0.
class StepPhaseSink {
 public:
  virtual ~StepPhaseSink() = default;

  /// Returns whether this step's phases should be bracketed.
  [[nodiscard]] virtual bool begin_step(Time t) = 0;
  virtual void begin_phase(StepPhase phase) = 0;
  virtual void end_phase(StepPhase phase) = 0;
  /// `skipped_phase_mask` is nonzero only on bracket-skipped steps.
  virtual void end_step(std::uint8_t skipped_phase_mask) = 0;
};

/// End-of-step summary of whole-network state, computed by the engine at
/// the close of the record phase.  All fields are pure functions of the
/// simulation state (no wall clock), so a sink driven only by StepSample
/// values is deterministic by construction.
struct StepSample {
  Time t = 0;
  std::uint64_t in_flight = 0;       ///< Live packets (buffered).
  std::uint64_t injected_total = 0;  ///< Cumulative creations (initial+adv).
  std::uint64_t absorbed_total = 0;  ///< Cumulative absorptions.
  std::uint64_t active_edges = 0;    ///< Edges with nonempty buffers.
  std::uint64_t max_queue = 0;       ///< Largest buffer *this* step.
};

class Engine;

/// Receives one StepSample per executed step — the hook behind the obs
/// layer's time-series recorder and online stability watchdog.  The engine
/// reference is read-only state access for sinks that sample per-edge
/// detail (watched queue depths); like every EngineSinks member, the sink
/// must not influence the run (the aqt-fuzz observer-effect phase and the
/// tests/obs byte-identity suite enforce this).  Null costs one branch per
/// step; a non-null sink costs one extra pass over the active-edge bitmap
/// (to compute max_queue) plus whatever the sink itself does.
class StepSampleSink {
 public:
  virtual ~StepSampleSink() = default;

  virtual void on_step(const StepSample& sample, const Engine& engine) = 0;
};

}  // namespace aqt
