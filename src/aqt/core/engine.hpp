// The synchronous store-and-forward engine (paper §2).
//
// Time advances in integer steps; step 0 is the initial configuration and
// the first simulated step is step 1.  Each step has two substeps:
//
//  substep 1 (send): every nonempty buffer forwards exactly one packet over
//    its edge — the packet with the smallest protocol priority key.  Greedy
//    (work-conserving) behaviour is thus structural: a nonempty buffer can
//    never idle.
//
//  substep 2 (receive/inject): forwarded packets arrive at the head node of
//    their edge; a packet that completed its route is absorbed, any other is
//    placed in the buffer of the next edge of its route.  Then the adversary
//    runs: it may reroute in-flight packets (Lemma 3.3; historic protocols
//    only) and inject new packets, which join the buffer of the first edge
//    of their route.
//
// Ordering within a step is fixed and documented so every run is
// deterministic and replayable:
//   * buffers send in increasing edge-id order;
//   * same-step buffer arrivals receive sequence numbers in that same edge
//     order, before any same-step injection (so FIFO's time-priority
//     property of Definition 4.2 holds structurally);
//   * injections are sequenced in the order the adversary issued them.
//
// Hot-path layout: the set of nonempty buffers is a dense bitmap scanned in
// word-sized strides (ascending edge id, exactly the former ordered-set
// order), buffers are flat binary heaps, packets are SoA records holding
// interned RouteRefs, and Engine::run lowers oblivious adversaries into
// blockwise CompiledSchedules so the steady-state step makes no virtual
// adversary call and no allocation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "aqt/core/adversary.hpp"
#include "aqt/core/buffer.hpp"
#include "aqt/core/compiled_schedule.hpp"
#include "aqt/core/graph.hpp"
#include "aqt/core/metrics.hpp"
#include "aqt/core/packet.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/core/rate_check.hpp"
#include "aqt/core/route_table.hpp"
#include "aqt/core/types.hpp"

namespace aqt {

class InvariantAuditor;
class PacketEventSink;
class RunTraceSink;
class StepPhaseSink;
class StepSampleSink;

/// The engine's borrowed observer sinks, passed as one unit.  Every member
/// is optional (null = off) and write-only: observers never change a run
/// (aqt-fuzz --obs-trials proves it).  The caller owns each sink and must
/// keep it alive for the engine's lifetime; sinks are engine-local, so two
/// engines running concurrently must not share one sink instance.
/// (The fourth observer, the step-level invariant auditor, is engine-owned
/// and stays a value knob: EngineConfig::audit_invariants.)
struct EngineSinks {
  /// Run-trace evidence writer (trace_sink.hpp).  When set, the engine
  /// emits a record for every observable event — initial packets, sends,
  /// absorptions, reroutes, injections, end-of-step queue depths — so an
  /// independent offline verifier (aqt-verify) can re-derive every model
  /// rule from the recorded run.  The caller finalizes it (e.g.
  /// RunTraceWriter::finish) after the run.
  RunTraceSink* trace = nullptr;

  /// Step-phase profiler (obs_sink.hpp).  When set, the engine reports the
  /// boundaries of every substep (transmit, absorb, inject, record, audit)
  /// so the obs layer's StepProfiler can wall-clock them.  Null costs one
  /// branch per phase boundary — near-zero, guarded by the tests/obs
  /// overhead test.
  StepPhaseSink* profile = nullptr;

  /// Packet-lifecycle sink (obs_sink.hpp).  When set, the engine reports
  /// every injection, per-hop send, and absorption — the stream the obs
  /// layer's JsonlEventWriter turns into machine-readable JSONL.
  PacketEventSink* events = nullptr;

  /// End-of-step sample sink (obs_sink.hpp).  When set, the engine hands
  /// over one StepSample per step — the hook the obs layer's
  /// TimeseriesRecorder and StabilityWatchdog plug into.  Null costs one
  /// branch per step.  Fan out to several sample consumers with
  /// obs::StepSampleFanout.
  StepSampleSink* samples = nullptr;
};

struct EngineConfig {
  /// Validate that every injected route is a simple directed path and that
  /// every reroute splices into one.  Cheap; keep on except in the very
  /// largest benches.  On the compiled-schedule path validation happens at
  /// block-compile time (same exception, earlier surface).
  bool validate_routes = true;

  /// Record (injection time, final effective route) pairs for post-hoc
  /// rate-feasibility checks.  Memory is one entry per (packet, route
  /// edge); enable in tests and medium benches.
  bool audit_rates = false;

  /// Subsample the occupancy time series every `series_stride` steps
  /// (0 disables the series).
  Time series_stride = 0;

  /// Re-derive the model invariants (packet conservation, active-set
  /// consistency, time-priority sequence order, route simplicity, work
  /// conservation) from whole engine state after every step; a violation
  /// aborts with a state dump.  See invariants.hpp.  Costs roughly one
  /// extra pass over the live state per step — keep on in tests and
  /// debugging runs, off in the largest benches.
  bool audit_invariants = false;

  /// Let Engine::run lower oblivious adversaries (is_oblivious()) into
  /// blockwise CompiledSchedules instead of polling them per step.  The
  /// result is byte-identical (trace hash included) to the polled path —
  /// the golden-matrix test pins this — so the knob exists only for A/B
  /// comparison and for forcing the polled path in differential tests.
  bool compile_schedules = true;

  /// All borrowed observer sinks, as one aggregate (see EngineSinks).
  /// (The old per-sink alias fields — record_trace / profile /
  /// record_events — are gone, so any use of them fails to compile.)
  EngineSinks sinks;
};

/// The simulator.  Owns packets, buffers and metrics; borrows graph and
/// protocol (both must outlive the engine).
class Engine {
 public:
  Engine(const Graph& graph, const Protocol& protocol,
         EngineConfig config = {});
  ~Engine();

  /// Places a packet in the buffer of the first edge of `route` as part of
  /// the initial configuration (before step 1); its injection time is 0.
  /// Must not be called once stepping has begun.
  PacketId add_initial_packet(const Route& route, std::uint64_t tag = 0);

  /// Executes one time step; `adversary` may be null (no injections).
  /// Always polls the adversary (the compiled fast path lives in run()).
  void step(Adversary* adversary);

  /// Runs up to `count` steps and returns the number taken.  When
  /// `stop_when_finished` is set, stops before the first step for which
  /// adversary->finished() reported true.  Oblivious adversaries are
  /// compiled blockwise (see EngineConfig::compile_schedules); all others
  /// are polled per step.
  Time run(Adversary* adversary, Time count, bool stop_when_finished = false);

  /// Runs with no injections until every buffer is empty (or `cap` steps
  /// elapse); returns the number of steps taken.  With finite routes and
  /// no adversary the network always drains, so hitting the cap indicates
  /// a caller bug — it is reported via the return value, not an error.
  Time drain(Time cap);

  // --- State access -------------------------------------------------------

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const Graph& graph() const { return graph_; }
  [[nodiscard]] const Protocol& protocol() const { return protocol_; }

  [[nodiscard]] const Buffer& buffer(EdgeId e) const;
  [[nodiscard]] std::size_t queue_size(EdgeId e) const;

  /// Total live packets (buffers only; between steps nothing is in transit).
  [[nodiscard]] std::uint64_t packets_in_flight() const {
    return arena_.live_count();
  }
  /// Largest buffer right now.
  [[nodiscard]] std::uint64_t max_queue_now() const;

  /// Edges with nonempty buffers, in increasing edge-id order (the order
  /// buffers send in).  Materialized from the active bitmap on every call —
  /// cold-path use only (audits, dumps, tests).
  [[nodiscard]] std::vector<EdgeId> active_edges() const;

  [[nodiscard]] const Packet& packet(PacketId id) const { return arena_[id]; }
  /// Cold per-packet fields (tag, ordinal); see PacketMeta.
  [[nodiscard]] const PacketMeta& packet_meta(PacketId id) const {
    return arena_.meta(id);
  }
  [[nodiscard]] bool is_live(PacketId id) const { return arena_.is_live(id); }
  [[nodiscard]] const PacketArena& arena() const { return arena_; }
  [[nodiscard]] const RouteTable& route_table() const { return routes_; }

  [[nodiscard]] std::uint64_t total_injected() const {
    return arena_.total_created();
  }
  [[nodiscard]] std::uint64_t total_absorbed() const { return absorbed_; }

  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }

  // --- Rate auditing ------------------------------------------------------

  /// The audit of all *finalized* packets (absorbed so far).  Call
  /// finalize_audit() to fold in still-live packets before checking.
  [[nodiscard]] const RateAudit& audit() const;

  /// Adds every live packet's current effective route to the audit (their
  /// routes can no longer change from the caller's perspective).  Call once,
  /// at the end of a run, before check_rate_r / check_window.
  void finalize_audit();

 private:
  friend void save_checkpoint(const Engine& engine, std::ostream& os);
  friend void load_checkpoint(Engine& engine, std::istream& is);
  friend struct EngineTamperer;  // Test-only corruption (invariants.hpp).

  void enqueue(PacketId id, Time t);
  void absorb(PacketId id, Time t);
  void apply_reroute(const Reroute& rr);
  void apply_injection(const Injection& inj, Time t);
  /// Interns `route`.  With EngineConfig::validate_routes set, a route the
  /// table does not hold yet is checked first, so each distinct route is
  /// validated once; nullopt when it is not a simple path, which then never
  /// enters the table.
  std::optional<RouteRef> intern_route(const Route& route);
  /// Injection of an already-interned, already-validated route.
  void apply_injection_ref(RouteRef route, std::uint64_t tag, Time t);

  /// Shared step skeleton; `inject_body(t)` runs substep 2b when
  /// `has_inject` is set.
  template <typename InjectBody>
  void step_body(bool has_inject, InjectBody&& inject_body);
  void step_compiled(const CompiledSchedule::StepView& view);

  /// Polls `adv` for steps [first, first + count) into schedule_.
  void compile_block(Adversary& adv, Time first, Time count);

  // Active-edge bitmap (one bit per edge; word-scanned in ascending order).
  void set_active_bit(EdgeId e);
  void clear_active_bit(EdgeId e);
  [[nodiscard]] bool test_active_bit(EdgeId e) const;
  template <typename Fn>
  void for_each_active(Fn&& fn) const;  ///< Ascending edge-id order.

  const Graph& graph_;
  const Protocol& protocol_;
  KeyRule key_rule_;  ///< Cached protocol_.key_rule(); see Engine::enqueue.
  EngineConfig config_;

  PacketArena arena_;
  RouteTable routes_;
  std::vector<Buffer> buffers_;
  std::vector<std::uint64_t> active_words_;  ///< Bitmap: nonempty buffers.
  std::size_t active_count_ = 0;
  Metrics metrics_;

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t absorbed_ = 0;
  bool stepping_started_ = false;
  bool audit_finalized_ = false;

  std::optional<RateAudit> audit_;
  std::unique_ptr<InvariantAuditor> invariants_;

  // Scratch reused across steps.
  std::vector<PacketId> sent_;
  AdversaryStep adv_step_;
  Route splice_scratch_;        ///< Reroute splice buffer (no per-reroute alloc).
  CompiledSchedule schedule_;   ///< Current compiled block (run() only).
};

}  // namespace aqt
