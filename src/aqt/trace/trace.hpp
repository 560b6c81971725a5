// Adversary schedules: record and replay injection/reroute sequences.
//
// A Trace captures everything an adversary did — timed injections and
// reroutes — in a protocol-independent form.  Packets are identified by
// their *creation ordinal* (the n-th packet ever injected), not by
// PacketId, because slot reuse makes ids depend on absorption order and
// hence on the protocol.  ScheduleRecorder fills one from the engine's
// record stream (the J and R records of a run trace); scripted requests
// (serve/registry.cpp) and Observation 4.4's rescheduling build one
// directly.  A schedule persists
// as a run trace (run_trace.hpp), whose J and R records rebuild it.
//
// Replaying a trace against a different protocol answers the question the
// E10 experiment poses: "what does this exact injection sequence do to
// LIS/LIFO/...?"  A reroute whose target packet has already been absorbed
// under the new protocol is skipped (counted), since rerouting the departed
// is meaningless.
#pragma once

#include <cstdint>
#include <vector>

#include "aqt/core/adversary.hpp"
#include "aqt/core/trace_sink.hpp"
#include "aqt/core/types.hpp"

namespace aqt {

/// One recorded adversary action.
struct TraceEvent {
  enum class Kind : std::uint8_t { kInjection, kReroute };
  Kind kind = Kind::kInjection;
  Time t = 0;
  std::uint64_t tag = 0;       ///< Injection tag.
  std::uint64_t ordinal = 0;   ///< Reroute target (creation ordinal).
  Route edges;                 ///< Route (injection) or new suffix (reroute).
};

/// An in-memory adversary trace, ordered by time then recording order.
class Trace {
 public:
  void record_injection(Time t, const Injection& injection);
  void record_reroute(Time t, std::uint64_t target_ordinal,
                      const Route& new_suffix);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] Time last_time() const { return last_time_; }

  /// Number of injection events.
  [[nodiscard]] std::uint64_t injection_count() const { return injections_; }

 private:
  std::vector<TraceEvent> events_;
  std::uint64_t injections_ = 0;
  Time last_time_ = 0;
};

/// Records the schedule the engine applies — every injection and reroute,
/// at the step it happened — into a Trace.  Attach as EngineSinks::trace
/// (beside a run-trace writer through obs::RunTraceFanout); the initial
/// configuration, sends, absorptions and queue depths are not part of a
/// schedule.
class ScheduleRecorder final : public RunTraceSink {
 public:
  /// Borrows `out`, which must outlive the recorder.
  explicit ScheduleRecorder(Trace& out) : trace_(out) {}

  void record_initial(std::uint64_t, std::uint64_t, RouteSpan) override {}
  void begin_step(Time t) override { now_ = t; }
  void record_send(EdgeId, std::uint64_t) override {}
  void record_absorb(std::uint64_t) override {}
  void record_reroute(std::uint64_t ordinal, RouteSpan new_suffix) override;
  void record_inject(std::uint64_t ordinal, std::uint64_t tag,
                     RouteSpan route) override;
  void record_queue_depth(EdgeId, std::size_t) override {}

 private:
  Trace& trace_;
  Time now_ = 0;
};

/// Replays a trace verbatim (injections) and best-effort (reroutes: targets
/// that no longer exist under the current protocol are skipped).
class ReplayAdversary final : public Adversary {
 public:
  explicit ReplayAdversary(const Trace& trace);

  void step(Time now, const Engine& engine, AdversaryStep& out) override;
  [[nodiscard]] bool finished(Time now) const override;

  /// Reroutes dropped because their target was already absorbed or the
  /// suffix did not splice onto its position.
  [[nodiscard]] std::uint64_t skipped_reroutes() const { return skipped_; }
  /// The first dropped reroute; null while none was dropped.
  [[nodiscard]] const TraceEvent* first_skipped() const {
    return skipped_ == 0 ? nullptr : &trace_.events()[first_skipped_];
  }

 private:
  const Trace& trace_;
  std::size_t next_ = 0;
  std::uint64_t skipped_ = 0;
  std::size_t first_skipped_ = 0;
};

}  // namespace aqt
