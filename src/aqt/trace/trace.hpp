// Adversary traces: record, persist, and replay injection schedules.
//
// A trace captures everything an adversary did — timed injections and
// reroutes — in a protocol-independent form.  Packets are identified by
// their *creation ordinal* (the n-th packet ever injected), not by
// PacketId, because slot reuse makes ids depend on absorption order and
// hence on the protocol.  Edges are persisted by name so saved traces
// survive graph rebuilds.
//
// Replaying a trace against a different protocol answers the question the
// E10 experiment poses: "what does this exact injection sequence do to
// LIS/LIFO/...?"  A reroute whose target packet has already been absorbed
// under the new protocol is skipped (counted), since rerouting the departed
// is meaningless.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "aqt/core/adversary.hpp"
#include "aqt/core/graph.hpp"
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

  /// Serializes as a line-oriented text format:
  ///   I <t> <tag> <edge> [<edge> ...]
  ///   R <t> <ordinal> [<edge> ...]
  /// Edge ids are written as edge names (graph-portable).
  void save(std::ostream& os, const Graph& graph) const;
  void save_file(const std::string& path, const Graph& graph) const;

  /// Parses the text format back; edge names are resolved against `graph`.
  /// Hardened for untrusted input: malformed or truncated lines, unknown
  /// edges, negative times, and time regressions all throw
  /// PreconditionError with the offending line number (never abort).
  static Trace load(std::istream& is, const Graph& graph);
  static Trace load_file(const std::string& path, const Graph& graph);

 private:
  std::vector<TraceEvent> events_;
  std::uint64_t injections_ = 0;
  Time last_time_ = 0;
};

/// Wraps another adversary and records everything it emits.
class RecordingAdversary final : public Adversary {
 public:
  /// Both the inner adversary and the trace are borrowed.
  RecordingAdversary(Adversary& inner, Trace& out);

  void step(Time now, const Engine& engine, AdversaryStep& out) override;
  [[nodiscard]] bool finished(Time now) const override;

 private:
  Adversary& inner_;
  Trace& trace_;
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
