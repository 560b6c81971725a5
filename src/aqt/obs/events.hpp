// Structured JSONL event stream for packet lifecycle and run milestones.
//
// JsonlEventWriter is a RunTraceSink (core/trace_sink.hpp): it reads the
// same engine records the run-trace writer does and writes one
// self-contained JSON object per line: inject -> per-hop send -> absorb for
// every packet, plus tool-issued milestones (run-begin, drain-begin,
// run-end, ...).  Edges are written by *name* so the stream is portable
// without the originating graph, and packets by creation ordinal — the same
// identities run traces use.  Unlike the run trace, this stream is a
// human/pipeline-friendly observability feed, not verifier evidence: it
// carries derived fields (hop index, residence, latency), which the writer
// keeps per live packet (injection time, sends so far, buffer arrival), and
// is not content-hashed.  Reroutes are not events: a rerouted packet's hop
// count runs on across the splice.
//
// Line grammar (one JSON object per '\n'-terminated line; key order fixed):
//
//   {"ev":"inject","t":0,"packet":0,"tag":7,"initial":true,"route":["a","b"]}
//   {"ev":"send","t":1,"packet":0,"edge":"a","hop":0,"residence":1}
//   {"ev":"absorb","t":2,"packet":0,"latency":2}
//   {"ev":"milestone","t":0,"name":"run-begin"}
//
// parse_jsonl_events is the matching reader, built on the shared JSON layer
// (util/json.hpp): malformed input is rejected with a PreconditionError
// naming the line — never a crash — so
// the stream round-trips (tests/obs) and can be consumed by untrusting
// pipelines.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "aqt/core/graph.hpp"
#include "aqt/core/trace_sink.hpp"
#include "aqt/core/types.hpp"

namespace aqt {
class Engine;
}

namespace aqt::obs {

/// One parsed event line.  Only the fields of the matching kind are
/// meaningful (e.g. `route` for kInject, `edge`/`hop`/`residence` for
/// kSend).
struct ObsEvent {
  enum class Kind : std::uint8_t { kInject, kSend, kAbsorb, kMilestone };

  Kind kind = Kind::kMilestone;
  Time t = 0;
  std::uint64_t packet = 0;  ///< Creation ordinal.
  std::uint64_t tag = 0;
  bool initial = false;
  std::vector<std::string> route;  ///< Edge names (inject).
  std::string edge;                ///< Edge name (send).
  std::uint64_t hop = 0;
  Time residence = 0;
  Time latency = 0;
  std::string name;  ///< Milestone name.
};

class JsonlEventWriter final : public RunTraceSink {
 public:
  /// Borrows the stream and the graph (for edge names); both must outlive
  /// the writer.  Attach as EngineSinks::trace.
  JsonlEventWriter(std::ostream& os, const Graph& graph);

  /// Seeds the per-packet state from an engine restored from a checkpoint,
  /// so a resumed run continues the uninterrupted run's stream.
  void resume_from(const Engine& engine);

  void record_initial(std::uint64_t ordinal, std::uint64_t tag,
                      RouteSpan route) override;
  void begin_step(Time t) override { now_ = t; }
  void record_send(EdgeId e, std::uint64_t ordinal) override;
  void record_absorb(std::uint64_t ordinal) override;
  void record_reroute(std::uint64_t, RouteSpan) override {}
  void record_inject(std::uint64_t ordinal, std::uint64_t tag,
                     RouteSpan route) override;
  void record_queue_depth(EdgeId, std::size_t) override {}

  /// Tool-issued engine milestone ("run-begin", "drain-begin", "run-end").
  void milestone(Time t, const std::string& name);

  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

 private:
  /// What the derived fields need of one live packet.
  struct Live {
    Time injected = 0;
    Time arrived = 0;  ///< Entered its current buffer.
    std::uint64_t hop = 0;  ///< Sends so far.
  };

  void inject(std::uint64_t ordinal, std::uint64_t tag, RouteSpan route,
              bool initial);

  std::ostream& os_;
  const Graph& graph_;
  Time now_ = 0;
  std::unordered_map<std::uint64_t, Live> live_;  ///< By creation ordinal.
  std::uint64_t lines_ = 0;
};

/// Forwards every record to several RunTraceSinks, in the order added (a
/// run that both hashes its trace and writes JSONL events).
class RunTraceFanout final : public RunTraceSink {
 public:
  /// Null sinks are ignored.
  RunTraceFanout& add(RunTraceSink* sink);

  /// Null when empty, the single sink when size 1, self otherwise — so
  /// callers can always assign the result to EngineSinks::trace without
  /// paying a forwarding hop for the common one-sink case.
  [[nodiscard]] RunTraceSink* as_sink();

  void record_initial(std::uint64_t ordinal, std::uint64_t tag,
                      RouteSpan route) override;
  void begin_step(Time t) override;
  void record_send(EdgeId e, std::uint64_t ordinal) override;
  void record_absorb(std::uint64_t ordinal) override;
  void record_reroute(std::uint64_t ordinal, RouteSpan new_suffix) override;
  void record_inject(std::uint64_t ordinal, std::uint64_t tag,
                     RouteSpan route) override;
  void record_queue_depth(EdgeId e, std::size_t depth) override;

 private:
  std::vector<RunTraceSink*> sinks_;
};

/// Parses a JSONL event stream.  Throws PreconditionError (with `name` and
/// the offending line number) on malformed input; never aborts.
std::vector<ObsEvent> parse_jsonl_events(std::istream& is,
                                         const std::string& name);

}  // namespace aqt::obs
