// Structured JSONL event stream for packet lifecycle and run milestones.
//
// JsonlEventWriter implements the PacketEventSink interface of
// core/obs_sink.hpp (the same borrowed-sink pattern as trace_sink.hpp) and
// writes one self-contained JSON object per line: inject -> per-hop send ->
// absorb for every packet, plus tool-issued milestones (run-begin,
// drain-begin, run-end, ...).  Edges are written by *name* so the stream is
// portable without the originating graph, and packets by creation ordinal —
// the same identities run traces use.  Unlike the run trace, this stream is
// a human/pipeline-friendly observability feed, not verifier evidence: it
// carries derived fields (hop index, residence, latency) and is not
// content-hashed.
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
#include <vector>

#include "aqt/core/graph.hpp"
#include "aqt/core/obs_sink.hpp"
#include "aqt/core/types.hpp"

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

class JsonlEventWriter final : public PacketEventSink {
 public:
  /// Borrows the stream and the graph (for edge names); both must outlive
  /// the writer.
  JsonlEventWriter(std::ostream& os, const Graph& graph);

  void on_inject(Time t, std::uint64_t ordinal, std::uint64_t tag,
                 RouteSpan route, bool initial) override;
  void on_send(Time t, EdgeId e, std::uint64_t ordinal, std::size_t hop,
               Time residence) override;
  void on_absorb(Time t, std::uint64_t ordinal, Time latency) override;

  /// Tool-issued engine milestone ("run-begin", "drain-begin", "run-end").
  void milestone(Time t, const std::string& name);

  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

 private:
  std::ostream& os_;
  const Graph& graph_;
  std::uint64_t lines_ = 0;
};

/// Parses a JSONL event stream.  Throws PreconditionError (with `name` and
/// the offending line number) on malformed input; never aborts.
std::vector<ObsEvent> parse_jsonl_events(std::istream& is,
                                         const std::string& name);

}  // namespace aqt::obs
