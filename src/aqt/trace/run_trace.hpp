// Versioned, self-describing run traces — the evidence format aqt-verify
// checks.
//
// Unlike the adversary Trace (trace.hpp), which holds only the adversary's
// schedule, a run trace records everything the engine *did*: the initial
// configuration, every per-edge transmission, every absorption, every
// applied reroute and injection, and the end-of-step depth of every
// nonempty buffer.  The header carries everything needed to
// interpret the records without the originating process — format version,
// protocol name, RNG seed, scenario digest, declared (w, r) / rate-r
// constraints, and the full node/edge tables of the network — so a
// verifier can rebuild the graph and re-derive every model rule from first
// principles, sharing no step logic with the engine.
//
// Every line feeds a streaming FNV-1a content hash; the footer records it.
// Two runs from the same seed must produce byte-identical traces (the
// determinism check of aqt-sim --replay-twice), and any post-hoc tampering
// breaks the hash.
//
// Records are formatted with std::to_chars into one reusable buffer, which
// is hashed and, when the writer has an ostream, written out in one call.
// A writer built without an ostream is hash-only: it produces the same
// content hash from the same line bytes and writes nothing.  Runs that keep
// only the hash (RunArtifacts::trace_hash, the aqt-sim --replay-twice runs
// that write no file) use that mode.
//
// Line grammar (text, '\n'-terminated, '#' comments are not allowed — the
// stream is evidence, not a document):
//
//   aqt-run-trace <version>
//   protocol <NAME>
//   seed <n>
//   digest <hex|->              scenario-file digest ('-' when none)
//   window <w> <r>              optional declared (w, r) constraint
//   rate <r>                    optional declared rate-r constraint
//   nodes <count>
//   node <id> <name>            (count times, dense ids in order)
//   edges <count>
//   edge <id> <name> <tail> <head>
//   begin
//   P <ordinal> <tag> <e>...    initial packet (time 0) with route
//   T <t>                       step header, t = 1, 2, ... consecutive
//   S <e> <ordinal>             substep-1 send over edge e
//   A <ordinal>                 absorption (route completed this step)
//   R <ordinal> [<e>...]        applied reroute (new suffix; may be empty)
//   J <ordinal> <tag> <e>...    applied injection with route
//   Q <e> <depth>               end-of-step nonempty-buffer depth
//   end <steps> <injected> <absorbed>
//   hash <16 hex digits>
//
// The parser is hardened: malformed, truncated, or out-of-range input is
// rejected with a PreconditionError naming the line — never an
// AQT_CHECK abort — so untrusted trace files cannot take the process down.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "aqt/core/graph.hpp"
#include "aqt/core/trace_sink.hpp"
#include "aqt/core/types.hpp"
#include "aqt/util/hash.hpp"
#include "aqt/util/rational.hpp"

namespace aqt {

inline constexpr int kRunTraceVersion = 1;

/// Run-level context recorded in the trace header.
struct RunTraceMeta {
  std::string protocol = "FIFO";
  std::uint64_t seed = 0;
  /// Hex digest of the scenario file driving the run; empty when none.
  std::string scenario_digest;
  std::optional<std::int64_t> window_w;  ///< Declared (w, r) constraint.
  std::optional<Rat> window_r;
  std::optional<Rat> rate_r;  ///< Declared rate-r constraint.
};

/// Mid-stream continuation state for RunTraceWriter: everything a resumed
/// run segment needs to keep emitting the byte stream (and the streaming
/// hash) exactly as if the run had never been interrupted.  Captured at a
/// step boundary, after the interrupted segment's last Q record.
struct TraceResumeState {
  std::uint64_t hash_state = 0;  ///< Fnv1a::value() at the cut point.
  Time last_step = 0;            ///< Last fully recorded step.
};

/// Streams the evidence format to an ostream, hashing every line, or only
/// hashes it (the constructors without an ostream).  Plug into
/// EngineConfig::sinks.trace; call finish() once after the run.
class RunTraceWriter final : public RunTraceSink {
 public:
  /// Writes the header (including the graph tables) immediately.
  RunTraceWriter(std::ostream& os, const Graph& graph,
                 const RunTraceMeta& meta);
  /// Hash-only: the same content hash as the ostream writer, no bytes out.
  RunTraceWriter(const Graph& graph, const RunTraceMeta& meta);

  /// Continuation writer for a resumed run segment: emits no header and no
  /// initial-packet records (the interrupted segment already did), seeds
  /// the streaming hash from `state`, and accepts step records from
  /// state.last_step + 1 on.  finish() then closes the *logical* run, so
  /// content_hash() equals the uninterrupted run's hash byte for byte.
  RunTraceWriter(std::ostream& os, const TraceResumeState& state);
  /// Hash-only continuation writer.
  explicit RunTraceWriter(const TraceResumeState& state);

  /// The continuation state at the current step boundary (see
  /// TraceResumeState).  Meaningless mid-step; callers cut only between
  /// engine steps.
  [[nodiscard]] TraceResumeState resume_state() const {
    return TraceResumeState{hash_.value(), last_step_};
  }

  void record_initial(std::uint64_t ordinal, std::uint64_t tag,
                      RouteSpan route) override;
  void begin_step(Time t) override;
  void record_send(EdgeId e, std::uint64_t ordinal) override;
  void record_absorb(std::uint64_t ordinal) override;
  void record_reroute(std::uint64_t ordinal, RouteSpan new_suffix) override;
  void record_inject(std::uint64_t ordinal, std::uint64_t tag,
                     RouteSpan route) override;
  void record_queue_depth(EdgeId e, std::size_t depth) override;

  /// Writes the footer (totals + content hash).  Call exactly once.
  void finish(std::uint64_t injected, std::uint64_t absorbed);

  /// Hash of everything emitted so far (the footer records this value).
  [[nodiscard]] std::uint64_t content_hash() const { return hash_.value(); }
  [[nodiscard]] bool finished() const { return finished_; }

 private:
  RunTraceWriter(std::ostream* os, const Graph& graph,
                 const RunTraceMeta& meta);
  RunTraceWriter(std::ostream* os, const TraceResumeState& state);

  /// A buffer of at least `bytes` chars for the next line.
  char* line_buffer(std::size_t bytes);
  /// Hashes (and writes, with an ostream) the line line_buffer() returned,
  /// ending at `end`, which must leave room for the '\n' emit() appends.
  void emit(char* end);
  /// Cold path (header and footer).
  void line(std::string_view text);

  std::ostream* os_;  ///< Null for a hash-only writer.
  std::vector<char> buf_;
  Fnv1a hash_;
  Time last_step_ = 0;
  bool begun_ = false;
  bool finished_ = false;
};

/// One parsed record (everything after the `begin` line).
struct RunRecord {
  enum class Kind : std::uint8_t {
    kInitial,  ///< P — ordinal, tag, edges (route)
    kStep,     ///< T — t
    kSend,     ///< S — edge, ordinal
    kAbsorb,   ///< A — ordinal
    kReroute,  ///< R — ordinal, edges (new suffix, possibly empty)
    kInject,   ///< J — ordinal, tag, edges (route)
    kQueue,    ///< Q — edge, depth
  };
  Kind kind = Kind::kStep;
  Time t = 0;
  EdgeId edge = kNoEdge;
  std::uint64_t ordinal = 0;
  std::uint64_t tag = 0;
  std::uint64_t depth = 0;
  Route edges;
};

/// A fully parsed run trace: header, self-described network, records, and
/// footer.  Structurally valid (ids in range, counts consistent, footer
/// present); *semantic* validity is the verifier's job.
struct RunTrace {
  int version = kRunTraceVersion;
  RunTraceMeta meta;

  struct EdgeDesc {
    std::string name;
    NodeId tail = kNoNode;
    NodeId head = kNoNode;
  };
  std::vector<std::string> node_names;
  std::vector<EdgeDesc> edges;

  std::vector<RunRecord> records;

  Time steps = 0;  ///< Footer: last step number.
  std::uint64_t injected = 0;
  std::uint64_t absorbed = 0;
  std::uint64_t declared_hash = 0;  ///< Footer hash line.
  std::uint64_t computed_hash = 0;  ///< Recomputed over the parsed bytes.
};

/// Parses the format.  Throws PreconditionError (with the offending line
/// number) on malformed, truncated, or out-of-range input; never aborts.
/// A declared-vs-computed hash mismatch is NOT an error here — the
/// verifier reports it as a finding so tampering is diagnosed, not hidden
/// behind a parse failure.
RunTrace parse_run_trace(std::istream& is, const std::string& name);
RunTrace parse_run_trace_file(const std::string& path);

/// Feeds the records of a parsed trace to `sink` in recorded order, as the
/// engine emitted them: a ScheduleRecorder (trace.hpp) rebuilds the
/// adversary schedule from the J and R records, a JSONL event writer the
/// run's packet events.
void replay_records(const RunTrace& trace, RunTraceSink& sink);

/// FNV-1a digest of a whole stream/file, as 16 lowercase hex digits; used
/// for the scenario digest recorded in trace headers.
std::string fnv1a_hex(std::istream& is);
std::string file_digest_hex(const std::string& path);

}  // namespace aqt
