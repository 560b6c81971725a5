// Offline trace verification — the aqt-verify core.
//
// The engine's own invariant auditor (core/invariants.hpp) runs *inside*
// the process being checked; a recorded run is therefore trusted output,
// not checked evidence.  This module closes that gap: it replays a
// recorded run trace (trace/run_trace.hpp) record by record against an
// independent model — plain FIFO queues of creation ordinals over the
// trace's self-described graph — and re-derives every AQT rule from first
// principles, sharing no step logic with the engine:
//
//   * two-substep semantics   -- records appear in substep order (sends,
//                                then absorptions, then adversary actions,
//                                then depths), and a packet is never
//                                forwarded in the step it arrived;
//   * work conservation       -- every buffer nonempty at the start of a
//                                step forwards exactly one packet (§2);
//   * per-edge unit capacity  -- at most one send per edge per step;
//   * FIFO / time-priority    -- under FIFO the sent packet is the head of
//                                the independently tracked arrival queue;
//                                under any time-priority protocol
//                                (Definition 4.2) no resident that arrived
//                                before the sent packet's injection is
//                                bypassed;
//   * route contiguity        -- injected routes and rerouted suffixes are
//                                contiguous simple paths of the described
//                                graph, and every hop follows the route;
//   * (w, r) / rate-r windows -- the declared adversary constraint holds
//                                over final effective routes, checked with
//                                an independent brute-force window scan
//                                (not the engine's incremental algebra);
//   * packet conservation     -- ordinals are dense, each packet is
//                                absorbed exactly once at route completion,
//                                recorded queue depths match the model, and
//                                the footer totals balance end-to-end;
//   * content integrity       -- the streaming hash in the footer matches
//                                the bytes read.
//
// Every violation is reported with a stable code, the step number, and the
// offending packet/edge — collected, never fail-fast — in human-readable
// or JSON form, mirroring aqt-audit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aqt/core/types.hpp"
#include "aqt/trace/run_trace.hpp"

namespace aqt {

inline constexpr std::uint64_t kNoOrdinal =
    std::numeric_limits<std::uint64_t>::max();

/// One rule violation found in a trace.  `code` is a stable identifier
/// (e.g. "work-conservation", "fifo-order", "queue-depth", "trace-hash").
struct VerifyFinding {
  std::string code;
  Time step = 0;                      ///< 0 when not step-attributable.
  std::uint64_t ordinal = kNoOrdinal; ///< Offending packet, if any.
  EdgeId edge = kNoEdge;              ///< Offending edge, if any.
  std::string message;
};

/// The full verdict for one trace, plus the summary statistics the
/// stability-certificate checker (certificate.hpp) consumes.
struct VerifyReport {
  std::string file;
  std::string protocol;
  RunTraceMeta meta;
  std::vector<VerifyFinding> findings;
  bool findings_truncated = false;  ///< Collection capped (cascade guard).

  Time steps = 0;
  std::uint64_t injected = 0;  ///< Packets created (initial + injections).
  std::uint64_t absorbed = 0;
  std::uint64_t resident = 0;  ///< Still buffered at end of trace.
  std::int64_t observed_d = 0; ///< Longest final effective route.
  Time max_wait = 0;           ///< Max per-buffer waiting time observed,
                               ///< including pending waits of residents.
  std::uint64_t trace_hash = 0;  ///< Recomputed content hash.
  /// Live-packet count after each verified step (index t-1); the
  /// queue-growth witness for instability certificates.
  std::vector<std::uint64_t> occupancy;

  [[nodiscard]] bool ok() const { return findings.empty(); }
};

/// Verifies one parsed trace.  Content problems become findings, never
/// exceptions.
VerifyReport verify_run_trace(const RunTrace& trace, std::string label);

/// Parses and verifies a file; parse and I/O errors become a single
/// "parse-error" finding so callers get a uniform report.
VerifyReport verify_file(const std::string& path);

/// Protocol classification tables the verifier derives its checks from —
/// intentionally independent of core/protocol.hpp's virtual methods.
/// Unknown names return false (and the verifier reports protocol-unknown).
[[nodiscard]] bool verify_protocol_known(const std::string& name);
[[nodiscard]] bool verify_protocol_fifo(const std::string& name);
[[nodiscard]] bool verify_protocol_time_priority(const std::string& name);
[[nodiscard]] bool verify_protocol_historic(const std::string& name);

/// Renders a batch of reports.
std::string to_human(const std::vector<VerifyReport>& reports);
std::string to_json(const std::vector<VerifyReport>& reports);

}  // namespace aqt
