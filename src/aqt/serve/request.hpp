// The wire-level job API: a versioned, declarative RunRequest.
//
// RunSpec (runner/run_spec.hpp) is closure-based — topology recipes and
// adversary factories are std::function values — which is exactly right
// for in-process callers and exactly wrong for a service boundary: a
// closure cannot be validated, versioned, stored, or replayed from disk.
// RunRequest is the declarative twin: topologies are named recipes or
// grammar specs, adversaries are (kind, parameters) records, artifact
// selections are names — all data.  registry.hpp compiles a RunRequest
// into a RunSpec; the compilation is pure, so the same request compiled by
// aqt-serve and by `aqt-sim --batch` yields byte-identical runs.
//
// Wire shape (JSON, one object; schemas/run_request.schema.json pins it):
//
//   {
//     "aqt_run_request": 1,
//     "id": "job-7",                               // optional
//     "topology": "ring:8",                        // grammar spec or named recipe
//     "protocol": "FIFO",
//     "adversary": {"kind": "stochastic", "w": 8, "r": "9/10", "d": 4},
//                  // or {"kind": "scripted", "events": [
//                  //   {"t": 1, "route": ["r0", "r1"], "tag": 7},
//                  //   {"t": 3, "packet": 0, "suffix": ["r5"]}]}
//     "seed": 1,
//     "steps": 20000,
//     "stop_when_finished": true,                  // optional, default true
//     "drain": false,                              // optional
//     "drain_cap": 4096,                           // optional
//     "audit": {"w": 8, "r": "9/10"},              // optional; or {"r": ...},
//                                                  // or {"burst": 2, "r": ...}
//     "artifacts": ["trace_hash"],                 // optional
//     "deadline_ms": 60000,                        // optional, serve-only
//     "resume_from": "/path/job.ckpt"              // optional
//   }
//
// Unknown top-level or adversary keys are rejected (SRV005), so typos fail
// loudly instead of silently running a default.
//
// A scripted adversary lists explicit events (Definition 2.1 injection
// patterns, Lemma 3.3 reroutes) with edges by name, in non-decreasing t;
// a reroute's "packet" is the 0-based index of its target among the
// request's injections, which is the packet's creation ordinal.  Its
// declared constraint is "audit", as for every other kind.  The parser
// checks the events' shape (SRV004); Registry::compile checks them against
// the graph and the audit before step 1 (SRV009).
//
// Every rejection carries a stable machine-readable code (RequestError::
// code, the SRVxxx table below); messages are for humans, codes are the
// contract.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "aqt/core/types.hpp"
#include "aqt/util/json.hpp"
#include "aqt/util/rational.hpp"

namespace aqt {
namespace serve {

inline constexpr int kRunRequestVersion = 1;

/// Stable machine-readable error codes for the job API.  Codes are
/// append-only: meanings never change, retired codes are never reused.
namespace errc {
inline constexpr const char* kBadJson = "SRV001";     ///< Unparseable JSON.
inline constexpr const char* kBadVersion = "SRV002";  ///< aqt_run_request missing/unsupported.
inline constexpr const char* kMissingField = "SRV003";
inline constexpr const char* kBadField = "SRV004";  ///< Wrong type or out-of-range value.
inline constexpr const char* kUnknownField = "SRV005";
inline constexpr const char* kUnknownTopology = "SRV006";
inline constexpr const char* kUnknownProtocol = "SRV007";
inline constexpr const char* kUnknownAdversary = "SRV008";
inline constexpr const char* kBadParam = "SRV009";  ///< Parameters inconsistent with the kind/topology.
inline constexpr const char* kQueueFull = "SRV010";  ///< Intake overloaded; resubmit later.
inline constexpr const char* kDeadline = "SRV011";   ///< Job exceeded its deadline.
inline constexpr const char* kCancelled = "SRV012";  ///< Client cancellation.
inline constexpr const char* kDraining = "SRV013";   ///< Server is shutting down.
inline constexpr const char* kRunFailed = "SRV014";  ///< The cell itself errored.
inline constexpr const char* kBadOp = "SRV015";      ///< Malformed protocol envelope.
inline constexpr const char* kUnknownJob = "SRV016";
}  // namespace errc

/// A rejected request/operation: `code` is one of the errc constants.
class RequestError : public std::runtime_error {
 public:
  RequestError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  [[nodiscard]] const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// One scripted event, edges still by name.  An injection has a route and
/// a tag; a reroute a target packet and a new suffix.
struct ScriptEvent {
  Time t = 0;
  bool reroute = false;
  std::vector<std::string> edges;  ///< Route, or the reroute's suffix.
  std::uint64_t tag = 0;           ///< Injection tag.
  std::uint64_t packet = 0;        ///< Reroute target: injection index.
};

/// Adversary selection as data.  Which fields are meaningful depends on
/// `kind`; parse_run_request fills defaults and rejects junk per kind.
struct AdversarySpec {
  std::string kind = "stochastic";  ///< none stochastic hotspot convoy bucket lps scripted
  std::int64_t w = 12;              ///< Window (stochastic/hotspot/convoy).
  Rat r = Rat(1, 4);                ///< Injection rate (all but none).
  std::int64_t d = 4;               ///< Max route length.
  std::int64_t burst = 2;           ///< Token-bucket burst (bucket).
  std::int64_t iterations = 3;      ///< Outer iterations (lps).
  std::int64_t s_star = 1200;       ///< Initial flat queue (lps).
  std::vector<ScriptEvent> events;  ///< The script (scripted).
};

/// The declarative job.  Everything is a value; defaults match aqt-sim's.
struct RunRequest {
  int version = kRunRequestVersion;
  std::string id;  ///< Client-chosen display identity (optional).

  std::string topology = "grid:4x4";  ///< Named recipe or grammar spec.
  std::string protocol = "FIFO";
  AdversarySpec adversary;
  std::uint64_t seed = 1;
  Time steps = 10000;

  bool stop_when_finished = true;
  bool drain = false;
  Time drain_cap = 4096;

  std::optional<std::int64_t> audit_w;      ///< (w, r) window audit.
  std::optional<std::int64_t> audit_burst;  ///< (b, r) bucket audit.
  std::optional<Rat> audit_r;

  bool art_metrics = false;
  bool art_trace_hash = true;  ///< Default on: the cheap determinism proof.
  bool art_growth = false;

  std::uint64_t deadline_ms = 0;  ///< 0 = no deadline (serve-side knob).
  std::string resume_from;        ///< Job-checkpoint path to continue.
};

/// Parses and validates one request document.  Throws RequestError with
/// codes SRV001..SRV005 (registry.cpp owns SRV006..SRV009, which need the
/// name tables).
RunRequest parse_run_request(const std::string& text,
                             const std::string& where);
RunRequest parse_run_request(const JsonValue& doc, const std::string& where);

/// Sets `req`'s audit to the constraint its adversary is built to obey:
/// the (w, r) window for stochastic, hotspot and convoy, the (b, r) bucket
/// for bucket, rate r for lps.  `none` and `scripted` declare none of their
/// own and stay as they are.
void audit_adversary_constraint(RunRequest& req);

/// The canonical JSON form: every field materialized (defaults included),
/// fixed key order, write_json bytes.  parse(canonical(x)) == x and
/// canonical(parse(canonical(x))) == canonical(x) — the round-trip anchor
/// the serve/offline byte-identity tests pin.
JsonValue run_request_to_json(const RunRequest& req);
std::string canonical_request_json(const RunRequest& req);

}  // namespace serve
}  // namespace aqt
