// Determinism static analysis — the aqt-audit core.
//
// The runner's byte-identical-for-any---jobs contract and the trace-hash
// evidence chain are enforced *dynamically* (aqt-verify --replay-twice,
// the fuzz observer-effect phase, the TSan CI job).  Dynamic enforcement
// only catches the hazards a test happens to execute: a single unseeded
// RNG, wall-clock read, or unordered-container iteration feeding an
// output path breaks replayability silently until some seed trips it.
// This module encodes the project's determinism rules as *source-level*
// token checks over the repo's own files:
//
//   AUD001  banned nondeterminism APIs (rand, std::random_device,
//           time()/clock(), std::chrono::system_clock, argless std engine
//           seeds) outside the allowlisted seed-plumbing set (util/rng);
//   AUD002  iteration over unordered_map/unordered_set — unspecified
//           order feeding a trace, metric export, or result path;
//   AUD003  mutable globals / non-const static locals in engine, runner,
//           and obs code (shared-state the TSan job cannot prove safe,
//           and cross-run leakage that breaks replay);
//   AUD004  pointer-keyed ordered containers (std::map<T*, ...>,
//           std::set<T*>) — address-dependent iteration order;
//   AUD005  float accumulation in cross-worker merge paths without a
//           fixed reduction order;
//   AUD006  layering violations: an #include of an aqt module the
//           including layer must not depend on (core must never include
//           runner/obs/tools);
//   AUD007  malformed audit directives (the justification comment
//           grammar below is itself checked), and allow() clauses that
//           suppress nothing (unused suppressions rot).
//
// Every rule is per-file, so files audit independently and a parallel
// driver's output depends only on the set of files.  Data races and lock
// order are TSan's (the CI tsan leg); layering below the include level —
// a forward-declared call into a layer the caller must not reach — fails
// the whole-archive link check in tests/CMakeLists.txt.
//
// Justified exceptions are line comments of the form
//
//   <marker> allow(AUD002) -- order-insensitive max reduction
//
// where <marker> is the literal string "aqt-audit" followed by ':'
// (spelled out here so this header does not direct the analyzer at
// itself).  An allow clause suppresses that rule on the same line (or,
// for a comment-only line, the next line).  A comment containing the
// marker but neither an allow nor a context clause is treated as prose
// and ignored.  File classification (which rules apply) is derived from
// the repo path and can be overridden for corpus snippets:
//
//   <marker> context(core)     classify as the core layer
//   <marker> context(merge)    mark as a cross-worker merge path
//
// All findings are collected (never fail-fast) and rendered as text or
// JSON, mirroring aqt-lint/aqt-verify.
#pragma once

#include <string>
#include <vector>

namespace aqt::audit {

/// One rule of the pack, for docs, metrics, and the corpus meta-test.
struct RuleInfo {
  const char* id;
  const char* summary;
};

/// The full rule pack, in id order.  The single source of truth: tests
/// assert corpus coverage against this table.
const std::vector<RuleInfo>& rule_pack();

/// One problem found in a file.  `rule` is a stable AUDNNN id.
struct AuditFinding {
  std::string rule;
  int line = 0;
  std::string message;
};

/// The verdict for one file.
struct AuditReport {
  std::string file;
  std::vector<AuditFinding> findings;

  [[nodiscard]] bool ok() const { return findings.empty(); }
};

/// Which rules apply to a file.  Derived from the path by classify_path;
/// `context(...)` directives inside the file override it.
struct FileContext {
  std::string layer = "top";   ///< aqt module dir, or "top" (tools/tests).
  bool state_sensitive = false;  ///< AUD003 applies (core/runner/obs).
  bool merge_path = false;       ///< AUD005 applies (pool/registry merges).
  bool seed_plumbing = false;    ///< AUD001 exempt (util/rng only).
};

/// Classifies a repo-relative or absolute path.
FileContext classify_path(const std::string& path);

/// Audits source text under the path-derived (or directive-overridden)
/// context: every rule, allow() suppressions, and unused allows as
/// AUD007.  Findings come sorted by line, then rule.  Content problems
/// become findings, never exceptions.
AuditReport audit_source(std::string file, const std::string& text);

/// Reads and audits a file; I/O errors throw PreconditionError (the tool
/// reports them as a hard error — an unreadable source is not "clean").
AuditReport audit_file(const std::string& path);

/// True when `path` names an auditable source: .cpp/.hpp/.cc/.h/.cxx and
/// not inside a corpus/ directory (corpus files are deliberately dirty).
bool auditable_source_path(const std::string& path);

/// Expands files/directories into the sorted, deduplicated list of
/// auditable sources beneath them, skipping corpus/, .git/, out/ and
/// build*/ directories.  Sorted so report order never depends on
/// filesystem enumeration order.  Shared by the CLI tool and the
/// selfhost perf bench; nonexistent roots throw PreconditionError.
std::vector<std::string> collect_audit_files(
    const std::vector<std::string>& roots);

// --- Rendering -------------------------------------------------------------

std::string to_human(const std::vector<AuditReport>& reports);

/// JSON rendering: {"tool":"aqt-audit","ok":...,"reports":[{"file",
/// "ok","findings":[{"rule","line","message"}]}]}.
std::string to_json(const std::vector<AuditReport>& reports);

}  // namespace aqt::audit
