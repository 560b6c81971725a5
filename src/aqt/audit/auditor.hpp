// Determinism & concurrency static analysis — the aqt-audit core.
//
// The runner's byte-identical-for-any---jobs contract and the trace-hash
// evidence chain are enforced *dynamically* (aqt-verify --replay-twice,
// the fuzz observer-effect phase, the TSan CI job).  Dynamic enforcement
// only catches the hazards a test happens to execute: a single unseeded
// RNG, wall-clock read, or unordered-container iteration feeding an
// output path breaks replayability silently until some seed trips it.
// This module encodes the project's determinism and concurrency rules as
// *source-level* checks over the repo's own files, in the spirit of the
// paper's program of replacing empirical confidence with checkable
// certificates:
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
//           suppress nothing (unused suppressions rot);
//   AUD008  shared mutable state written inside a worker/thread lambda
//           with an empty lockset (the Eraser-style race pass, built on
//           the symbol/flow layer in symbols.hpp/flow.hpp);
//   AUD009  lock-order inconsistency: two mutexes acquired in both
//           orders anywhere in the cross-TU call graph;
//   AUD010  by-reference or pointer capture escaping into a deferred
//           callable (std::thread, pool submission, stored
//           std::function) — a lifetime hazard even when synchronized;
//   AUD011  call-graph layering: a function whose transitive callees
//           reach a layer the calling file must not depend on
//           (supersedes AUD006's include-only view, which remains as
//           the fast pre-check);
//   AUD012  container mutation while an iterator/range-for over the
//           same container is live (iterator invalidation).
//
// AUD001–AUD008, AUD010, and AUD012 are per-file; AUD009 and AUD011
// need every file's symbols at once, so the project entry points below
// (audit_unit + finalize_project) split the work into a parallel
// per-file phase and a serial cross-TU phase — the tool stays
// byte-identical for any --jobs.
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
// JSON, mirroring aqt-lint/aqt-verify; a checked-in baseline file can
// grandfather pre-existing findings so the gate stays "no *new* hazards".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace aqt::audit {

/// One rule of the pack, for docs, --list-rules, and the corpus meta-test.
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
  /// FNV-1a of the trimmed source line — the baseline key, so baselines
  /// survive unrelated line-number drift within the file.
  std::uint64_t line_hash = 0;
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
/// context.  Content problems become findings, never exceptions.
/// Equivalent to a single-file project: finalize_project({unit}).
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

// --- Project (cross-TU) audit ----------------------------------------------

struct FileSemantics;  // Internal per-file payload (auditor.cpp).

/// One file's scanned, symbol-resolved, per-file-rule-checked state.
/// Units are independent — computing them is the parallel phase.
struct AuditUnit {
  std::string file;
  std::shared_ptr<FileSemantics> sem;
};

/// Runs the per-file phase: lexing, symbols, lock flow, call extraction,
/// rules AUD001–AUD008, AUD010, AUD012, and directive parsing.
AuditUnit audit_unit(std::string file, const std::string& text);

/// audit_unit over a file's contents; I/O errors throw PreconditionError.
AuditUnit audit_unit_file(const std::string& path);

/// The serial cross-TU phase: merges every unit's call slice into one
/// call graph, runs AUD009 (lock order) and AUD011 (call-graph
/// layering), applies allow() suppressions, reports unused allows as
/// AUD007, and returns one sorted report per unit (sorted by file).
/// Deterministic: output depends only on the set of units, not on the
/// order they were computed in.
std::vector<AuditReport> finalize_project(std::vector<AuditUnit> units);

// --- Baseline (grandfathered findings) -------------------------------------

/// One grandfathered finding: rule + file + trimmed-line content hash.
struct BaselineEntry {
  std::string rule;
  std::string file;
  std::uint64_t line_hash = 0;
};

/// Parses the baseline format (one `RULE<TAB>file<TAB>hex-hash` per line,
/// '#' comments).  Hardened: malformed input throws PreconditionError
/// naming the line, never crashes.
std::vector<BaselineEntry> parse_baseline(std::istream& is,
                                          const std::string& name);
std::vector<BaselineEntry> load_baseline_file(const std::string& path);

/// Serializes every finding of `reports` as a baseline file.
std::string to_baseline(const std::vector<AuditReport>& reports);

struct BaselineApplied {
  std::size_t suppressed = 0;  ///< Findings removed by baseline matches.
  std::vector<BaselineEntry> stale;  ///< Entries that matched nothing.
};

/// Removes baselined findings (multiset semantics: one entry absolves one
/// finding).  Returns what was used and what is stale so the baseline can
/// only ever shrink.
BaselineApplied apply_baseline(std::vector<AuditReport>& reports,
                               const std::vector<BaselineEntry>& baseline);

// --- Rendering -------------------------------------------------------------

std::string to_human(const std::vector<AuditReport>& reports);

/// JSON rendering.  `stale` lists baseline entries that matched nothing
/// (a distinct top-level field so CI can gate on them without scraping
/// stderr); pass {} when no baseline was applied.
std::string to_json(const std::vector<AuditReport>& reports,
                    const std::vector<BaselineEntry>& stale = {});

/// Re-parses to_json output through the shared JSON reader
/// (util/json.hpp), accepting exactly to_json's layout: PreconditionError
/// (never a crash) on any malformation.  Exists so CI pipelines — and the
/// round-trip meta-test — can consume audit reports without trusting
/// them.  When `stale_out` is non-null it receives the "stale" field.
std::vector<AuditReport> parse_audit_json(
    const std::string& text, const std::string& name,
    std::vector<BaselineEntry>* stale_out = nullptr);

/// FNV-1a 64 of the trimmed text — exposed for baseline tooling/tests.
std::uint64_t line_content_hash(const std::string& line);

}  // namespace aqt::audit
