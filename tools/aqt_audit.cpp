// aqt-audit: determinism & concurrency static analysis of the AQT
// sources themselves.
//
// Tokenizes every given C++ file (directories are walked recursively) and
// enforces the project's replayability rule pack (AUD001..AUD012, see
// src/aqt/audit/auditor.hpp): banned nondeterminism APIs, unordered
// iteration on output paths, mutable statics in engine/runner/obs code,
// pointer-keyed ordered containers, unordered float merges, layering
// violations (include-level and call-graph), malformed or unused
// justification comments, lockset-empty shared writes in worker lambdas,
// lock-order inconsistencies, escaping by-reference captures, and
// container mutation during iteration.
//
// The per-file phase (lexing, symbols, lock flow, local rules) runs in
// parallel on the run-pool; the cross-TU phase (call-graph rules AUD009
// and AUD011) is a serial merge over the sorted units, so the output is
// byte-identical for any --jobs.
//
//   aqt-audit src tools tests                  # human-readable report
//   aqt-audit --format=json src                # machine-readable report
//   aqt-audit --baseline=tests/audit/baseline.txt src tools tests
//   aqt-audit --update-baseline=true --baseline=... src tools tests
//   aqt-audit --prune-baseline=true --baseline=... src tools tests
//   aqt-audit --compile-commands=build/compile_commands.json
//
// Directories named 'corpus' are skipped (tests/audit/corpus holds
// deliberately-bad snippets); name such files explicitly to audit them.
// Exit codes: 0 = no unbaselined finding, 1 = findings (or, under
// --fail-on-stale, stale baseline entries), 2 = usage error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "aqt/audit/auditor.hpp"
#include "aqt/obs/export.hpp"
#include "aqt/obs/registry.hpp"
#include "aqt/runner/pool.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/cli.hpp"
#include "aqt/util/hash.hpp"
#include "aqt/util/json.hpp"

namespace {

/// Pulls the "file" entries out of a CMake compile_commands.json (emitted
/// under CMAKE_EXPORT_COMPILE_COMMANDS) and filters/sorts them like a
/// directory walk — the audited set is then exactly the set of TUs the
/// build compiles.
std::vector<std::string> files_from_compile_commands(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AQT_REQUIRE(in.good(), "cannot open compile commands: " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const aqt::JsonValue doc = aqt::parse_json(buf.str(), path);
  AQT_REQUIRE(doc.is_array(),
              "malformed compile commands " << path << ": not an array");
  std::vector<std::string> files;
  for (const aqt::JsonValue& entry : doc.items()) {
    const aqt::JsonValue* file = entry.find("file");
    AQT_REQUIRE(file != nullptr && file->is_string(),
                "malformed compile commands " << path
                                              << ": entry without \"file\"");
    const std::filesystem::path p(file->as_string());
    if (aqt::audit::auditable_source_path(p.generic_string()))
      files.push_back(p.generic_string());
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  AQT_REQUIRE(!files.empty(),
              "no auditable sources in compile commands: " << path);
  return files;
}

/// Rewrites the baseline without its stale entries: sorted, one line per
/// surviving entry, multiset-preserving (a duplicate entry survives once
/// per unconsumed match).  Deterministic for any --jobs.
void prune_baseline(const std::string& path,
                    std::vector<aqt::audit::BaselineEntry> baseline,
                    const std::vector<aqt::audit::BaselineEntry>& stale) {
  // Subtract the stale multiset.
  std::map<std::string, std::size_t> dead;
  const auto key = [](const aqt::audit::BaselineEntry& e) {
    return e.rule + '\t' + e.file + '\t' + aqt::hash_hex(e.line_hash);
  };
  for (const aqt::audit::BaselineEntry& e : stale) ++dead[key(e)];
  std::vector<std::string> lines;
  for (const aqt::audit::BaselineEntry& e : baseline) {
    const auto it = dead.find(key(e));
    if (it != dead.end() && it->second > 0) {
      --it->second;
      continue;
    }
    lines.push_back(key(e));
  }
  std::sort(lines.begin(), lines.end());
  std::ofstream out(path);
  AQT_REQUIRE(out.good(), "cannot write baseline file: " << path);
  out << "# aqt-audit baseline: grandfathered findings (RULE\\tfile\\thash "
         "of the trimmed offending line).\n"
      << "# Regenerate with `aqt-audit --update-baseline ...`; this file "
         "should only ever shrink.\n";
  for (const std::string& line : lines) out << line << '\n';
  std::fprintf(stderr,
               "aqt-audit: pruned %zu stale baseline entr%s from %s\n",
               stale.size(), stale.size() == 1 ? "y" : "ies", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aqt;
  Cli cli("aqt-audit",
          "determinism & concurrency static analyzer for the AQT sources");
  cli.flag("format", "human", "report format: human or json");
  cli.flag("baseline", "",
           "baseline file of grandfathered findings (empty = none)");
  cli.flag("update-baseline", "false",
           "rewrite --baseline with the current findings and exit 0");
  cli.flag("prune-baseline", "false",
           "rewrite --baseline without entries that matched nothing");
  cli.flag("fail-on-stale", "false",
           "exit 1 when the baseline holds entries that matched nothing");
  cli.flag("compile-commands", "",
           "audit the TUs listed in a compile_commands.json instead of "
           "(or in addition to) positional paths");
  add_jobs_flag(cli);
  add_metrics_flags(cli);
  cli.positionals("path...", "source files or directories to audit");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::string format = cli.get("format");
    AQT_REQUIRE(format == "human" || format == "json",
                "unknown --format '" << format << "' (human or json)");
    std::vector<std::string> files =
        aqt::audit::collect_audit_files(cli.positional_args());
    if (!cli.get("compile-commands").empty()) {
      std::vector<std::string> from_db =
          files_from_compile_commands(cli.get("compile-commands"));
      files.insert(files.end(), from_db.begin(), from_db.end());
      std::sort(files.begin(), files.end());
      files.erase(std::unique(files.begin(), files.end()), files.end());
    }
    AQT_REQUIRE(!files.empty(), "no auditable sources given (see --help)");

    // Per-file phase: units compute independently on the run-pool
    // workers.  The cross-TU phase (finalize_project) sorts the units, so
    // the report is byte-identical for any --jobs.
    std::vector<audit::AuditUnit> units(files.size());
    const std::vector<std::string> errors = parallel_for_each(
        files.size(), get_jobs(cli),
        [&](std::size_t i) {  // aqt-audit: allow(AUD010) -- joins on return
          // aqt-audit: allow(AUD008) -- slot i has exactly one writer
          units[i] = audit::audit_unit_file(files[i]);
        });
    for (const std::string& err : errors)
      AQT_REQUIRE(err.empty(), "" << err);
    std::vector<audit::AuditReport> reports =
        audit::finalize_project(std::move(units));

    const std::string baseline_path = cli.get("baseline");
    if (cli.get_bool("update-baseline")) {
      AQT_REQUIRE(!baseline_path.empty(),
                  "--update-baseline needs --baseline=FILE");
      std::ofstream out(baseline_path);
      AQT_REQUIRE(out.good(),
                  "cannot write baseline file: " << baseline_path);
      out << audit::to_baseline(reports);
      std::size_t total = 0;
      for (const audit::AuditReport& rep : reports)
        total += rep.findings.size();
      std::fprintf(stderr, "aqt-audit: baselined %zu finding%s to %s\n",
                   total, total == 1 ? "" : "s", baseline_path.c_str());
      return 0;
    }

    audit::BaselineApplied applied;
    std::vector<audit::BaselineEntry> baseline;
    if (!baseline_path.empty()) {
      baseline = audit::load_baseline_file(baseline_path);
      applied = audit::apply_baseline(reports, baseline);
    }
    for (const audit::BaselineEntry& e : applied.stale)
      std::fprintf(stderr,
                   "aqt-audit: stale baseline entry (fixed? remove it): "
                   "%s %s\n",
                   e.rule.c_str(), e.file.c_str());
    if (cli.get_bool("prune-baseline")) {
      AQT_REQUIRE(!baseline_path.empty(),
                  "--prune-baseline needs --baseline=FILE");
      prune_baseline(baseline_path, std::move(baseline), applied.stale);
    }

    bool all_ok = true;
    for (const audit::AuditReport& rep : reports)
      all_ok = all_ok && rep.ok();
    const std::string out = format == "json"
                                ? audit::to_json(reports, applied.stale)
                                : audit::to_human(reports);
    std::fputs(out.c_str(), stdout);
    if (format == "json") std::fputc('\n', stdout);

    if (!cli.get("metrics-out").empty() || !cli.get("metrics-prom").empty() ||
        !cli.get("metrics-csv").empty()) {
      obs::MetricRegistry reg;
      std::uint64_t findings = 0;
      for (const audit::RuleInfo& rule : audit::rule_pack()) {
        std::uint64_t per_rule = 0;
        for (const audit::AuditReport& rep : reports)
          for (const audit::AuditFinding& f : rep.findings)
            if (f.rule == rule.id) ++per_rule;
        findings += per_rule;
        reg.counter("aqt_audit_rule_findings_total", "Findings per rule",
                    "rule", rule.id)
            .set(per_rule);
      }
      reg.counter("aqt_audit_files_total", "Source files audited")
          .set(reports.size());
      reg.counter("aqt_audit_findings_total", "Unbaselined findings")
          .set(findings);
      reg.counter("aqt_audit_baselined_total",
                  "Findings absolved by the baseline")
          .set(applied.suppressed);
      reg.counter("aqt_audit_stale_baseline_total",
                  "Baseline entries that matched nothing")
          .set(applied.stale.size());
      reg.gauge("aqt_audit_ok", "1 when every file is clean, else 0")
          .set(all_ok ? 1.0 : 0.0);
      obs::export_cli_metrics(cli, reg, "aqt-audit");
    }
    if (cli.get_bool("fail-on-stale") && !applied.stale.empty()) return 1;
    return all_ok ? 0 : 1;
  } catch (const PreconditionError& e) {
    std::fprintf(stderr, "aqt-audit: %s\n", e.what());
    return 2;
  }
}
