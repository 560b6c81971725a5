// aqt-audit: determinism static analysis of the AQT sources themselves.
//
// Tokenizes every given C++ file (directories are walked recursively) and
// enforces the project's replayability rule pack (AUD001..AUD007, see
// src/aqt/audit/auditor.hpp): banned nondeterminism APIs, unordered
// iteration on output paths, mutable statics in engine/runner/obs code,
// pointer-keyed ordered containers, unordered float merges, include
// layering violations, and malformed or unused justification comments.
//
// Every rule is per-file, so files are audited independently on the
// run-pool and reported in sorted path order: the output is
// byte-identical for any --jobs.
//
//   aqt-audit src tools tests                  # human-readable report
//   aqt-audit --format=json src                # machine-readable report
//   aqt-audit --compile-commands=build/compile_commands.json src tools tests
//
// Directories named 'corpus' are skipped (tests/audit/corpus holds
// deliberately-bad snippets); name such files explicitly to audit them.
// Exit codes: 0 = clean, 1 = findings, 2 = usage error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "aqt/audit/auditor.hpp"
#include "aqt/obs/export.hpp"
#include "aqt/obs/registry.hpp"
#include "aqt/runner/pool.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/cli.hpp"
#include "aqt/util/json.hpp"

namespace {

/// Pulls the "file" entries out of a CMake compile_commands.json (emitted
/// under CMAKE_EXPORT_COMPILE_COMMANDS) and filters/sorts them like a
/// directory walk — the audited set is then exactly the set of TUs the
/// build compiles.  CMake writes absolute paths; they are made relative to
/// the working directory, so a TU also named by a positional directory is
/// audited and reported once, under one spelling.
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
    const std::filesystem::path p =
        std::filesystem::path(file->as_string())
            .lexically_proximate(std::filesystem::current_path());
    if (aqt::audit::auditable_source_path(p.generic_string()))
      files.push_back(p.generic_string());
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  AQT_REQUIRE(!files.empty(),
              "no auditable sources in compile commands: " << path);
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aqt;
  Cli cli("aqt-audit", "determinism static analyzer for the AQT sources");
  cli.flag("format", "human", "report format: human or json");
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

    // Files audit independently; each worker fills only its own slot, so
    // the report keeps the sorted file order for any --jobs.
    std::vector<audit::AuditReport> reports(files.size());
    const std::vector<std::string> errors = parallel_for_each(
        files.size(), get_jobs(cli),
        [&](std::size_t i) { reports[i] = audit::audit_file(files[i]); });
    for (const std::string& err : errors)
      AQT_REQUIRE(err.empty(), "" << err);

    bool all_ok = true;
    for (const audit::AuditReport& rep : reports)
      all_ok = all_ok && rep.ok();
    const std::string out = format == "json" ? audit::to_json(reports)
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
      reg.counter("aqt_audit_findings_total", "Findings").set(findings);
      reg.gauge("aqt_audit_ok", "1 when every file is clean, else 0")
          .set(all_ok ? 1.0 : 0.0);
      obs::export_cli_metrics(cli, reg, "aqt-audit");
    }
    return all_ok ? 0 : 1;
  } catch (const PreconditionError& e) {
    std::fprintf(stderr, "aqt-audit: %s\n", e.what());
    return 2;
  }
}
