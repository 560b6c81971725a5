// aqt-lint: static validation of scenario specs before any simulation.
//
// Checks everything statically decidable about a scenario file (see
// linter.hpp): topology parse and gadget wiring, protocol existence, route
// resolution/contiguity/simplicity, declared (w, r) and rate-r feasibility
// of the scripted injections (reroute suffixes charged at the target's
// injection time), and the static Lemma 3.3 reroute preconditions.  A
// clean file is then run through its scripted RunSpec (the one aqt-sim
// runs), so a scripted reroute that cannot apply is a "run-failed" finding.
//
//   aqt-lint scenario.aqts ...            # human-readable report
//   aqt-lint --format=json scenario.aqts  # machine-readable report
//
// Exit codes: 0 = every scenario clean, 1 = findings, 2 = usage error.
#include <cstdio>
#include <string>
#include <vector>

#include "aqt/lint/linter.hpp"
#include "aqt/obs/export.hpp"
#include "aqt/obs/registry.hpp"
#include "aqt/runner/pool.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/cli.hpp"
#include "aqt/verify/scenario_run.hpp"

int main(int argc, char** argv) {
  using namespace aqt;
  Cli cli("aqt-lint", "static scenario/topology/adversary spec checker");
  cli.flag("format", "human", "report format: human or json");
  add_jobs_flag(cli);
  add_metrics_flags(cli);
  cli.positionals("scenario.aqts...", "scenario files to validate");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::string format = cli.get("format");
    AQT_REQUIRE(format == "human" || format == "json",
                "unknown --format '" << format << "' (human or json)");
    const std::vector<std::string>& files = cli.positional_args();
    AQT_REQUIRE(!files.empty(), "no scenario files given (see --help)");

    // Scenarios lint independently on the run-pool workers; reports land
    // in argument order, so the output never depends on --jobs.
    std::vector<LintReport> reports(files.size());
    const std::vector<std::string> errors = parallel_for_each(
        files.size(), get_jobs(cli),
        [&](std::size_t i) {
          reports[i] = lint_and_run_file(files[i]);
        });
    bool all_ok = true;
    for (std::size_t i = 0; i < files.size(); ++i) {
      AQT_REQUIRE(errors[i].empty(), "" << errors[i]);
      all_ok = all_ok && reports[i].ok();
    }
    const std::string out =
        format == "json" ? to_json(reports) : to_human(reports);
    std::fputs(out.c_str(), stdout);
    if (format == "json") std::fputc('\n', stdout);

    if (!cli.get("metrics-out").empty() ||
        !cli.get("metrics-prom").empty() ||
        !cli.get("metrics-csv").empty()) {
      obs::MetricRegistry reg;
      std::uint64_t findings = 0;
      std::uint64_t injections = 0;
      std::uint64_t reroutes = 0;
      for (const LintReport& rep : reports) {
        findings += rep.findings.size();
        injections += rep.injections;
        reroutes += rep.reroutes;
        reg.counter("aqt_lint_file_findings_total", "Findings per scenario",
                    "scenario", rep.file)
            .set(rep.findings.size());
      }
      reg.counter("aqt_lint_scenarios_total", "Scenario files linted")
          .set(reports.size());
      reg.counter("aqt_lint_findings_total", "Findings across all scenarios")
          .set(findings);
      reg.counter("aqt_lint_injections_total",
                  "Scripted injections across all scenarios")
          .set(injections);
      reg.counter("aqt_lint_reroutes_total",
                  "Scripted reroutes across all scenarios")
          .set(reroutes);
      reg.gauge("aqt_lint_ok", "1 when every scenario is clean, else 0")
          .set(all_ok ? 1.0 : 0.0);
      obs::export_cli_metrics(cli, reg, "aqt-lint");
    }
    return all_ok ? 0 : 1;
  } catch (const PreconditionError& e) {
    std::fprintf(stderr, "aqt-lint: %s\n", e.what());
    return 2;
  }
}
