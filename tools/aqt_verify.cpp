// aqt-verify: N-version offline verification of recorded engine runs.
//
// Takes run traces produced by `aqt-sim --record-run` (or any conforming
// writer), replays them against an independent model that shares no step
// logic with the engine, and re-derives every AQT rule from first
// principles: two-substep semantics, work conservation, per-edge unit
// capacity, FIFO/time-priority order, route contiguity, exact (w, r) /
// rate-r feasibility, packet conservation, and content-hash integrity
// (see verify/verifier.hpp for the full catalogue of violation codes).
//
// On top of the rule check it maps the run onto the paper's stability
// theorems (4.1 greedy, 4.3 time-priority, the Theorem 3.17 instability
// regime) and can emit the certificate artifact.
//
//   aqt-verify run.trace ...                 # human-readable report
//   aqt-verify --format=json run.trace       # machine-readable report
//   aqt-verify --certificate out.cert run.trace
//   aqt-verify --require-certificate true stable.trace
//
// Exit codes: 0 = every trace clean (and certificates verified when
// required), 1 = violations, 2 = usage error.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "aqt/obs/export.hpp"
#include "aqt/obs/registry.hpp"
#include "aqt/obs/watchdog.hpp"
#include "aqt/runner/pool.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/cli.hpp"
#include "aqt/verify/certificate.hpp"
#include "aqt/verify/verifier.hpp"

int main(int argc, char** argv) {
  using namespace aqt;
  Cli cli("aqt-verify", "offline run-trace verifier and certificate checker");
  cli.flag("format", "human", "report format: human or json");
  cli.flag("certificate", "",
           "write the stability certificate of the (single) trace here");
  cli.flag("require-certificate", "false",
           "fail unless every trace yields an applicable, verified "
           "stability certificate");
  cli.flag("watchdog", "false",
           "run the online watchdog's decision rule over each trace's "
           "occupancy series and cross-check it against the certificate");
  add_jobs_flag(cli);
  add_metrics_flags(cli);
  cli.positionals("run.trace...", "run traces to verify");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::string format = cli.get("format");
    AQT_REQUIRE(format == "human" || format == "json",
                "unknown --format '" << format << "' (human or json)");
    const bool require_cert = cli.get_bool("require-certificate");
    const std::vector<std::string>& files = cli.positional_args();
    AQT_REQUIRE(!files.empty(), "no run traces given (see --help)");
    AQT_REQUIRE(cli.get("certificate").empty() || files.size() == 1,
                "--certificate expects exactly one trace");

    // Traces verify independently on the run-pool workers; reports land in
    // argument order, so the output never depends on --jobs.
    std::vector<VerifyReport> reports(files.size());
    std::vector<StabilityCertificate> certs(files.size());
    const std::vector<std::string> errors = parallel_for_each(
        files.size(), get_jobs(cli),
        [&](std::size_t i) {
          reports[i] = verify_file(files[i]);
          certs[i] = make_stability_certificate(reports[i]);
        });
    bool all_ok = true;
    for (std::size_t i = 0; i < files.size(); ++i) {
      AQT_REQUIRE(errors[i].empty(), "" << errors[i]);
      all_ok = all_ok && reports[i].ok();
      if (require_cert)
        all_ok = all_ok && certs[i].applicable && certs[i].verified;
    }

    const std::string out =
        format == "json" ? to_json(reports) : to_human(reports);
    std::fputs(out.c_str(), stdout);
    if (format == "json") std::fputc('\n', stdout);
    if (format == "human")
      for (std::size_t i = 0; i < certs.size(); ++i)
        if (certs[i].kind != CertificateKind::kNone || require_cert)
          std::fputs(certs[i].text().c_str(), stdout);

    // --watchdog: replay the online decision rule (obs/watchdog.hpp
    // analyze_series) over each trace's occupancy series and compare with
    // the theorem-backed certificate.  A *verified* certificate that the
    // watchdog contradicts is a hard disagreement and fails the run; an
    // inapplicable certificate leaves nothing to contradict.
    std::uint64_t watchdog_flags = 0;
    std::uint64_t watchdog_disagreements = 0;
    if (cli.get_bool("watchdog")) {
      for (std::size_t i = 0; i < reports.size(); ++i) {
        const obs::WatchdogCheck check =
            obs::analyze_series(reports[i].occupancy);
        const bool flagged =
            check.verdict == obs::WatchdogVerdict::kGrowthSuspected;
        if (flagged) ++watchdog_flags;
        const bool cert_growth =
            certs[i].kind == CertificateKind::kInstabilityWitness;
        const bool cert_decided = certs[i].applicable && certs[i].verified;
        const bool disagree =
            cert_decided && (check.verdict != obs::WatchdogVerdict::kUndecided)
                ? flagged != cert_growth
                : false;
        if (disagree) {
          ++watchdog_disagreements;
          all_ok = false;
        }
        std::printf(
            "watchdog %s: %s (slope %.4g pkts/step, ratio %.4g) vs "
            "certificate %s%s\n",
            reports[i].file.c_str(), to_string(check.verdict), check.slope,
            check.ratio, certificate_kind_name(certs[i].kind),
            disagree ? " -- DISAGREEMENT" : "");
      }
    }

    if (!cli.get("metrics-out").empty() ||
        !cli.get("metrics-prom").empty() ||
        !cli.get("metrics-csv").empty()) {
      obs::MetricRegistry reg;
      std::uint64_t findings = 0;
      std::uint64_t certs_verified = 0;
      for (std::size_t i = 0; i < reports.size(); ++i) {
        findings += reports[i].findings.size();
        if (certs[i].applicable && certs[i].verified) ++certs_verified;
        const std::string& file = reports[i].file;
        reg.counter("aqt_verify_trace_steps_total", "Steps verified per trace",
                    "trace", file)
            .set(static_cast<std::uint64_t>(reports[i].steps));
        reg.counter("aqt_verify_trace_findings_total",
                    "Rule violations per trace", "trace", file)
            .set(reports[i].findings.size());
        reg.gauge("aqt_verify_trace_max_wait_steps",
                  "Max per-buffer waiting time per trace", "trace", file)
            .set(static_cast<double>(reports[i].max_wait));
      }
      reg.counter("aqt_verify_traces_total", "Run traces verified")
          .set(reports.size());
      reg.counter("aqt_verify_findings_total",
                  "Rule violations across all traces")
          .set(findings);
      reg.counter("aqt_verify_certificates_verified_total",
                  "Applicable stability certificates that verified")
          .set(certs_verified);
      reg.gauge("aqt_verify_ok", "1 when every trace is clean, else 0")
          .set(all_ok ? 1.0 : 0.0);
      if (cli.get_bool("watchdog")) {
        reg.counter("aqt_verify_watchdog_flags_total",
                    "Traces the offline watchdog rule flagged as growing")
            .set(watchdog_flags);
        reg.counter("aqt_verify_watchdog_disagreements_total",
                    "Watchdog verdicts contradicting a verified certificate")
            .set(watchdog_disagreements);
      }
      obs::export_cli_metrics(cli, reg, "aqt-verify");
    }

    if (!cli.get("certificate").empty()) {
      std::ofstream cert_out(cli.get("certificate"));
      AQT_REQUIRE(static_cast<bool>(cert_out),
                  "cannot open " << cli.get("certificate"));
      cert_out << certs.front().text();
      std::printf("certificate written to %s\n",
                  cli.get("certificate").c_str());
    }
    return all_ok ? 0 : 1;
  } catch (const PreconditionError& e) {
    std::fprintf(stderr, "aqt-verify: %s\n", e.what());
    return 2;
  }
}
