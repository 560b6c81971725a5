// aqt-report: fold observability artifacts into one self-contained HTML
// report.
//
// Takes the flight-recorder timeseries CSV (aqt-sim --timeseries, or any
// TimeseriesRecorder::to_csv export) and/or an aqt-metrics/1 JSON snapshot
// (any tool's --metrics-out) and renders a single static HTML file with
// inline SVG sparklines per series column and a metrics table — no
// external assets, no scripts, so it opens anywhere and uploads as a CI
// artifact.
//
//   aqt-sim --topology ring:12 --protocol NTG --steps 20000
//           --timeseries run.csv --metrics-out run.json     (one command)
//   aqt-report --timeseries run.csv --metrics run.json --out report.html
//
// Exit codes: 0 = report written, 2 = usage or parse error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "aqt/obs/export.hpp"
#include "aqt/obs/report.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/cli.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  AQT_REQUIRE(static_cast<bool>(is), "cannot open " << path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aqt;
  Cli cli("aqt-report", "render observability artifacts as static HTML");
  cli.flag("timeseries", "",
           "flight-recorder CSV (aqt-sim --timeseries) to chart");
  cli.flag("metrics", "",
           "aqt-metrics/1 JSON snapshot (--metrics-out) to tabulate");
  cli.flag("notes", "",
           "text file rendered verbatim in a notes section (e.g. a "
           "watchdog summary or certificate)");
  cli.flag("title", "aqt run report", "report title");
  cli.flag("out", "report.html", "output HTML path");
  try {
    if (!cli.parse(argc, argv)) return 0;
    AQT_REQUIRE(!cli.get("timeseries").empty() || !cli.get("metrics").empty(),
                "nothing to report: give --timeseries and/or --metrics");

    obs::ParsedTimeseries timeseries;
    if (!cli.get("timeseries").empty())
      timeseries = obs::parse_timeseries_csv(read_file(cli.get("timeseries")));

    std::vector<obs::ParsedMetricFamily> metrics;
    if (!cli.get("metrics").empty())
      metrics = obs::parse_metrics_json(read_file(cli.get("metrics")));

    obs::ReportOptions options;
    options.title = cli.get("title");
    if (!cli.get("notes").empty()) options.notes = read_file(cli.get("notes"));

    obs::write_file(cli.get("out"),
                    obs::render_html_report(timeseries, metrics, options));
    std::printf("report (%zu series rows, %zu metric families) written "
                "to %s\n",
                timeseries.rows(), metrics.size(), cli.get("out").c_str());
    return 0;
  } catch (const PreconditionError& e) {
    std::fprintf(stderr, "aqt-report: %s\n", e.what());
    return 2;
  }
}
