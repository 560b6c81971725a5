// Self-contained HTML run reports (the aqt-report library).
//
// Folds the two observability artifacts every tool can already emit — a
// TimeseriesRecorder CSV (timeseries.hpp) and an aqt-metrics/1 JSON
// snapshot (export.hpp to_json) — into one static HTML file with inline
// SVG sparklines per time-series column and a metrics table.  No external
// assets, no scripts: the file opens anywhere, attaches to CI artifacts,
// and diffs cleanly because rendering is a pure function of its inputs.
//
// The parsers here accept what this repo's exporters produce: the CSV
// header contract of TimeseriesRecorder::to_csv, and the aqt-metrics/1
// schema read through the shared JSON layer (util/json.hpp).
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace aqt::obs {

/// A parsed timeseries CSV, column-major: columns[i] names series[i].
struct ParsedTimeseries {
  std::vector<std::string> columns;
  std::vector<std::vector<double>> series;

  [[nodiscard]] std::size_t rows() const {
    return series.empty() ? 0 : series.front().size();
  }
  /// The values of the column named `name`; empty when absent.
  [[nodiscard]] const std::vector<double>* find(const std::string& name) const;
};

/// Parses a TimeseriesRecorder::to_csv export (first line is the header;
/// every field numeric).  Throws PreconditionError on a malformed or
/// ragged table.
ParsedTimeseries parse_timeseries_csv(const std::string& text);

/// One cell of a parsed metric family: scalar metrics carry a single
/// ("value", x) field; histograms carry count/sum/min/max/mean/p50/p90/p99.
struct ParsedMetricCell {
  std::string label;
  std::vector<std::pair<std::string, double>> fields;
};

struct ParsedMetricFamily {
  std::string name;
  std::string type;  ///< "counter" | "gauge" | "histogram".
  std::string help;
  std::string label_key;
  std::vector<ParsedMetricCell> cells;
};

/// Parses an aqt-metrics/1 JSON snapshot (export.hpp to_json).  Throws
/// PreconditionError on malformed input or a different schema tag.
std::vector<ParsedMetricFamily> parse_metrics_json(const std::string& text);

/// An inline `<svg>` sparkline of `values` (min..max normalized into the
/// box; a flat series renders as a centered line).  Pure and deterministic.
std::string svg_sparkline(const std::vector<double>& values, int width = 260,
                          int height = 48);

struct ReportOptions {
  std::string title = "aqt run report";
  /// Optional preformatted text block (e.g. a watchdog summary) rendered
  /// verbatim in a <pre> section.
  std::string notes;
};

/// Renders the full self-contained HTML document.  Either input may be
/// empty (its section is omitted).
std::string render_html_report(const ParsedTimeseries& timeseries,
                               const std::vector<ParsedMetricFamily>& metrics,
                               const ReportOptions& options = {});

}  // namespace aqt::obs
