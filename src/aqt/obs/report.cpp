#include "aqt/obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "aqt/util/check.hpp"
#include "aqt/util/json.hpp"

namespace aqt::obs {

const std::vector<double>* ParsedTimeseries::find(
    const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return &series[i];
  }
  return nullptr;
}

ParsedTimeseries parse_timeseries_csv(const std::string& text) {
  ParsedTimeseries out;
  std::istringstream is(text);
  std::string line;
  AQT_REQUIRE(std::getline(is, line) && !line.empty(),
              "timeseries CSV: missing header line");
  {
    std::istringstream header(line);
    std::string field;
    while (std::getline(header, field, ',')) out.columns.push_back(field);
  }
  AQT_REQUIRE(!out.columns.empty(), "timeseries CSV: empty header");
  out.series.resize(out.columns.size());

  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string field;
    std::size_t col = 0;
    while (std::getline(row, field, ',')) {
      AQT_REQUIRE(col < out.columns.size(),
                  "timeseries CSV line " << lineno << ": too many fields");
      std::size_t used = 0;
      double value = 0.0;
      try {
        value = std::stod(field, &used);
      } catch (...) {
        used = 0;
      }
      AQT_REQUIRE(used == field.size() && !field.empty(),
                  "timeseries CSV line " << lineno << ": non-numeric field '"
                                         << field << "'");
      out.series[col].push_back(value);
      ++col;
    }
    AQT_REQUIRE(col == out.columns.size(),
                "timeseries CSV line " << lineno << ": expected "
                                       << out.columns.size() << " fields, got "
                                       << col);
  }
  return out;
}

std::vector<ParsedMetricFamily> parse_metrics_json(const std::string& text) {
  // A value of the wrong type fails in its JsonValue accessor.
  const JsonValue doc = parse_json(text, "metrics JSON");
  std::vector<ParsedMetricFamily> families;
  std::string schema;
  for (const auto& [key, v] : doc.members()) {
    if (key == "schema") {
      schema = v.as_string();
    } else if (key == "tool") {
      (void)v.as_string();
    } else if (key == "metrics") {
      for (const JsonValue& fv : v.items()) {
        ParsedMetricFamily fam;
        for (const auto& [fkey, f] : fv.members()) {
          if (fkey == "name") {
            fam.name = f.as_string();
          } else if (fkey == "type") {
            fam.type = f.as_string();
          } else if (fkey == "help") {
            fam.help = f.as_string();
          } else if (fkey == "label_key") {
            fam.label_key = f.as_string();
          } else if (fkey == "values") {
            for (const JsonValue& cv : f.items()) {
              ParsedMetricCell cell;
              for (const auto& [ckey, c] : cv.members()) {
                if (ckey == "label")
                  cell.label = c.as_string();
                else
                  cell.fields.emplace_back(ckey, c.as_double());
              }
              fam.cells.push_back(std::move(cell));
            }
          } else {
            AQT_REQUIRE(false,
                        "metrics JSON: unknown family key '" << fkey << "'");
          }
        }
        families.push_back(std::move(fam));
      }
    } else {
      AQT_REQUIRE(false, "metrics JSON: unknown top-level key '" << key << "'");
    }
  }
  AQT_REQUIRE(schema == "aqt-metrics/1",
              "metrics JSON: schema '" << schema
                                       << "' is not aqt-metrics/1");
  return families;
}

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

std::string svg_sparkline(const std::vector<double>& values, int width,
                          int height) {
  AQT_REQUIRE(width >= 16 && height >= 8, "sparkline box too small");
  std::ostringstream os;
  os << "<svg class=\"spark\" width=\"" << width << "\" height=\"" << height
     << "\" viewBox=\"0 0 " << width << ' ' << height
     << "\" xmlns=\"http://www.w3.org/2000/svg\">";
  if (!values.empty()) {
    double lo = values.front();
    double hi = values.front();
    for (const double v : values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const double span = hi - lo;
    const double pad = 2.0;
    const double w = width - 2 * pad;
    const double h = height - 2 * pad;
    os << "<polyline fill=\"none\" stroke=\"#1565c0\" stroke-width=\"1.5\" "
          "points=\"";
    const std::size_t n = values.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double x =
          pad + (n > 1 ? w * static_cast<double>(i) /
                             static_cast<double>(n - 1)
                       : w / 2);
      const double frac = span > 0.0 ? (values[i] - lo) / span : 0.5;
      const double y = pad + h * (1.0 - frac);
      if (i != 0) os << ' ';
      os << fmt(x) << ',' << fmt(y);
    }
    os << "\"/>";
  }
  os << "</svg>";
  return os.str();
}

std::string render_html_report(const ParsedTimeseries& timeseries,
                               const std::vector<ParsedMetricFamily>& metrics,
                               const ReportOptions& options) {
  std::ostringstream os;
  os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
     << "<meta charset=\"utf-8\">\n<title>" << html_escape(options.title)
     << "</title>\n<style>\n"
     << "body{font:14px/1.5 system-ui,sans-serif;margin:2em;color:#222}\n"
     << "h1{font-size:1.4em}h2{font-size:1.1em;margin-top:2em}\n"
     << "table{border-collapse:collapse}\n"
     << "td,th{border:1px solid #ccc;padding:.3em .6em;text-align:right}\n"
     << "th{background:#f2f2f2}td.name,th.name{text-align:left;"
     << "font-family:monospace}\n"
     << ".spark{vertical-align:middle;background:#fafafa;"
     << "border:1px solid #eee}\n"
     << "pre{background:#f7f7f7;padding:1em;overflow-x:auto}\n"
     << "</style>\n</head>\n<body>\n<h1>" << html_escape(options.title)
     << "</h1>\n";

  if (timeseries.rows() > 0) {
    os << "<h2>Time series (" << timeseries.rows() << " rows)</h2>\n"
       << "<table>\n<tr><th class=\"name\">column</th><th>min</th>"
       << "<th>max</th><th>last</th><th>trend</th></tr>\n";
    for (std::size_t c = 0; c < timeseries.columns.size(); ++c) {
      const std::vector<double>& v = timeseries.series[c];
      if (v.empty()) continue;
      const auto [lo_it, hi_it] = std::minmax_element(v.begin(), v.end());
      os << "<tr><td class=\"name\">" << html_escape(timeseries.columns[c])
         << "</td><td>" << fmt(*lo_it) << "</td><td>" << fmt(*hi_it)
         << "</td><td>" << fmt(v.back()) << "</td><td>" << svg_sparkline(v)
         << "</td></tr>\n";
    }
    os << "</table>\n";
  }

  if (!metrics.empty()) {
    os << "<h2>Metrics snapshot</h2>\n"
       << "<table>\n<tr><th class=\"name\">metric</th><th>label</th>"
       << "<th>field</th><th>value</th></tr>\n";
    for (const ParsedMetricFamily& fam : metrics) {
      for (const ParsedMetricCell& cell : fam.cells) {
        for (const auto& [field, value] : cell.fields) {
          os << "<tr><td class=\"name\" title=\"" << html_escape(fam.help)
             << "\">" << html_escape(fam.name) << "</td><td>";
          if (!fam.label_key.empty())
            os << html_escape(fam.label_key) << "="
               << html_escape(cell.label);
          os << "</td><td>" << html_escape(field) << "</td><td>" << fmt(value)
             << "</td></tr>\n";
        }
      }
    }
    os << "</table>\n";
  }

  if (!options.notes.empty())
    os << "<h2>Notes</h2>\n<pre>" << html_escape(options.notes)
       << "</pre>\n";

  os << "</body>\n</html>\n";
  return os.str();
}

}  // namespace aqt::obs
