#include "aqt/obs/export.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "aqt/util/check.hpp"
#include "aqt/util/json.hpp"

namespace aqt::obs {
namespace {

/// A double to ten significant digits ("%.10g": not round-trippable, a
/// fixed width so snapshots diff cleanly); integral values print without
/// a trailing ".0" so counters-as-gauges stay clean.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Prometheus label values escape backslash, double-quote, and newline.
std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '"')
      out += "\\\"";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

/// `name{key="value"}` or bare `name`; `extra` appends e.g. `le="..."`.
std::string prom_series(const std::string& name,
                        const MetricRegistry::Family& fam,
                        const MetricRegistry::Cell& cell,
                        const std::string& extra = "") {
  std::string out = name;
  if (!fam.label_key.empty() || !extra.empty()) {
    out += '{';
    if (!fam.label_key.empty()) {
      out += fam.label_key + "=\"" + prom_escape(cell.label) + '"';
      if (!extra.empty()) out += ',';
    }
    out += extra;
    out += '}';
  }
  return out;
}

/// CSV fields never need quoting: metric names/labels are [a-z0-9_.:-] by
/// construction and values are numbers.  Assert rather than quote.
void csv_row(std::ostream& os, const std::string& name,
             const std::string& label, const char* type, const char* field,
             const std::string& value) {
  AQT_REQUIRE(label.find(',') == std::string::npos &&
                  label.find('"') == std::string::npos &&
                  label.find('\n') == std::string::npos,
              "CSV export: label needs quoting: " << label);
  os << name << ',' << label << ',' << type << ',' << field << ',' << value
     << '\n';
}

}  // namespace

std::string to_prometheus(const MetricRegistry& registry) {
  std::ostringstream os;
  for (const auto& fam : registry.families()) {
    os << "# HELP " << fam.name << ' ' << fam.help << '\n';
    os << "# TYPE " << fam.name << ' ' << to_string(fam.type) << '\n';
    for (const auto& cell : fam.cells) {
      switch (fam.type) {
        case MetricType::kCounter:
          os << prom_series(fam.name, fam, cell) << ' ' << cell.counter.value()
             << '\n';
          break;
        case MetricType::kGauge:
          os << prom_series(fam.name, fam, cell) << ' '
             << fmt_double(cell.gauge.value()) << '\n';
          break;
        case MetricType::kHistogram: {
          const Histogram& h = cell.histogram;
          // Cumulative buckets; trailing all-empty buckets are elided but the
          // bucket containing max() is always kept so le bounds cover the
          // data, and +Inf is mandatory.
          std::uint64_t cum = 0;
          std::size_t last = 0;
          for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
            if (h.bucket_count(b) != 0) last = b;
          }
          for (std::size_t b = 0; b <= last; ++b) {
            cum += h.bucket_count(b);
            os << prom_series(fam.name + "_bucket", fam, cell,
                              "le=\"" +
                                  std::to_string(
                                      Histogram::bucket_upper_bound(b)) +
                                  '"')
               << ' ' << cum << '\n';
          }
          os << prom_series(fam.name + "_bucket", fam, cell, "le=\"+Inf\"")
             << ' ' << h.count() << '\n';
          os << prom_series(fam.name + "_sum", fam, cell) << ' '
             << fmt_double(h.sum()) << '\n';
          os << prom_series(fam.name + "_count", fam, cell) << ' ' << h.count()
             << '\n';
          break;
        }
      }
    }
  }
  return os.str();
}

std::string to_json(const MetricRegistry& registry, const std::string& tool) {
  std::ostringstream os;
  os << "{\"schema\":\"aqt-metrics/1\",\"tool\":\"" << json_escape_string(tool)
     << "\",\"metrics\":[";
  bool first_fam = true;
  for (const auto& fam : registry.families()) {
    if (!first_fam) os << ',';
    first_fam = false;
    os << "{\"name\":\"" << fam.name << "\",\"type\":\""
       << to_string(fam.type)
       << "\",\"help\":\"" << json_escape_string(fam.help)
       << "\",\"label_key\":\"" << json_escape_string(fam.label_key)
       << "\",\"values\":[";
    bool first_cell = true;
    for (const auto& cell : fam.cells) {
      if (!first_cell) os << ',';
      first_cell = false;
      os << "{\"label\":\"" << json_escape_string(cell.label) << "\",";
      switch (fam.type) {
        case MetricType::kCounter:
          os << "\"value\":" << cell.counter.value();
          break;
        case MetricType::kGauge:
          os << "\"value\":" << fmt_double(cell.gauge.value());
          break;
        case MetricType::kHistogram: {
          const Histogram& h = cell.histogram;
          os << "\"count\":" << h.count() << ",\"sum\":" << fmt_double(h.sum())
             << ",\"min\":" << h.min() << ",\"max\":" << h.max()
             << ",\"mean\":" << fmt_double(h.mean());
          if (h.count() > 0) {
            os << ",\"p50\":" << h.quantile(0.5)
               << ",\"p90\":" << h.quantile(0.9)
               << ",\"p99\":" << h.quantile(0.99);
          } else {
            os << ",\"p50\":0,\"p90\":0,\"p99\":0";
          }
          break;
        }
      }
      os << '}';
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

std::string to_csv(const MetricRegistry& registry) {
  std::ostringstream os;
  os << "name,label,type,field,value\n";
  for (const auto& fam : registry.families()) {
    const char* type = to_string(fam.type);
    for (const auto& cell : fam.cells) {
      switch (fam.type) {
        case MetricType::kCounter:
          csv_row(os, fam.name, cell.label, type, "value",
                  std::to_string(cell.counter.value()));
          break;
        case MetricType::kGauge:
          csv_row(os, fam.name, cell.label, type, "value",
                  fmt_double(cell.gauge.value()));
          break;
        case MetricType::kHistogram: {
          const Histogram& h = cell.histogram;
          csv_row(os, fam.name, cell.label, type, "count",
                  std::to_string(h.count()));
          csv_row(os, fam.name, cell.label, type, "sum", fmt_double(h.sum()));
          csv_row(os, fam.name, cell.label, type, "min",
                  std::to_string(h.min()));
          csv_row(os, fam.name, cell.label, type, "max",
                  std::to_string(h.max()));
          csv_row(os, fam.name, cell.label, type, "mean",
                  fmt_double(h.mean()));
          csv_row(os, fam.name, cell.label, type, "p50",
                  std::to_string(h.count() ? h.quantile(0.5) : 0));
          csv_row(os, fam.name, cell.label, type, "p90",
                  std::to_string(h.count() ? h.quantile(0.9) : 0));
          csv_row(os, fam.name, cell.label, type, "p99",
                  std::to_string(h.count() ? h.quantile(0.99) : 0));
          break;
        }
      }
    }
  }
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  AQT_REQUIRE(static_cast<bool>(os), "cannot open for writing: " << path);
  os << text;
  os.flush();
  AQT_REQUIRE(static_cast<bool>(os), "write failed: " << path);
}

void export_cli_metrics(const Cli& cli, const MetricRegistry& registry,
                        const std::string& tool) {
  const std::string json_path = cli.get("metrics-out");
  const std::string prom_path = cli.get("metrics-prom");
  const std::string csv_path = cli.get("metrics-csv");
  if (!json_path.empty()) {
    write_file(json_path, to_json(registry, tool));
    std::cout << "metrics snapshot written to " << json_path << "\n";
  }
  if (!prom_path.empty()) {
    write_file(prom_path, to_prometheus(registry));
    std::cout << "metrics (prometheus) written to " << prom_path << "\n";
  }
  if (!csv_path.empty()) {
    write_file(csv_path, to_csv(registry));
    std::cout << "metrics (csv) written to " << csv_path << "\n";
  }
}

}  // namespace aqt::obs
