// aqt_bench: the whole-job benchmark harness (see ../README.md).
//
//   aqt_bench --workload grid_stochastic|lps_construction|served_mix
//             --seed N --seconds S --trace 0|1
//             [--short 1] [--corrupt-check 1] [--commit ID]
//
// Prints an environment stamp, one line per metric and per failed check,
// and as its last line the JSON result object.  Exits 1 when any output
// check fails or the run is invalid (not a Release + IPO build, or more
// threads than cores), 2 on bad usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

using aqtb::Options;
using aqtb::Report;

int usage(const std::string& why) {
  std::cerr << "aqt_bench: " << why
            << "\nusage: aqt_bench --workload grid_stochastic|"
               "lps_construction|served_mix --seed N --seconds S "
               "--trace 0|1 [--short 1] [--corrupt-check 1] [--commit ID]\n";
  return 2;
}

bool parse_flag(const std::string& v) { return v == "1" || v == "true"; }

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// Full-precision number formatting for the JSON line.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = parse_flag(value);
      } else if (flag == "--short") {
        opt.short_mode = parse_flag(value);
      } else if (flag == "--corrupt-check") {
        opt.corrupt_check = parse_flag(value);
      } else if (flag == "--commit") {
        commit = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  const bool offline = opt.workload == "grid_stochastic" ||
                       opt.workload == "lps_construction";
  if (!have_workload || (!offline && opt.workload != "served_mix"))
    return usage("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  // Environment stamp: a datapoint means one build on one machine.
  const unsigned nproc = std::thread::hardware_concurrency();
  const unsigned threads = offline ? 1 : aqtb::kServedThreads;
  const std::string build_type = AQTB_BUILD_TYPE;
  std::cout << "env {\"nproc\":" << nproc << ",\"threads\":" << threads
            << ",\"compiler\":\"" << json_escape(AQTB_COMPILER)
            << "\",\"build_type\":\"" << build_type
            << "\",\"ipo\":" << (AQTB_IPO ? "true" : "false")
            << ",\"commit\":\"" << json_escape(commit)
            << "\",\"workload\":\"" << opt.workload
            << "\",\"seed\":" << opt.seed << ",\"seconds\":" << opt.seconds
            << ",\"trace\":" << (opt.trace ? 1 : 0) << "}\n";

  Report report;
  try {
    report = offline ? aqtb::run_offline(opt) : aqtb::run_served(opt);
  } catch (const std::exception& e) {
    report.fail(std::string("workload aborted: ") + e.what());
  }
  if (build_type != "Release")
    report.fail("invalid run: build type " + build_type + ", not Release");
  if (!AQTB_IPO) report.fail("invalid run: built without IPO");
  if (threads > nproc)
    report.fail("invalid run: " + std::to_string(threads) +
                " threads > nproc " + std::to_string(nproc));

  for (const std::string& note : report.notes)
    std::cout << "note " << note << "\n";
  for (const std::string& f : report.failures)
    std::cout << "FAILED " << f << "\n";
  const bool correct = report.failures.empty();
  const std::uint64_t attempted = std::max<std::uint64_t>(1, report.attempted);
  const std::uint64_t failed =
      correct ? report.failed_jobs
              : std::max<std::uint64_t>(1, report.failed_jobs);
  std::cout << "failed_ratio " << num(static_cast<double>(failed) /
                                      static_cast<double>(attempted))
            << " ratio\n";
  for (const auto& [name, vu] : report.metrics)
    std::cout << "metric " << name << " " << num(vu.first) << " " << vu.second
              << "\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : report.metrics) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << num(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
