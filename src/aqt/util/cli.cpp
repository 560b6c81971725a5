#include "aqt/util/cli.hpp"

#include <cstdio>

#include "aqt/util/check.hpp"

namespace aqt {

namespace {

bool is_true_spelling(const std::string& v) {
  return v == "1" || v == "true" || v == "yes" || v == "on";
}
bool is_false_spelling(const std::string& v) {
  return v == "0" || v == "false" || v == "no" || v == "off";
}
bool is_bool_spelling(const std::string& v) {
  return is_true_spelling(v) || is_false_spelling(v);
}

}  // namespace

Cli::Cli(std::string program, std::string about)
    : program_(std::move(program)), about_(std::move(about)) {}

Cli& Cli::flag(const std::string& name, const std::string& def,
               const std::string& help) {
  AQT_REQUIRE(!flags_.count(name), "duplicate flag --" << name);
  order_.push_back(name);
  flags_[name] = Flag{def, def, help};
  return *this;
}

Cli& Cli::positionals(const std::string& placeholder,
                      const std::string& help) {
  allow_positionals_ = true;
  positional_placeholder_ = placeholder;
  positional_help_ = help;
  return *this;
}

bool Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s - %s\n\n", program_.c_str(), about_.c_str());
      if (allow_positionals_)
        std::printf("usage: %s [flags] %s\n  %s\n\n", program_.c_str(),
                    positional_placeholder_.c_str(),
                    positional_help_.c_str());
      std::printf("flags:\n");
      for (const auto& name : order_) {
        const auto& f = flags_.at(name);
        std::printf("  --%-18s %s (default: %s)\n", name.c_str(),
                    f.help.c_str(), f.def.empty() ? "\"\"" : f.def.c_str());
      }
      return false;
    }
    if (allow_positionals_ &&
        (arg.size() < 2 || arg[0] != '-' || arg[1] != '-')) {
      positionals_.push_back(arg);
      continue;
    }
    AQT_REQUIRE(arg.size() > 2 && arg[0] == '-' && arg[1] == '-',
                "unexpected argument: " << arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    auto it = flags_.find(name);
    AQT_REQUIRE(it != flags_.end(), "unknown flag --" << name);
    if (eq != std::string::npos) {
      it->second.value = arg.substr(eq + 1);
    } else if (it->second.def == "true" || it->second.def == "false") {
      // A boolean flag stands alone ("--profile" means true) and takes the
      // next argument only when that is itself a boolean spelling.
      const bool next_is_value = i + 1 < argc && is_bool_spelling(argv[i + 1]);
      it->second.value = next_is_value ? argv[++i] : "true";
    } else {
      AQT_REQUIRE(i + 1 < argc, "flag --" << name << " needs a value");
      it->second.value = argv[++i];
    }
  }
  return true;
}

std::string Cli::get(const std::string& name) const {
  auto it = flags_.find(name);
  AQT_REQUIRE(it != flags_.end(), "undeclared flag --" << name);
  return it->second.value;
}

std::int64_t Cli::get_int(const std::string& name) const {
  const std::string v = get(name);
  std::size_t pos = 0;
  std::int64_t out = 0;
  try {
    out = std::stoll(v, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  AQT_REQUIRE(pos == v.size() && !v.empty(),
              "flag --" << name << " needs an integer, got '" << v << "'");
  return out;
}

double Cli::get_double(const std::string& name) const {
  const std::string v = get(name);
  std::size_t pos = 0;
  double out = 0.0;
  try {
    out = std::stod(v, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  AQT_REQUIRE(pos == v.size() && !v.empty(),
              "flag --" << name << " needs a number, got '" << v << "'");
  return out;
}

bool Cli::get_bool(const std::string& name) const {
  const std::string v = get(name);
  AQT_REQUIRE(is_bool_spelling(v),
              "flag --" << name << " needs a boolean (true/false, 1/0, "
                                   "yes/no, on/off), got '" << v << "'");
  return is_true_spelling(v);
}

Rat Cli::get_rat(const std::string& name) const {
  return Rat::parse(get(name));
}

Cli& add_jobs_flag(Cli& cli, const std::string& def) {
  return cli.flag("jobs", def,
                  "worker threads for independent runs (0 = all hardware "
                  "threads); results are byte-identical for any value");
}

Cli& add_seed_flag(Cli& cli, const std::string& def) {
  return cli.flag("seed", def, "rng seed (non-negative)");
}

Cli& add_metrics_flags(Cli& cli) {
  cli.flag("metrics-out", "",
           "write a JSON metrics snapshot (aqt-metrics/1) to this path");
  cli.flag("metrics-prom", "",
           "write the metrics in Prometheus text exposition to this path");
  cli.flag("metrics-csv", "", "write the metrics as CSV to this path");
  return cli;
}

unsigned get_jobs(const Cli& cli) {
  const std::int64_t jobs = cli.get_int("jobs");
  AQT_REQUIRE(jobs >= 0, "--jobs must be >= 0, got " << jobs);
  return static_cast<unsigned>(jobs);
}

std::uint64_t get_seed(const Cli& cli) {
  const std::int64_t seed = cli.get_int("seed");
  AQT_REQUIRE(seed >= 0, "--seed must be >= 0, got " << seed);
  return static_cast<std::uint64_t>(seed);
}

}  // namespace aqt
