// Tiny command-line flag parser for the examples and benches.
//
// Supports `--name value` and `--name=value`; unknown flags are an error so
// typos are caught.  Each binary declares its flags with defaults and a help
// string; `--help` prints them and exits.  A flag whose default is "true"
// or "false" is boolean: a bare `--name` means true, and the next argument
// is its value only when it is a boolean spelling.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "aqt/util/rational.hpp"

namespace aqt {

/// Declarative flag set.
class Cli {
 public:
  /// `program` and `about` feed the --help banner.
  Cli(std::string program, std::string about);

  Cli& flag(const std::string& name, const std::string& def,
            const std::string& help);

  /// Declares that the tool accepts positional (non-flag) arguments, e.g.
  /// file paths; `placeholder` and `help` feed the --help banner.  Without
  /// this declaration positional arguments remain an error.
  Cli& positionals(const std::string& placeholder, const std::string& help);

  /// Parses argv; on --help prints usage and returns false (caller exits 0).
  /// Throws PreconditionError on unknown flags or missing values.
  [[nodiscard]] bool parse(int argc, char** argv);

  /// The positional arguments collected by parse(), in order.
  [[nodiscard]] const std::vector<std::string>& positional_args() const {
    return positionals_;
  }

  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  /// Accepts true/false, 1/0, yes/no, on/off; throws PreconditionError
  /// naming the flag on any other value.
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] Rat get_rat(const std::string& name) const;

 private:
  struct Flag {
    std::string value;
    std::string def;
    std::string help;
  };

  std::string program_;
  std::string about_;
  std::vector<std::string> order_;
  std::map<std::string, Flag> flags_;
  bool allow_positionals_ = false;
  std::string positional_placeholder_;
  std::string positional_help_;
  std::vector<std::string> positionals_;
};

// --- Flags shared across the aqt tools --------------------------------------
//
// Every tool that supports one of these concerns declares it through the
// helpers below, so the flag spells, documents, defaults, and errors
// identically in aqt-sim, aqt-verify, aqt-fuzz, and aqt-audit (and any
// bench that grows a command line).

/// Declares `--jobs` (worker threads; 0 = all hardware threads).
Cli& add_jobs_flag(Cli& cli, const std::string& def = "1");

/// Declares `--seed` with the given default.
Cli& add_seed_flag(Cli& cli, const std::string& def = "1");

/// Declares `--metrics-out` (JSON snapshot), `--metrics-prom` (Prometheus
/// text exposition), and `--metrics-csv`.
Cli& add_metrics_flags(Cli& cli);

/// Reads a declared --jobs value; rejects negatives with the shared error.
[[nodiscard]] unsigned get_jobs(const Cli& cli);

/// Reads a declared --seed value; rejects negatives with the shared error.
[[nodiscard]] std::uint64_t get_seed(const Cli& cli);

}  // namespace aqt
