#include "aqt/util/check.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace aqt::detail {
namespace {

/// `file` (a __FILE__) relative to the source tree, when it lies inside it.
/// The tree's root is this file's own __FILE__ minus its path below the
/// root, so messages (and the RunResult::error bytes that carry them) do
/// not depend on where the binary was built.
const char* source_relative(const char* file) {
  constexpr std::string_view kSelf = __FILE__;
  constexpr std::string_view kBelowRoot = "src/aqt/util/check.cpp";
  if (!kSelf.ends_with(kBelowRoot)) return file;
  const std::string_view root =
      kSelf.substr(0, kSelf.size() - kBelowRoot.size());
  return std::string_view(file).starts_with(root) ? file + root.size() : file;
}

}  // namespace

[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const std::string& msg) {
  std::fprintf(stderr, "AQT_CHECK failed: %s\n  at %s:%d\n  %s\n", expr,
               source_relative(file), line, msg.c_str());
  std::fflush(stderr);
  std::abort();
}

[[noreturn]] void require_failed(const char* expr, const char* file, int line,
                                 const std::string& msg) {
  std::string what = "precondition violated: ";
  what += expr;
  what += " at ";
  what += source_relative(file);
  what += ":";
  what += std::to_string(line);
  if (!msg.empty()) {
    what += " -- ";
    what += msg;
  }
  throw PreconditionError(what);
}

}  // namespace aqt::detail
