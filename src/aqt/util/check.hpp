// Lightweight runtime checking macros.
//
// AQT_CHECK(cond, msg...)   -- always-on invariant check; aborts with a
//                              diagnostic on failure (used for internal
//                              invariants whose violation means a bug).
// AQT_REQUIRE(cond, msg...) -- precondition check on public API boundaries;
//                              throws aqt::PreconditionError so callers and
//                              tests can observe misuse without aborting.
//
// Both macros stringify the failing expression and capture file:line; the
// file is reported relative to the source tree (src/aqt/..., tools/...), so
// messages do not depend on the build directory.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace aqt {

/// Thrown when a public-API precondition is violated (AQT_REQUIRE).
class PreconditionError : public std::logic_error {
 public:
  explicit PreconditionError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const std::string& msg);

[[noreturn]] void require_failed(const char* expr, const char* file, int line,
                                 const std::string& msg);

}  // namespace detail
}  // namespace aqt

#define AQT_CHECK(cond, ...)                                               \
  do {                                                                     \
    if (!(cond)) [[unlikely]] {                                            \
      ::std::ostringstream aqt_check_oss_;                                 \
      aqt_check_oss_ << "" __VA_ARGS__;                                    \
      ::aqt::detail::check_failed(#cond, __FILE__, __LINE__,               \
                                  aqt_check_oss_.str());                   \
    }                                                                      \
  } while (false)

#define AQT_REQUIRE(cond, ...)                                             \
  do {                                                                     \
    if (!(cond)) [[unlikely]] {                                            \
      ::std::ostringstream aqt_check_oss_;                                 \
      aqt_check_oss_ << "" __VA_ARGS__;                                    \
      ::aqt::detail::require_failed(#cond, __FILE__, __LINE__,             \
                                    aqt_check_oss_.str());                 \
    }                                                                      \
  } while (false)
