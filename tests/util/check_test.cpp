// Tests for the AQT_CHECK / AQT_REQUIRE runtime-checking macros: the
// abort/throw split, message formatting, and file:line capture.
#include "aqt/util/check.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace aqt {
namespace {

TEST(CheckTest, PassingChecksAreSilent) {
  AQT_CHECK(1 + 1 == 2, "never shown");
  AQT_REQUIRE(1 + 1 == 2, "never shown");
  AQT_CHECK(true);  // The message is optional for both macros.
  AQT_REQUIRE(true);
}

TEST(CheckTest, ConditionIsEvaluatedExactlyOnce) {
  int calls = 0;
  AQT_REQUIRE(++calls > 0, "calls " << calls);
  EXPECT_EQ(calls, 1);
}

TEST(CheckTest, RequireThrowsPreconditionError) {
  EXPECT_THROW(AQT_REQUIRE(2 + 2 == 5, "arithmetic"), PreconditionError);
}

TEST(CheckTest, RequireIsCatchableAsLogicError) {
  // Callers that only know std::logic_error still observe API misuse.
  EXPECT_THROW(AQT_REQUIRE(false, "misuse"), std::logic_error);
}

TEST(CheckTest, RequireMessageCarriesExpressionArgsAndLocation) {
  try {
    AQT_REQUIRE(2 + 2 == 5, "got " << 4 << ", want " << 5);
    FAIL() << "AQT_REQUIRE did not throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition violated: 2 + 2 == 5"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("check_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("got 4, want 5"), std::string::npos) << what;
  }
}

TEST(CheckTest, RequireNamesTheFileRelativeToTheSourceTree) {
  // The message reaches RunResult::error and so canonical result bytes: it
  // must not carry the build machine's absolute source directory.
  try {
    AQT_REQUIRE(false, "where");
    FAIL() << "AQT_REQUIRE did not throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at tests/util/check_test.cpp:"), std::string::npos)
        << what;
  }
}

TEST(CheckTest, RequireWithoutMessageOmitsSeparator) {
  try {
    AQT_REQUIRE(false);
    FAIL() << "AQT_REQUIRE did not throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition violated: false"), std::string::npos)
        << what;
    EXPECT_EQ(what.find(" -- "), std::string::npos) << what;
  }
}

TEST(CheckDeathTest, CheckAbortsWithFailedExpression) {
  EXPECT_DEATH(AQT_CHECK(1 == 2, "impossible"), "AQT_CHECK failed: 1 == 2");
}

TEST(CheckDeathTest, CheckDiagnosticIncludesStreamedMessage) {
  EXPECT_DEATH(AQT_CHECK(false, "boom " << 40 + 2), "boom 42");
}

TEST(CheckDeathTest, CheckDiagnosticIncludesFileAndLine) {
  EXPECT_DEATH(AQT_CHECK(false, "where"), "check_test.cpp");
}

TEST(CheckDeathTest, CheckNamesTheFileRelativeToTheSourceTree) {
  EXPECT_DEATH(AQT_CHECK(false, "where"), "at tests/util/check_test\\.cpp:");
}

}  // namespace
}  // namespace aqt
