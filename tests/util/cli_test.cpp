#include "aqt/util/cli.hpp"

#include <gtest/gtest.h>

#include "aqt/util/check.hpp"

#include <string>
#include <vector>

namespace aqt {
namespace {

/// Builds an argv array from string literals (argv[0] is the program name).
class Args {
 public:
  explicit Args(std::vector<std::string> args) : storage_(std::move(args)) {
    ptrs_.push_back(prog_);
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(ptrs_.size()); }
  [[nodiscard]] char** argv() { return ptrs_.data(); }

 private:
  char prog_[5] = "prog";
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(Cli, DefaultsApply) {
  Cli cli("t", "test");
  cli.flag("steps", "100", "step count");
  Args a({});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.get_int("steps"), 100);
}

TEST(Cli, SpaceSeparatedValue) {
  Cli cli("t", "test");
  cli.flag("rate", "0.5", "rate");
  Args a({"--rate", "0.7"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 0.7);
}

TEST(Cli, EqualsSeparatedValue) {
  Cli cli("t", "test");
  cli.flag("proto", "FIFO", "protocol");
  Args a({"--proto=LIS"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.get("proto"), "LIS");
}

TEST(Cli, RationalFlag) {
  Cli cli("t", "test");
  cli.flag("r", "1/2", "rate");
  Args a({"--r", "7/10"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.get_rat("r"), Rat(7, 10));
}

TEST(Cli, BoolFlagVariants) {
  Cli cli("t", "test");
  cli.flag("audit", "false", "audit");
  for (const char* v : {"1", "true", "yes", "on"}) {
    Cli c("t", "test");
    c.flag("audit", "false", "audit");
    Args a({std::string("--audit=") + v});
    ASSERT_TRUE(c.parse(a.argc(), a.argv()));
    EXPECT_TRUE(c.get_bool("audit")) << v;
  }
  Args a({"--audit=0"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_FALSE(cli.get_bool("audit"));
}

TEST(Cli, BareBooleanFlagMeansTrueAndLeavesTheNextFlagAlone) {
  Cli cli("t", "test");
  cli.flag("profile", "false", "profile");
  cli.flag("steps", "100", "step count");
  Args a({"--profile", "--steps", "10"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_TRUE(cli.get_bool("profile"));
  EXPECT_EQ(cli.get_int("steps"), 10);

  Cli last("t", "test");
  last.flag("profile", "false", "profile");
  Args b({"--profile"});
  ASSERT_TRUE(last.parse(b.argc(), b.argv()));
  EXPECT_TRUE(last.get_bool("profile"));
}

TEST(Cli, BooleanFlagTakesTheNextArgumentOnlyWhenItIsABoolean) {
  Cli cli("t", "test");
  cli.flag("audit", "true", "audit");
  cli.flag("replay", "false", "replay");
  cli.positionals("file...", "inputs");
  Args a({"--audit", "off", "--replay", "request.json"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_FALSE(cli.get_bool("audit"));
  EXPECT_TRUE(cli.get_bool("replay"));
  EXPECT_EQ(cli.positional_args(),
            (std::vector<std::string>{"request.json"}));
}

TEST(Cli, GetBoolRejectsAMisspellingAndNamesTheFlag) {
  for (const char* v : {"flase", "", "2", "TRUE"}) {
    Cli cli("t", "test");
    cli.flag("audit", "false", "audit");
    Args a({std::string("--audit=") + v});
    ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
    try {
      (void)cli.get_bool("audit");
      ADD_FAILURE() << "accepted '" << v << "'";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("--audit"), std::string::npos)
          << e.what();
    }
  }
  for (const char* v : {"0", "false", "no", "off"}) {
    Cli cli("t", "test");
    cli.flag("audit", "true", "audit");
    Args a({std::string("--audit=") + v});
    ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
    EXPECT_FALSE(cli.get_bool("audit")) << v;
  }
}

TEST(Cli, NonBooleanFlagStillConsumesItsValue) {
  // "1"/"0" defaults are numbers, not booleans: --jobs 4 keeps its value.
  Cli cli("t", "test");
  add_jobs_flag(cli);
  cli.flag("progress", "0", "heartbeat");
  Args a({"--jobs", "4", "--progress", "true"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(get_jobs(cli), 4u);
  EXPECT_EQ(cli.get("progress"), "true");
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli("t", "test");
  cli.flag("x", "1", "x");
  Args a({"--nope", "3"});
  EXPECT_THROW((void)cli.parse(a.argc(), a.argv()), PreconditionError);
}

TEST(Cli, MissingValueThrows) {
  Cli cli("t", "test");
  cli.flag("x", "1", "x");
  Args a({"--x"});
  EXPECT_THROW((void)cli.parse(a.argc(), a.argv()), PreconditionError);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli("t", "test");
  cli.flag("x", "1", "x");
  Args a({"--help"});
  EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
}

TEST(Cli, DuplicateFlagDeclarationThrows) {
  Cli cli("t", "test");
  cli.flag("x", "1", "x");
  EXPECT_THROW(cli.flag("x", "2", "again"), PreconditionError);
}

TEST(Cli, UndeclaredGetThrows) {
  Cli cli("t", "test");
  EXPECT_THROW((void)cli.get("ghost"), PreconditionError);
}

TEST(Cli, PositionalsCollectedWhenEnabled) {
  Cli cli("t", "test");
  cli.flag("format", "human", "output format");
  cli.positionals("file...", "scenario files");
  Args a({"a.trace", "--format=json", "b.trace"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(cli.get("format"), "json");
  EXPECT_EQ(cli.positional_args(),
            (std::vector<std::string>{"a.trace", "b.trace"}));
}

TEST(Cli, NumericFlagsRejectGarbageWithCleanError) {
  // A typo'd numeric value must surface as the usage-error contract
  // (PreconditionError -> exit 2), never a raw stoll exception.
  Cli cli("t", "test");
  add_jobs_flag(cli);
  add_seed_flag(cli);
  cli.flag("ratio", "1.5", "a double flag");
  Args a({"--jobs", "notanumber", "--seed", "7x", "--ratio", "fast"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_THROW((void)get_jobs(cli), PreconditionError);
  EXPECT_THROW((void)cli.get_int("seed"), PreconditionError);
  EXPECT_THROW((void)cli.get_double("ratio"), PreconditionError);
}

TEST(Cli, SharedJobsAndSeedFlagsParseAndRangeCheck) {
  Cli cli("t", "test");
  add_jobs_flag(cli);
  add_seed_flag(cli);
  Args a({"--jobs", "4", "--seed", "9"});
  ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
  EXPECT_EQ(get_jobs(cli), 4u);
  EXPECT_EQ(get_seed(cli), 9u);
  Cli neg("t", "test");
  add_jobs_flag(neg);
  add_seed_flag(neg);
  Args b({"--jobs", "-3"});
  ASSERT_TRUE(neg.parse(b.argc(), b.argv()));
  EXPECT_THROW((void)get_jobs(neg), PreconditionError);
}

TEST(Cli, PositionalsRejectedWhenNotEnabled) {
  Cli cli("t", "test");
  Args a({"stray"});
  EXPECT_THROW((void)cli.parse(a.argc(), a.argv()), PreconditionError);
}

}  // namespace
}  // namespace aqt
