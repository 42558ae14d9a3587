#include "cm5/util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace cm5::util {
namespace {

ArgParser make_parser() {
  ArgParser p;
  p.add_option("procs", "32", "number of processors");
  p.add_option("density", "0.25", "pattern density");
  p.add_option("sizes", "256,512", "message sizes");
  p.add_flag("verbose", "print more");
  return p;
}

TEST(CliTest, DefaultsApply) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_int("procs"), 32);
  EXPECT_DOUBLE_EQ(p.get_double("density"), 0.25);
  EXPECT_FALSE(p.get_flag("verbose"));
  EXPECT_EQ(p.get_int_list("sizes"), (std::vector<std::int64_t>{256, 512}));
}

TEST(CliTest, SpaceSeparatedValues) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--procs", "256", "--verbose"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_EQ(p.get_int("procs"), 256);
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST(CliTest, EqualsSeparatedValues) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--density=0.75", "--sizes=0,256,1920"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_DOUBLE_EQ(p.get_double("density"), 0.75);
  EXPECT_EQ(p.get_int_list("sizes"),
            (std::vector<std::int64_t>{0, 256, 1920}));
}

TEST(CliTest, UnknownOptionThrows) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(p.parse(3, argv), std::runtime_error);
}

TEST(CliTest, MissingValueThrows) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--procs"};
  EXPECT_THROW(p.parse(2, argv), std::runtime_error);
}

TEST(CliTest, NonNumericValueThrows) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--procs", "many"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_THROW(p.get_int("procs"), std::runtime_error);
}

TEST(CliTest, BoundedIntRejectsOutOfRangeAndNonPowersOfTwo) {
  ArgParser p = make_parser();
  for (const char* value : {"0", "-4", "3", "8192"}) {
    const char* argv[] = {"prog", "--procs", value};
    ASSERT_TRUE(p.parse(3, argv));
    try {
      p.get_int("procs", 1, 4096, /*power_of_two=*/true);
      ADD_FAILURE() << value << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--procs"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(value), std::string::npos);
    }
  }
  const char* argv[] = {"prog", "--procs", "3"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.get_int("procs", 1, 4096), 3);
  const char* pow2[] = {"prog", "--procs", "4096"};
  ASSERT_TRUE(p.parse(3, pow2));
  EXPECT_EQ(p.get_int("procs", 1, 4096, /*power_of_two=*/true), 4096);
}

TEST(CliTest, FlagWithValueThrows) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--verbose=yes"};
  EXPECT_THROW(p.parse(2, argv), std::runtime_error);
}

TEST(CliTest, HelpReturnsFalse) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(CliTest, PositionalArgumentThrows) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(p.parse(2, argv), std::runtime_error);
}

TEST(CliTest, UsageMentionsAllOptions) {
  ArgParser p = make_parser();
  const std::string u = p.usage("prog");
  EXPECT_NE(u.find("--procs"), std::string::npos);
  EXPECT_NE(u.find("--density"), std::string::npos);
  EXPECT_NE(u.find("--verbose"), std::string::npos);
}

}  // namespace
}  // namespace cm5::util
