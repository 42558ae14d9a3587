#include "golden_regen.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

/// \file golden_regen_test.cpp
/// The regeneration switch: CM5_REGEN_GOLDEN turns golden tests into
/// writers only when it is set, non-empty and not "0". Each test scrubs
/// the variable and restores the ambient value on exit.

namespace cm5::test {
namespace {

class GoldenGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (const char* v = std::getenv("CM5_REGEN_GOLDEN")) saved_ = v;
    ASSERT_EQ(::unsetenv("CM5_REGEN_GOLDEN"), 0);
  }
  void TearDown() override {
    ::unsetenv("CM5_REGEN_GOLDEN");
    if (saved_) ::setenv("CM5_REGEN_GOLDEN", saved_->c_str(), 1);
  }

 private:
  std::optional<std::string> saved_;
};

TEST_F(GoldenGuardTest, OffWhenUnsetEmptyOrZero) {
  EXPECT_FALSE(golden_regen_requested());
  ASSERT_EQ(::setenv("CM5_REGEN_GOLDEN", "", 1), 0);
  EXPECT_FALSE(golden_regen_requested());
  ASSERT_EQ(::setenv("CM5_REGEN_GOLDEN", "0", 1), 0);
  EXPECT_FALSE(golden_regen_requested());
}

TEST_F(GoldenGuardTest, GrantsRegenOnlyInCanonicalConfig) {
  ASSERT_EQ(::setenv("CM5_REGEN_GOLDEN", "1", 1), 0);
  EXPECT_TRUE(golden_regen_requested());
}

}  // namespace
}  // namespace cm5::test
