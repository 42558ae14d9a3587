#include "cm5/sim/golden_guard.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cm5/sim/exec_backend.hpp"

/// \file golden_guard_test.cpp
/// The regeneration interlock: CM5_REGEN_GOLDEN must be honoured only
/// under the canonical execution configuration, and *refused* — by
/// throwing, so the requesting test fails instead of writing — under
/// any experimental knob. These tests mutate the very environment
/// variables CI matrix rows use to select configurations, so every test
/// scrubs the knobs it touches and restores them on exit.

namespace cm5::sim {
namespace {

const char* const kKnobs[] = {"CM5_REGEN_GOLDEN", "CM5_EXEC_THREADS"};

/// Clears every knob the guard reads for the test body, then restores
/// the ambient values (a CI row's configuration must survive this test
/// binary unchanged).
class GoldenGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* knob : kKnobs) {
      if (const char* v = std::getenv(knob)) saved_.emplace_back(knob, v);
      ASSERT_EQ(::unsetenv(knob), 0);
    }
  }
  void TearDown() override {
    for (const char* knob : kKnobs) ::unsetenv(knob);
    for (const auto& [knob, value] : saved_) {
      ::setenv(knob.c_str(), value.c_str(), 1);
    }
  }

 private:
  std::vector<std::pair<std::string, std::string>> saved_;
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

TEST_F(GoldenGuardTest, RefusesUnderThreadOracle) {
  ASSERT_EQ(::setenv("CM5_REGEN_GOLDEN", "1", 1), 0);
  ASSERT_EQ(::setenv("CM5_EXEC_THREADS", "1", 1), 0);
  EXPECT_THROW(golden_regen_requested(), std::runtime_error);
  // CM5_EXEC_THREADS=0 is the default spelled out, not a knob.
  ASSERT_EQ(::setenv("CM5_EXEC_THREADS", "0", 1), 0);
  EXPECT_TRUE(golden_regen_requested());
}

TEST_F(GoldenGuardTest, FollowsTheBackendTheRunUses) {
  // Only exactly "1" selects the thread oracle; any other value leaves
  // the run on fibers, so regeneration must go ahead — a refusal there
  // would name a backend the run does not use.
  ASSERT_EQ(::setenv("CM5_REGEN_GOLDEN", "1", 1), 0);
  for (const char* value : {"2", "true", "yes"}) {
    ASSERT_EQ(::setenv("CM5_EXEC_THREADS", value, 1), 0);
    ASSERT_EQ(default_execution_model(), ExecutionModel::kFibers) << value;
    EXPECT_TRUE(golden_regen_requested()) << "CM5_EXEC_THREADS=" << value;
  }
}

TEST_F(GoldenGuardTest, RefusalNamesTheOffendingKnob) {
  // The error must tell the operator *which* knob blocked regeneration —
  // "regen refused" with no reason is a debugging session.
  ASSERT_EQ(::setenv("CM5_REGEN_GOLDEN", "1", 1), 0);
  ASSERT_EQ(::setenv("CM5_EXEC_THREADS", "1", 1), 0);
  try {
    golden_regen_requested();
    FAIL() << "expected the guard to throw under CM5_EXEC_THREADS=1";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CM5_EXEC_THREADS"),
              std::string::npos)
        << "actual message: " << e.what();
  }
}

}  // namespace
}  // namespace cm5::sim
