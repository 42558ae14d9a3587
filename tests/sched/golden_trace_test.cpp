#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "cm5/machine/machine.hpp"
#include "cm5/patterns/synthetic.hpp"
#include "cm5/sched/builders.hpp"
#include "cm5/sched/complete_exchange.hpp"
#include "cm5/sched/executor.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/sim/trace.hpp"
#include "golden_regen.hpp"

/// Golden-trace regression tests: seeded 8-node runs of every regular
/// algorithm (LEX/PEX/REX/BEX) and every irregular scheduler
/// (LS/PS/BS/GS), whose full event traces are compared byte-for-byte
/// against committed golden files. The simulation kernel is
/// deterministic (sequential conservative execution, fixed seeds), so
/// any diff here is a behavior change — scheduling order, timing model,
/// or trace emission — that must be deliberate.
///
/// To regenerate after an intentional change:
///
///   CM5_REGEN_GOLDEN=1 ctest -R sched_golden_trace
///
/// then commit the updated files under tests/sched/golden/ and review
/// the diff like any other source change.

#ifndef CM5_GOLDEN_DIR
#error "CM5_GOLDEN_DIR must be defined by the build (tests/sched/CMakeLists.txt)"
#endif

namespace cm5::sched {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;
using machine::Node;

constexpr std::int32_t kProcs = 8;
constexpr std::int64_t kBytes = 256;
constexpr std::uint64_t kSeed = 42;
constexpr double kDensity = 0.35;

/// Full trace serialization: every event, one to_string() line each, in
/// execution order (which the sequential kernel makes deterministic).
std::string serialize(const sim::TraceRecorder& recorder) {
  std::string out;
  for (const sim::TraceEvent& e : recorder.events()) {
    out += sim::to_string(e);
    out += '\n';
  }
  return out;
}

std::string golden_path(const std::string& name) {
  return std::string(CM5_GOLDEN_DIR) + "/" + name + ".trace";
}

std::string read_golden(const std::string& name) {
  std::ifstream in(golden_path(name), std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_golden(const std::string& name, const std::string& text) {
  std::ofstream out(golden_path(name), std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << golden_path(name);
  out << text;
}

/// Runs `program` traced, validates the trace, and compares (or, under
/// CM5_REGEN_GOLDEN, rewrites) the golden file.
void check_golden(const std::string& name,
                  const std::function<void(Node&)>& program) {
  Cm5Machine m(MachineParams::cm5_defaults(kProcs));
  sim::TraceRecorder recorder;
  const sim::RunResult r = m.run_traced(program, recorder.sink());
  ASSERT_EQ(sim::validation_report(recorder.events(), kProcs, &r), "")
      << name;
  const std::string text = serialize(recorder);
  ASSERT_FALSE(text.empty()) << name;

  // Replay determinism: an identical second run yields identical bytes.
  Cm5Machine m2(MachineParams::cm5_defaults(kProcs));
  sim::TraceRecorder recorder2;
  const sim::RunResult r2 = m2.run_traced(program, recorder2.sink());
  ASSERT_EQ(r.makespan, r2.makespan) << name;
  ASSERT_EQ(text, serialize(recorder2)) << name << ": nondeterministic trace";

  if (test::golden_regen_requested()) {
    write_golden(name, text);
    GTEST_SKIP() << "regenerated " << golden_path(name);
  }
  const std::string golden = read_golden(name);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << golden_path(name)
      << " — run with CM5_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(text, golden)
      << name << ": trace diverged from " << golden_path(name)
      << " (if intentional, regenerate with CM5_REGEN_GOLDEN=1)";
}

TEST(GoldenTrace, LinearExchange) {
  check_golden("lex_8x256", [](Node& node) {
    run_linear_exchange(node, kBytes);
  });
}

TEST(GoldenTrace, PairwiseExchange) {
  check_golden("pex_8x256", [](Node& node) {
    run_pairwise_exchange(node, kBytes);
  });
}

TEST(GoldenTrace, RecursiveExchange) {
  check_golden("rex_8x256", [](Node& node) {
    run_recursive_exchange(node, kBytes);
  });
}

TEST(GoldenTrace, BalancedExchange) {
  check_golden("bex_8x256", [](Node& node) {
    run_balanced_exchange(node, kBytes);
  });
}

class GoldenIrregular : public ::testing::TestWithParam<Scheduler> {};

TEST_P(GoldenIrregular, SeededPattern) {
  const Scheduler scheduler = GetParam();
  const CommPattern pattern =
      patterns::exact_density(kProcs, kDensity, kBytes, kSeed);
  const CommSchedule schedule = build_schedule(scheduler, pattern);
  schedule.validate_against(pattern);
  const ExecutorOptions options;  // paper runtime: no per-step barriers
  std::string name = "sched_";
  name += scheduler_name(scheduler);
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  check_golden(name, [&schedule, &options](Node& node) {
    execute_schedule(node, schedule, options);
  });
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, GoldenIrregular,
                         ::testing::Values(Scheduler::Linear,
                                           Scheduler::Pairwise,
                                           Scheduler::Balanced,
                                           Scheduler::Greedy),
                         [](const auto& param_info) {
                           return std::string(scheduler_name(param_info.param));
                         });

}  // namespace
}  // namespace cm5::sched
