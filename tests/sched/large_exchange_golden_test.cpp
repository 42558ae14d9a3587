#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/complete_exchange.hpp"
#include "golden_regen.hpp"

/// Golden baselines for the ext_machines large-partition rows: recursive
/// complete exchange at N = 1024 and N = 2048 (sizes that fiber stacks
/// make affordable).
/// Full traces at this scale are megabytes, so the committed golden is a
/// compact summary: makespan plus the aggregate counters that pin the
/// communication volume.
///
/// To regenerate after an intentional model change:
///
///   CM5_REGEN_GOLDEN=1 ctest -R sched_large_exchange_golden
///
/// then commit the updated files under tests/sched/golden/.

#ifndef CM5_GOLDEN_DIR
#error "CM5_GOLDEN_DIR must be defined by the build (tests/sched/CMakeLists.txt)"
#endif

namespace cm5::sched {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;
using machine::Node;

std::string golden_path(const std::string& name) {
  return std::string(CM5_GOLDEN_DIR) + "/" + name + ".summary";
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

/// One summary line per fact; any change in makespan, message count, or
/// delivered volume shows up as a reviewable one-line diff.
std::string summarize(const sim::RunResult& r) {
  std::int64_t sends = 0;
  std::int64_t receives = 0;
  std::int64_t global_ops = 0;
  for (const sim::NodeCounters& c : r.node_counters) {
    sends += c.sends;
    receives += c.receives;
    global_ops += c.global_ops;
  }
  std::ostringstream out;
  out << "makespan_ns=" << r.makespan << '\n';
  out << "sends=" << sends << '\n';
  out << "receives=" << receives << '\n';
  out << "global_ops=" << global_ops << '\n';
  out << "flows_started=" << r.network.flows_started << '\n';
  out << "flows_completed=" << r.network.flows_completed << '\n';
  return out.str();
}

void check_golden(const std::string& name, std::int32_t nprocs,
                  std::int64_t bytes) {
  Cm5Machine m(MachineParams::cm5_defaults(nprocs));
  const sim::RunResult r = m.run([&](Node& node) {
    complete_exchange(node, ExchangeAlgorithm::Recursive, bytes);
  });
  const std::string text = summarize(r);

  if (test::golden_regen_requested()) {
    write_golden(name, text);
    GTEST_SKIP() << "regenerated " << golden_path(name);
  }
  const std::string golden = read_golden(name);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << golden_path(name)
      << " — run with CM5_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(text, golden)
      << name << ": summary diverged from " << golden_path(name)
      << " (if intentional, regenerate with CM5_REGEN_GOLDEN=1)";
}

TEST(LargeExchangeGolden, Recursive1024x64) {
  check_golden("rex_1024x64", 1024, 64);
}

TEST(LargeExchangeGolden, Recursive2048x64) {
  check_golden("rex_2048x64", 2048, 64);
}

}  // namespace
}  // namespace cm5::sched
