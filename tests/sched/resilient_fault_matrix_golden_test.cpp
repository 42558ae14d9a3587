#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/machine/params.hpp"
#include "cm5/patterns/synthetic.hpp"
#include "cm5/sched/builders.hpp"
#include "cm5/sched/pattern.hpp"
#include "cm5/sched/resilient_executor.hpp"
#include "cm5/sim/fault.hpp"
#include "cm5/util/time.hpp"
#include "golden_regen.hpp"

/// Golden baselines for the fault matrix (bench/ext_fault_matrix.cpp):
/// the resilient executor run against every fault class — probabilistic,
/// correlated (burst loss, partition, gray slowdown) and fail-stop — at
/// the bench's configuration (16 nodes, 512 B complete exchange plus a
/// 40% irregular pattern). Every run is bit-reproducible, so the
/// committed summary pins delivery counts, retry/timeout/repair totals,
/// the agreed dead set and the exact makespan per (scheduler, scenario)
/// cell. Any change to the fault model, the retry protocol, or the
/// adaptive timeout policy shows up here as a reviewable one-line diff.
///
/// To regenerate after an intentional change:
///
///   CM5_REGEN_GOLDEN=1 ctest -R sched_resilient_fault_matrix_golden
///
/// then commit the updated file under tests/sched/golden/.

#ifndef CM5_GOLDEN_DIR
#error "CM5_GOLDEN_DIR must be defined by the build (tests/sched/CMakeLists.txt)"
#endif

namespace cm5::sched {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;
using util::from_us;

constexpr std::int32_t kNodes = 16;
constexpr std::int64_t kBytes = 512;

std::string golden_path() {
  return std::string(CM5_GOLDEN_DIR) + "/fault_matrix.summary";
}

/// Mirrors bench/ext_fault_matrix.cpp's full scenario list (same seeds,
/// same parameters) so the golden is the bench's deterministic core.
std::vector<std::pair<std::string, std::optional<sim::FaultPlan>>>
make_scenarios() {
  std::vector<std::pair<std::string, std::optional<sim::FaultPlan>>> out;
  out.emplace_back("healthy", std::nullopt);

  sim::FaultPlan drop;
  drop.seed = 17;
  drop.drop_prob = 0.01;
  out.emplace_back("drop1%", drop);

  sim::FaultPlan delay;
  delay.seed = 17;
  delay.delay_prob = 0.2;
  delay.delay = from_us(200);
  out.emplace_back("delay20%", delay);

  sim::FaultPlan degrade;
  degrade.degrades.push_back({3, 0, 0.25});
  out.emplace_back("degrade", degrade);

  sim::FaultPlan burst;
  burst.seed = 17;
  burst.burst = {0.02, 0.25, 0.0, 0.8};
  out.emplace_back("burst", burst);

  sim::FaultPlan partition;
  partition.partitions.push_back({1, 0, 0, from_us(400)});
  out.emplace_back("partition", partition);

  sim::FaultPlan slow;
  slow.slowdowns.push_back({9, 0, util::kTimeNever, 3.0});
  out.emplace_back("grayslow", slow);

  sim::FaultPlan failstop;
  failstop.deaths.push_back({5, 0});
  out.emplace_back("failstop", failstop);
  return out;
}

std::string summarize_cell(const std::string& family,
                           const std::string& scheduler,
                           const std::string& scenario,
                           const ResilientRunReport& r) {
  std::ostringstream out;
  out << family << '/' << scheduler << '/' << scenario << ": delivered="
      << r.edges_delivered << '/' << r.edges_total
      << " retries=" << r.retries << " timeouts=" << r.recv_timeouts
      << " corrupt=" << r.corrupt_detected << " repairs=" << r.repairs
      << " dead=[";
  for (std::size_t i = 0; i < r.dead_nodes.size(); ++i) {
    if (i > 0) out << ',';
    out << r.dead_nodes[i];
  }
  out << "] lost=" << r.lost_edges.size() << " makespan_ns=" << r.makespan
      << '\n';
  return out.str();
}

std::string build_summary() {
  const struct {
    const char* label;
    Scheduler scheduler;
  } algorithms[] = {
      {"Linear", Scheduler::Linear},
      {"Pairwise", Scheduler::Pairwise},
      {"Balanced", Scheduler::Balanced},
      {"Greedy", Scheduler::Greedy},
  };
  const CommPattern complete = CommPattern::complete_exchange(kNodes, kBytes);
  const CommPattern irregular =
      patterns::random_density(kNodes, 0.4, kBytes, 5);

  ResilientOptions options;
  options.measure_fault_free_baseline = false;

  std::string text;
  for (const auto& alg : algorithms) {
    const CommSchedule schedule = build_schedule(alg.scheduler, complete);
    for (const auto& [name, plan] : make_scenarios()) {
      Cm5Machine machine(MachineParams::cm5_defaults(kNodes));
      if (plan) machine.set_fault_plan(*plan);
      const ResilientRunReport report =
          run_resilient_schedule(machine, schedule, options);
      text += summarize_cell("complete", alg.label, name, report);
    }
  }
  // One irregular family pins the estimator-driven timeouts on an
  // uneven schedule too.
  const CommSchedule greedy = build_schedule(Scheduler::Greedy, irregular);
  for (const auto& [name, plan] : make_scenarios()) {
    Cm5Machine machine(MachineParams::cm5_defaults(kNodes));
    if (plan) machine.set_fault_plan(*plan);
    const ResilientRunReport report =
        run_resilient_schedule(machine, greedy, options);
    text += summarize_cell("irregular40", "Greedy", name, report);
  }
  return text;
}

TEST(ResilientFaultMatrixGolden, SummaryMatchesCommittedBaseline) {
  const std::string text = build_summary();
  if (test::golden_regen_requested()) {
    std::ofstream out(golden_path(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << text;
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << golden_path()
      << " — run with CM5_REGEN_GOLDEN=1 to create it";
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(text, ss.str())
      << "fault-matrix summary diverged from " << golden_path()
      << " (if intentional, regenerate with CM5_REGEN_GOLDEN=1)";
}

}  // namespace
}  // namespace cm5::sched
