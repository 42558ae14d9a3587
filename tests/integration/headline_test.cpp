#include <gtest/gtest.h>

#include "cm5/machine/machine.hpp"
#include "cm5/mesh/generate.hpp"
#include "cm5/mesh/halo.hpp"
#include "cm5/mesh/partition.hpp"
#include "cm5/patterns/synthetic.hpp"
#include "cm5/sched/broadcast.hpp"
#include "cm5/sched/complete_exchange.hpp"
#include "cm5/sched/executor.hpp"
#include "cm5/util/time.hpp"

/// Integration tests that pin the *headline reproduction results* of
/// EXPERIMENTS.md. Each test reruns a (reduced) version of a paper
/// experiment end-to-end through every layer of the stack and asserts
/// the ordering the paper reports. If a model or calibration change
/// flips one of these, the reproduction claims in EXPERIMENTS.md are
/// stale and must be revisited.

namespace cm5 {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;
using machine::Node;
using util::SimDuration;

SimDuration exchange_time(std::int32_t nprocs, sched::ExchangeAlgorithm alg,
                          std::int64_t bytes) {
  Cm5Machine m(MachineParams::cm5_defaults(nprocs));
  return m
      .run([&](Node& node) { sched::complete_exchange(node, alg, bytes); })
      .makespan;
}

SimDuration broadcast_time(std::int32_t nprocs, sched::BroadcastAlgorithm alg,
                           std::int64_t bytes) {
  Cm5Machine m(MachineParams::cm5_defaults(nprocs));
  return m.run([&](Node& node) { sched::broadcast(node, alg, 0, bytes); })
      .makespan;
}

SimDuration irregular_time(const sched::CommPattern& pattern,
                           sched::Scheduler scheduler) {
  Cm5Machine m(MachineParams::cm5_defaults(pattern.nprocs()));
  sched::ExecutorOptions options;
  options.barrier_per_step = true;  // the paper's step-synchronized runtime
  return sched::run_scheduled_pattern(m, scheduler, pattern, options).makespan;
}

// --- Figure 5 ----------------------------------------------------------------

TEST(HeadlineTest, Fig5LargeMessages32Nodes_BexBeatsPexBeatsRex) {
  const auto lex = exchange_time(32, sched::ExchangeAlgorithm::Linear, 2048);
  const auto pex = exchange_time(32, sched::ExchangeAlgorithm::Pairwise, 2048);
  const auto rex = exchange_time(32, sched::ExchangeAlgorithm::Recursive, 2048);
  const auto bex = exchange_time(32, sched::ExchangeAlgorithm::Balanced, 2048);
  EXPECT_LT(bex, pex);
  EXPECT_LT(pex, rex);
  EXPECT_GT(lex, 3 * pex);
}

// --- Figure 6 ----------------------------------------------------------------

TEST(HeadlineTest, Fig6ZeroBytes_RexBestAtEveryMachineSize) {
  for (const std::int32_t n : {32, 64, 128}) {
    const auto pex = exchange_time(n, sched::ExchangeAlgorithm::Pairwise, 0);
    const auto rex = exchange_time(n, sched::ExchangeAlgorithm::Recursive, 0);
    const auto bex = exchange_time(n, sched::ExchangeAlgorithm::Balanced, 0);
    EXPECT_LT(rex, pex) << n;
    EXPECT_LT(rex, bex) << n;
  }
}

TEST(HeadlineTest, Fig6At256Bytes_BalancedBest) {
  for (const std::int32_t n : {32, 64, 128}) {
    const auto pex = exchange_time(n, sched::ExchangeAlgorithm::Pairwise, 256);
    const auto bex = exchange_time(n, sched::ExchangeAlgorithm::Balanced, 256);
    EXPECT_LT(bex, pex) << n;
  }
}

// --- Figures 10/11 -----------------------------------------------------------

TEST(HeadlineTest, BroadcastCrossoversMatchPaper) {
  using BA = sched::BroadcastAlgorithm;
  // 32 nodes: system wins at 512 B, REB wins beyond ~1 KB.
  EXPECT_LT(broadcast_time(32, BA::System, 512),
            broadcast_time(32, BA::Recursive, 512));
  EXPECT_LT(broadcast_time(32, BA::Recursive, 2048),
            broadcast_time(32, BA::System, 2048));
  // 256 nodes: the crossover moves out to ~2 KB.
  EXPECT_LT(broadcast_time(256, BA::System, 1024),
            broadcast_time(256, BA::Recursive, 1024));
  EXPECT_LT(broadcast_time(256, BA::Recursive, 4096),
            broadcast_time(256, BA::System, 4096));
}

TEST(HeadlineTest, Fig11SystemBroadcastFlatInMachineSize) {
  // The control network's broadcast costs the same on every partition
  // size; REB pays one more recursive step per doubling.
  using BA = sched::BroadcastAlgorithm;
  const SimDuration system32 = broadcast_time(32, BA::System, 1024);
  SimDuration previous_reb = 0;
  for (const std::int32_t n : {32, 64, 128, 256}) {
    EXPECT_EQ(broadcast_time(n, BA::System, 1024), system32) << n;
    const SimDuration reb = broadcast_time(n, BA::Recursive, 1024);
    EXPECT_GT(reb, previous_reb) << n;
    previous_reb = reb;
  }
}

// --- Table 11 ----------------------------------------------------------------

TEST(HeadlineTest, Table11Orderings) {
  const std::int64_t bytes = 256;
  // 10%: greedy best, linear worst.
  {
    const auto p = patterns::exact_density(32, 0.10, bytes, 0xCE5 + 256);
    const auto linear = irregular_time(p, sched::Scheduler::Linear);
    const auto pairwise = irregular_time(p, sched::Scheduler::Pairwise);
    const auto balanced = irregular_time(p, sched::Scheduler::Balanced);
    const auto greedy = irregular_time(p, sched::Scheduler::Greedy);
    EXPECT_LT(greedy, pairwise);
    EXPECT_LT(greedy, balanced);
    EXPECT_GT(linear, 2 * pairwise);
  }
  // 75%: balanced best, greedy beaten by both xor schedules.
  {
    const auto p = patterns::exact_density(32, 0.75, bytes, 0xCE5 + 256);
    const auto linear = irregular_time(p, sched::Scheduler::Linear);
    const auto pairwise = irregular_time(p, sched::Scheduler::Pairwise);
    const auto balanced = irregular_time(p, sched::Scheduler::Balanced);
    const auto greedy = irregular_time(p, sched::Scheduler::Greedy);
    EXPECT_LT(balanced, greedy);
    EXPECT_LT(pairwise, greedy);
    EXPECT_LE(balanced, pairwise);
    EXPECT_GT(linear, 4 * balanced);
  }
}

// --- Table 12 ----------------------------------------------------------------

TEST(HeadlineTest, Table12RealWorkloads_GreedyWins) {
  // One representative mesh workload end-to-end: generate, partition,
  // extract the halo pattern, schedule with all four, compare.
  const mesh::TriMesh m = mesh::airfoil_with_target(2048, 0xA1F01);
  const auto part = mesh::rcb_vertex_partition(m, 32);
  const mesh::HaloPlan halo = mesh::build_vertex_halo(m, part, 32);
  const auto pattern = halo.pattern(32);
  ASSERT_LT(pattern.density(), 0.5) << "workload left the greedy regime";

  const auto linear = irregular_time(pattern, sched::Scheduler::Linear);
  const auto pairwise = irregular_time(pattern, sched::Scheduler::Pairwise);
  const auto balanced = irregular_time(pattern, sched::Scheduler::Balanced);
  const auto greedy = irregular_time(pattern, sched::Scheduler::Greedy);
  EXPECT_LT(greedy, pairwise);
  EXPECT_LT(greedy, balanced);
  EXPECT_LT(greedy, linear);
  EXPECT_GT(linear, 2 * pairwise);
}

// --- cross-layer determinism -------------------------------------------------

TEST(HeadlineTest, WholeStackIsDeterministic) {
  auto one_run = [] {
    const auto p = patterns::exact_density(16, 0.4, 512, 99);
    Cm5Machine m(MachineParams::cm5_defaults(16));
    sched::ExecutorOptions options;
    options.barrier_per_step = true;
    return sched::run_scheduled_pattern(m, sched::Scheduler::Greedy, p,
                                        options);
  };
  const auto a = one_run();
  const auto b = one_run();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.network.rate_solves, b.network.rate_solves);
  EXPECT_EQ(a.network.bytes_by_level, b.network.bytes_by_level);
}

}  // namespace
}  // namespace cm5
