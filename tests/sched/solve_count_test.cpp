#include <gtest/gtest.h>

#include <cstdint>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/complete_exchange.hpp"

/// \file solve_count_test.cpp
/// Pins the number of max-min rate solves of one REX (recursive
/// exchange, §3.3) on 4096 nodes at 64 B. Every REX step starts one
/// message per node at the same instant; the kernel solves the rates for
/// such a batch of starts once, when time next has to advance. Solving
/// after every start instead (one solve per flow, 49 152 here) reads
/// 49 470; the count below is what the lazy batch solve gives. The run's
/// output is unchanged either way, so this count is the one check that
/// guards the mechanism.

namespace cm5::sched {
namespace {

TEST(SolveCount, Rex4096At64BytesSolvesOncePerInstant) {
  constexpr std::int32_t kNodes = 4096;
  machine::Cm5Machine m(machine::MachineParams::cm5_defaults(kNodes));
  const sim::RunResult r = m.run([](machine::Node& node) {
    complete_exchange(node, ExchangeAlgorithm::Recursive, 64);
  });
  EXPECT_EQ(r.network.flows_started, kNodes * 12);  // lg N sends per node
  EXPECT_EQ(r.network.rate_solves, 665);
}

}  // namespace
}  // namespace cm5::sched
