#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/patterns/synthetic.hpp"
#include "cm5/sched/builders.hpp"
#include "cm5/sched/resilient_executor.hpp"
#include "cm5/sim/fault.hpp"
#include "cm5/util/time.hpp"

/// Timed primitives, run twice. The stream executor's whole determinism
/// story rests on receive_timeout and try_barrier expiring at the *same
/// simulated instant* on every run — a wakeup delivered early or late
/// would silently skew every resilient recovery window. These tests pin:
///
///   * expiry instants of both timed primitives, observed per node,
///     byte-identical across two runs;
///   * the resilient executor's drop-driven recovery windows (its retry
///     loop is built on receive_timeout) producing byte-identical run
///     reports across two runs, with recv_timeouts > 0 proving the
///     windows actually expired rather than the run staying on the fast
///     path.

namespace cm5 {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;
using machine::Node;
using util::from_us;

constexpr std::int32_t kNodes = 8;

/// One observed expiry: (node, simulated time, which primitive).
struct Expiry {
  std::int32_t node = 0;
  std::int64_t at = 0;
  std::int32_t kind = 0;  // 0 = receive_timeout, 1 = try_barrier
};

std::string dump_expiries(std::vector<Expiry> expiries) {
  std::sort(expiries.begin(), expiries.end(),
            [](const Expiry& a, const Expiry& b) {
              return std::tie(a.node, a.kind, a.at) <
                     std::tie(b.node, b.kind, b.at);
            });
  std::string out;
  for (const Expiry& e : expiries) {
    out += std::to_string(e.node) + "/" + std::to_string(e.kind) + "@" +
           std::to_string(e.at) + "\n";
  }
  return out;
}

/// Runs the timed-primitive program and returns (makespan, sorted expiry
/// log).
std::pair<std::int64_t, std::string> run_timed_program() {
  Cm5Machine m(MachineParams::cm5_defaults(kNodes));
  std::vector<Expiry> expiries;
  const auto record = [&](std::int32_t node, std::int64_t at,
                          std::int32_t kind) {
    expiries.push_back({node, at, kind});
  };
  const auto result = m.run([&](Node& node) {
    const std::int32_t self = node.self();
    // Stagger the nodes so their waits interleave, then post a
    // receive nobody will ever satisfy: it must expire exactly 40 us
    // after it was posted.
    node.compute(from_us(self * 3));
    const auto nothing =
        node.receive_timeout((self + 1) % kNodes, 4242, from_us(40));
    EXPECT_FALSE(nothing.has_value());
    record(self, node.now(), 0);

    // Some real traffic in between, so expiries interleave with
    // rendezvous wakeups instead of running on an idle machine.
    const std::int32_t next = (self + 1) % kNodes;
    const std::int32_t prev = (self + kNodes - 1) % kNodes;
    if (self % 2 == 0) {
      node.send_block(next, 256, 7);
      (void)node.receive_block(prev, 7);
    } else {
      (void)node.receive_block(prev, 7);
      node.send_block(next, 256, 7);
    }

    // A timed barrier node 0 never joins in time: every other node's
    // withdrawal instant must repeat.
    if (self == 0) {
      node.compute(from_us(5000));
      node.barrier();
    } else {
      EXPECT_FALSE(node.try_barrier(from_us(15)));
      record(self, node.now(), 1);
      node.barrier();
    }
  });
  return {result.makespan, dump_expiries(std::move(expiries))};
}

TEST(TimedPrimitivesDeterminism, ExpiryInstantsRepeat) {
  const auto first = run_timed_program();
  EXPECT_FALSE(first.second.empty());
  const auto second = run_timed_program();
  EXPECT_EQ(second.first, first.first) << "makespan";
  EXPECT_EQ(second.second, first.second) << "expiry log diverged";
}

/// The resilient executor's recovery windows are receive_timeout calls;
/// heavy drops force them to expire and drive the retry loop.
std::string run_resilient_under_drops(std::int64_t* recv_timeouts) {
  const auto pattern =
      patterns::random_density(kNodes, 0.45, 512, /*seed=*/923);
  const auto schedule =
      sched::build_schedule(sched::Scheduler::Greedy, pattern);

  sim::FaultPlan plan;
  plan.seed = 31;
  plan.drop_prob = 0.25;  // drop-heavy: many receive windows must expire
  plan.burst.p_enter = 0.05;
  plan.burst.p_exit = 0.3;
  plan.burst.loss_bad = 0.8;

  Cm5Machine m(MachineParams::cm5_defaults(kNodes));
  m.set_fault_plan(plan);

  sched::ResilientOptions options;
  options.max_attempts = 6;
  const sched::ResilientRunReport report =
      sched::run_resilient_schedule(m, schedule, options);
  EXPECT_EQ(report.edges_delivered, report.edges_total);
  *recv_timeouts = report.recv_timeouts;
  return report.to_json().dump();
}

TEST(TimedPrimitivesDeterminism, RecoveryWindowsRepeat) {
  std::int64_t first_timeouts = 0;
  const std::string first = run_resilient_under_drops(&first_timeouts);
  // The point of the scenario: recovery windows really expired.
  EXPECT_GT(first_timeouts, 0);

  std::int64_t second_timeouts = 0;
  const std::string second = run_resilient_under_drops(&second_timeouts);
  EXPECT_EQ(second, first) << "resilient report diverged";
  EXPECT_EQ(second_timeouts, first_timeouts);
}

}  // namespace
}  // namespace cm5
