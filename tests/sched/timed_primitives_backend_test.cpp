#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/patterns/synthetic.hpp"
#include "cm5/sched/builders.hpp"
#include "cm5/sched/resilient_executor.hpp"
#include "cm5/sim/exec_backend.hpp"
#include "cm5/sim/fault.hpp"
#include "cm5/util/time.hpp"

/// Timed primitives on both execution backends. The stream executor's
/// whole determinism story rests on receive_timeout and try_barrier
/// expiring at the *same simulated instant* regardless of which host
/// mechanism carries the node programs — a backend that delivers a
/// wakeup early or late would silently skew every resilient recovery
/// window. These tests pin:
///
///   * expiry instants of both timed primitives, observed per node,
///     byte-identical across kFibers and kThreads;
///   * the resilient executor's drop-driven recovery windows (its retry
///     loop is built on receive_timeout) producing byte-identical run
///     reports across backends, with recv_timeouts > 0 proving the
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

/// Runs the timed-primitive program on one backend and returns
/// (makespan, sorted expiry log).
std::pair<std::int64_t, std::string> run_timed_program(
    sim::ExecutionModel model) {
  Cm5Machine m(MachineParams::cm5_defaults(kNodes));
  m.set_execution_model(model);
  std::mutex mu;
  std::vector<Expiry> expiries;
  const auto record = [&](std::int32_t node, std::int64_t at,
                          std::int32_t kind) {
    const std::lock_guard<std::mutex> lock(mu);
    expiries.push_back({node, at, kind});
  };
  const auto result = m.run([&](Node& node) {
    const std::int32_t self = node.self();
    // Stagger the nodes so their waits interleave, then post a
    // receive nobody will ever satisfy: it must expire exactly 40 us
    // after it was posted, on every backend.
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
    // withdrawal instant must agree across backends.
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

TEST(TimedPrimitivesAcrossBackends, ExpiryInstantsAgree) {
  const auto fibers = run_timed_program(sim::ExecutionModel::kFibers);
  EXPECT_FALSE(fibers.second.empty());
  const auto threads = run_timed_program(sim::ExecutionModel::kThreads);
  EXPECT_EQ(threads.first, fibers.first) << "makespan";
  EXPECT_EQ(threads.second, fibers.second) << "expiry log diverged";
}

/// The resilient executor's recovery windows are receive_timeout calls;
/// heavy drops force them to expire and drive the retry loop.
std::string run_resilient_under_drops(sim::ExecutionModel model,
                                      std::int64_t* recv_timeouts) {
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
  m.set_execution_model(model);
  m.set_fault_plan(plan);

  sched::ResilientOptions options;
  options.max_attempts = 6;
  const sched::ResilientRunReport report =
      sched::run_resilient_schedule(m, schedule, options);
  EXPECT_EQ(report.edges_delivered, report.edges_total);
  *recv_timeouts = report.recv_timeouts;
  return report.to_json().dump();
}

TEST(TimedPrimitivesAcrossBackends, RecoveryWindowsAgree) {
  std::int64_t fiber_timeouts = 0;
  const std::string fibers = run_resilient_under_drops(
      sim::ExecutionModel::kFibers, &fiber_timeouts);
  // The point of the scenario: recovery windows really expired.
  EXPECT_GT(fiber_timeouts, 0);

  std::int64_t thread_timeouts = 0;
  const std::string threads = run_resilient_under_drops(
      sim::ExecutionModel::kThreads, &thread_timeouts);
  EXPECT_EQ(threads, fibers) << "resilient report diverged";
  EXPECT_EQ(thread_timeouts, fiber_timeouts);
}

}  // namespace
}  // namespace cm5
