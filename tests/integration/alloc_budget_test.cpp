#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/executor.hpp"
#include "cm5/sched/schedule.hpp"

/// Allocation budget of a simulated run. This binary replaces the global
/// operator new and delete with a counting pair, so it stands alone: a
/// warm machine must run a schedule without any allocation that grows
/// with its steps or messages. A run's containers still double as they
/// fill (a handful of allocations per run), so the test compares a
/// 64-step run with a 32-step one: a per-step or per-message term would
/// add over a thousand allocations, the doubling containers a few dozen
/// at most.
///
/// Out of scope: the resilient executor's ACK payloads
/// (NodeSession::send_ack through send_async_data) are the one known
/// per-message allocation left, a small byte vector per acknowledgement.

namespace {

std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace cm5 {
namespace {

constexpr std::int32_t kNodes = 32;

/// `steps` steps; in step s every node sends 512 phantom bytes to the
/// node (s mod 31) + 1 places ahead, so every step moves 32 messages.
sched::CommSchedule shift_schedule(std::int32_t steps) {
  sched::CommSchedule schedule(kNodes);
  for (std::int32_t s = 0; s < steps; ++s) {
    const std::int32_t step = schedule.add_step();
    for (net::NodeId src = 0; src < kNodes; ++src) {
      schedule.add_send(step, src, (src + s % (kNodes - 1) + 1) % kNodes, 512);
    }
  }
  return schedule;
}

template <class Run>
std::size_t allocations_of(Run&& run) {
  const std::size_t before = g_allocations;
  run();
  return g_allocations - before;
}

class AllocBudgetTest : public ::testing::Test {
 protected:
  machine::Cm5Machine machine_{machine::MachineParams::cm5_defaults(kNodes)};
  const sched::CommSchedule short_ = shift_schedule(32);
  const sched::CommSchedule long_ = shift_schedule(64);

  static machine::Program program(const sched::CommSchedule& schedule) {
    return [&schedule](machine::Node& node) {
      sched::ExecutorOptions options;
      options.barrier_per_step = true;
      sched::execute_schedule(node, schedule, options);
    };
  }
};

TEST_F(AllocBudgetTest, RunAllocatesNothingPerStepOrMessage) {
  const auto run = [&](const sched::CommSchedule& schedule) {
    return allocations_of([&] { (void)machine_.run(program(schedule)); });
  };
  (void)run(long_);  // warm: fiber stacks, lazily built tables
  const std::size_t short_run = run(short_);
  const std::size_t long_run = run(long_);
  EXPECT_LT(long_run, short_run + 64)
      << short_run << " allocations for 32 steps, " << long_run << " for 64";
}

TEST_F(AllocBudgetTest, ObservedRunAllocatesNothingPerStepOrMessage) {
  const auto run = [&](const sched::CommSchedule& schedule) {
    return allocations_of([&] {
      const machine::ObservedRun observed =
          machine_.run_observed(program(schedule));
      EXPECT_TRUE(observed.violations.empty());
    });
  };
  (void)run(long_);
  const std::size_t short_run = run(short_);
  const std::size_t long_run = run(long_);
  EXPECT_LT(long_run, short_run + 64)
      << short_run << " allocations for 32 steps, " << long_run << " for 64";
}

}  // namespace
}  // namespace cm5
