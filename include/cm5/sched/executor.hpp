#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/builders.hpp"
#include "cm5/sched/schedule.hpp"

/// \file executor.hpp
/// Runs a CommSchedule on the simulated machine with CMMD blocking
/// primitives, exactly the way the paper's runtime executes its
/// schedules: step by step, ordered send/receive inside each pair.

namespace cm5::sched {

/// Supplies/consumes real payloads during execution. When absent, the
/// executor moves phantom messages (sizes only).
struct DataPlan {
  /// Returns the outgoing payload for (step-independent) peer; must be
  /// exactly the byte count the schedule carries for that edge.
  std::function<std::vector<std::byte>(NodeId peer)> out;
  /// Consumes an arrived payload.
  std::function<void(NodeId peer, const machine::Message&)> in;
};

struct ExecutorOptions {
  /// Synchronize all processors between steps with a control-network
  /// barrier. The paper's runtime does not (steps align naturally through
  /// the rendezvous); exposed for the A3 ablation.
  bool barrier_per_step = false;
  /// Message tags are tag_base + step so that skewed processors can never
  /// match a message from the wrong step.
  std::int32_t tag_base = 1000;
};

/// Processor `self`'s operations in step `step`, sorted into the
/// executor's canonical deadlock-free order (exchanges and one-way ops
/// by a shared endpoint key). Exposed so alternative executors (e.g.
/// the resilient one) replay the exact same op order.
std::vector<Op> ordered_ops(const CommSchedule& schedule, std::int32_t step,
                            NodeId self);

/// Executes this node's part of `schedule`. Every node of the machine
/// must call this with the same schedule and options.
///
/// Within a step, each processor performs its operations in a canonical
/// global order (exchanges and sends sorted by a shared key); a proof
/// sketch that this cannot deadlock under rendezvous semantics is in the
/// implementation. Exchanges use the paper's Figure 2 ordering: the
/// lower-numbered processor receives first.
void execute_schedule(machine::Node& node, const CommSchedule& schedule,
                      const ExecutorOptions& options = {},
                      const DataPlan* data = nullptr);

/// Convenience: build the schedule for `pattern` with `scheduler` and
/// time its execution on `machine` (phantom payloads).
/// Returns the run result; the makespan is the communication time the
/// paper's tables report.
sim::RunResult run_scheduled_pattern(machine::Cm5Machine& machine,
                                     Scheduler scheduler,
                                     const CommPattern& pattern,
                                     const ExecutorOptions& options = {});

/// Like run_scheduled_pattern, but traced and analyzed through
/// Cm5Machine::run_observed. The step structure is recovered from
/// message tags (tag_base + step), so metrics.observed_steps() is the
/// executed step count to compare with estimate_step_times().
machine::ObservedRun run_scheduled_pattern_observed(
    machine::Cm5Machine& machine, Scheduler scheduler,
    const CommPattern& pattern, const ExecutorOptions& options = {});

}  // namespace cm5::sched
