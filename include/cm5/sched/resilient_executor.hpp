#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/schedule.hpp"
#include "cm5/sim/trace.hpp"
#include "cm5/util/json.hpp"
#include "cm5/util/time.hpp"

/// \file resilient_executor.hpp
/// Fault-tolerant schedule execution: the answer to "what happens to
/// LEX/PEX/BEX/GS schedules when the machine misbehaves?".
///
/// execute_schedule (executor.hpp) assumes a perfect machine: a single
/// dropped message stalls a rendezvous forever, a dead node deadlocks
/// the partition. The resilient executor layers a classic reliability
/// protocol over the same canonical op order:
///
///   * per-step receive timeouts — either the fixed oracle
///     (4 * estimate_step_times()) or Jacobson-style
///     adaptive RTO from per-peer EWMA of observed waits (mean +
///     variance), clamped between a safety floor and the fixed value;
///   * bounded retry with capped, jittered exponential backoff (in
///     virtual time) — see resilient_backoff();
///   * acks carrying copy sequence numbers (at-least-once delivery of
///     dropped messages; stale NACK suppression), plus an end-of-step
///     drain that re-acks duplicate copies and picks up late
///     deliveries, so lost acks cause retries rather than false
///     suspicion;
///   * receiver-side corruption detection (modelling a payload
///     checksum via Message::corrupted) triggering resend;
///   * slow-vs-dead distinction: a node is excised only after staying
///     suspected for suspicion_rounds consecutive agreement rounds, so
///     gray-slow nodes that eventually deliver are waited out;
///   * schedule repair: after every step, live nodes agree via the
///     control network on the suspected-dead set, excise nodes past the
///     suspicion threshold, and report partial delivery honestly;
///   * deterministic checkpoint/resume: after each step's agreement the
///     lowest live node serializes schedule progress (completed steps,
///     agreed dead set, per-edge delivery state, a digest chain) as a
///     ResilientCheckpoint; a killed run resumes by deterministic
///     replay, verifying the digest chain step by step, and finishes
///     with a final report bit-identical to the uninterrupted run.
///
/// Acks travel on tags >= 2^30 (data on 1000 + step), which the
/// default FaultPlan::control_tag_floor exempts from probabilistic
/// faults — they model hardware-acknowledged control traffic. Targeted
/// drops pierce that exemption (see the ack-loss tests).

namespace cm5::sched {

/// How the per-window receive timeout is chosen.
enum class TimeoutPolicy : std::uint8_t {
  /// max(200 us, 4 * step estimate) — the original fixed policy,
  /// retained as the conservative oracle.
  kFixed,
  /// An edge's *first* receive window always uses the fixed deadline
  /// (healthy runs therefore behave exactly like kFixed: zero spurious
  /// timeouts). Once an edge shows evidence of loss — a timeout or a
  /// NACK — subsequent windows use a Jacobson EWMA of observed waits
  /// per peer (normalized by the step estimate): RTO = srtt + 4 *
  /// rttvar, floored at 2 * step estimate, never above the fixed
  /// deadline. Recovery windows (retries, dead peers) therefore shrink
  /// by up to half, which is where faulty runs spend their time.
  kAdaptive,
};

/// Progress snapshot of a resilient run, emitted after each step's
/// repair agreement and sufficient to resume a killed run. Resume is
/// deterministic replay: the simulation kernel cannot be warm-started
/// mid-flight, but every run is bit-reproducible, so the resumed run
/// replays from step 0 and verifies — via config_digest and the
/// step_digests chain — that it passes through exactly the checkpointed
/// states before continuing past them. The final report is bit-identical
/// to the uninterrupted run's.
struct ResilientCheckpoint {
  std::int32_t nprocs = 0;
  std::int32_t num_steps = 0;
  /// Steps whose agreement completed (the checkpoint was emitted at the
  /// end of step steps_completed - 1).
  std::int32_t steps_completed = 0;
  /// Hash of (schedule, protocol options, fault plan, nprocs): a resume
  /// against a different configuration is rejected up front.
  std::uint64_t config_digest = 0;
  /// Per-step digest of the global protocol state at that step's
  /// agreement; 0 = not recorded (no live emitter that step). Indexed by
  /// step, length steps_completed.
  std::vector<std::uint64_t> step_digests;
  /// Agreed dead set at checkpoint time, ascending.
  std::vector<NodeId> dead_nodes;
  /// Delivered edges so far: keys (step * nprocs + src) * nprocs + dst,
  /// ascending.
  std::vector<std::uint64_t> delivered_keys;

  util::json::Value to_json() const;
  /// Throws std::runtime_error on a malformed document.
  static ResilientCheckpoint from_json(const util::json::Value& v);
};

struct ResilientOptions {
  /// Max copies of one message a sender transmits (and max receive
  /// windows a receiver waits) before suspecting the peer dead.
  std::int32_t max_attempts = 8;
  /// Receive-timeout policy; kFixed is the selectable oracle.
  TimeoutPolicy timeout_policy = TimeoutPolicy::kAdaptive;
  /// Backoff before the k-th resend: backoff_base << (k-1), clamped to
  /// backoff_max (overflow-safe), minus deterministic jitter of up to
  /// backoff_jitter of itself. See resilient_backoff().
  util::SimDuration backoff_base = util::from_us(100);
  util::SimDuration backoff_max = util::from_ms(20);
  double backoff_jitter = 0.25;
  /// Consecutive agreement rounds a node must stay suspected before it
  /// is excised. 1 reproduces the original excise-on-first-suspicion
  /// behaviour; the default 2 tolerates one-round glitches (late
  /// deliveries, lost acks, slow nodes).
  std::int32_t suspicion_rounds = 2;
  /// Re-run the same program fault-free to measure makespan overhead
  /// (skipped automatically when no fault plan is installed, and when
  /// stop_after_step cuts the run short).
  bool measure_fault_free_baseline = true;
  /// Optional trace sink for the (faulty) protocol run — pure
  /// observation, installed only for the measured run, never for the
  /// fault-free baseline. Feed a sim::TraceRecorder here and hand the
  /// events to sim::analyze / sim::validate_trace.
  sim::TraceSink trace;
  /// When set, the lowest live node emits a checkpoint through this sink
  /// after each step's agreement (called from inside the simulation;
  /// must not call back into it).
  std::function<void(const ResilientCheckpoint&)> checkpoint_sink;
  /// Simulated kill switch: end every node's program cleanly after this
  /// step's agreement (-1 = run the whole schedule). The checkpoint
  /// emitted at that step is the resume token.
  std::int32_t stop_after_step = -1;
  /// Resume token from a killed run: verifies config_digest before
  /// running and the step_digests chain during replay (throwing
  /// util::CheckError on divergence), then produces the same report the
  /// uninterrupted run would have.
  std::shared_ptr<const ResilientCheckpoint> resume_from;
};

/// Virtual-time backoff before resend `attempt` (0-based): backoff_base
/// doubled per prior attempt, clamped to backoff_max without ever
/// overflowing SimDuration, then reduced by a deterministic jitter drawn
/// from `key` (up to backoff_jitter of the clamped value). Exposed for
/// the boundary unit tests.
util::SimDuration resilient_backoff(const ResilientOptions& options,
                                    std::int32_t attempt, std::uint64_t key);

/// A directed schedule edge that no surviving node could confirm.
struct LostEdge {
  std::int32_t step = 0;
  NodeId src = -1;
  NodeId dst = -1;
  std::int64_t bytes = 0;
};

struct ResilientRunReport {
  std::int64_t edges_total = 0;      ///< directed messages in the schedule
  std::int64_t edges_delivered = 0;  ///< confirmed by a surviving receiver
  std::int64_t retries = 0;          ///< copies sent beyond the first
  std::int64_t recv_timeouts = 0;    ///< receive windows that expired
  std::int64_t corrupt_detected = 0; ///< checksum failures (NACKed)
  std::int32_t repairs = 0;          ///< schedule-repair events (dead-set growth)
  std::int32_t steps_completed = 0;  ///< agreements run (== num_steps unless stopped)
  std::vector<NodeId> dead_nodes;    ///< agreed dead set, ascending
  std::vector<LostEdge> lost_edges;  ///< sorted by (step, src, dst)
  util::SimTime makespan = 0;
  /// Makespan of the identical program with faults disabled (equals
  /// `makespan` when no plan was installed / baseline not measured).
  util::SimTime fault_free_makespan = 0;
  sim::RunResult run;

  /// Fraction of schedule edges confirmed delivered.
  double delivery_rate() const noexcept {
    return edges_total == 0
               ? 1.0
               : static_cast<double>(edges_delivered) /
                     static_cast<double>(edges_total);
  }
  /// makespan / fault_free_makespan (1.0 when no baseline).
  double makespan_overhead() const noexcept {
    return fault_free_makespan <= 0
               ? 1.0
               : static_cast<double>(makespan) /
                     static_cast<double>(fault_free_makespan);
  }
  std::string to_string() const;

  /// Machine-readable form of the report (delivery counts, retries,
  /// dead set, lost edges, makespans) for the bench metrics files.
  util::json::Value to_json() const;
};

/// Runs `schedule` on `machine` (with whatever fault plan the machine
/// carries) under the resilient protocol and reports what happened.
/// Every run with the same machine, schedule, options, and plan seed is
/// bit-for-bit reproducible.
ResilientRunReport run_resilient_schedule(machine::Cm5Machine& machine,
                                          const CommSchedule& schedule,
                                          const ResilientOptions& options = {});

}  // namespace cm5::sched
