#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cm5/net/topology.hpp"
#include "cm5/sim/kernel.hpp"
#include "cm5/sim/trace.hpp"
#include "cm5/util/json.hpp"
#include "cm5/util/time.hpp"

/// \file metrics.hpp
/// Run metrics and trace invariants: the observability layer over the
/// event stream a simulation emits (cm5/sim/trace.hpp).
///
/// The paper's conclusions are explanations of *time breakdowns* — LEX
/// loses because blocking sends serialize at hot receivers (§3.1), REX
/// wins at 0 bytes because it runs lg N steps instead of N-1 (§3.3).
/// A makespan alone cannot confirm either mechanism. analyze() turns a
/// trace into per-node time breakdowns, per-step start/end/straggler
/// stats, a traffic matrix and hot-receiver contention counts, all of
/// which serialize to JSON (cm5/util/json.hpp) for the bench harnesses
/// and tools/trace_analyzer. validate_trace() checks the structural
/// invariants every correct simulation must satisfy, so any test can
/// assert them on any run — including fault-injection runs.
///
/// Everything here is pure observation: analysis never touches the
/// kernel, and installing a trace sink never perturbs virtual time.

namespace cm5::sim {

/// Where one node's virtual time went, from t=0 to the run's makespan.
/// The five wait buckets plus compute partition the node's lifetime
/// exactly: compute + waits + idle_tail == makespan (validated by
/// metrics tests). Derivation: a node's clock only moves inside
/// advance() (traced as Compute) or while blocked in a kernel call, so
/// the gap between two consecutive node actions is wait time attributed
/// to whatever call the node was blocked in.
struct NodeTimeBreakdown {
  net::NodeId node = -1;
  util::SimDuration compute = 0;       ///< charged via advance()
  util::SimDuration send_wait = 0;     ///< blocked in sync send / swap
  util::SimDuration recv_wait = 0;     ///< blocked in receive
  util::SimDuration barrier_wait = 0;  ///< blocked in a control-network op
  /// Blocked time not attributable to a traced call — today this is only
  /// wait_async_sends() drains (which emit no post event).
  util::SimDuration other_wait = 0;
  util::SimDuration idle_tail = 0;  ///< program done, others still running
  util::SimTime finish = 0;         ///< when the node's program returned

  std::int64_t messages_out = 0;  ///< sends + swaps posted
  std::int64_t messages_in = 0;   ///< transfers delivered to this node
  std::int64_t bytes_out = 0;     ///< user bytes posted
  std::int64_t bytes_in = 0;      ///< user bytes delivered (drops excluded)
  /// Union of this node's in-transfer intervals (as sender or receiver):
  /// how long its network port had at least one active transfer.
  util::SimDuration port_busy = 0;

  util::SimDuration total_wait() const noexcept {
    return send_wait + recv_wait + barrier_wait + other_wait;
  }
};

/// One schedule step, identified by message tag. Every communication
/// algorithm in this repo encodes its step in the tag (the executor uses
/// tag_base + step; LEX uses the target id; PEX/BEX the XOR index; REX
/// the round), so grouping by tag recovers the step structure the paper
/// reasons about without instrumenting any scheduler.
struct StepMetrics {
  std::int32_t tag = 0;
  util::SimTime first_post = 0;     ///< earliest send/swap post
  util::SimTime last_post = 0;      ///< latest send/swap post (straggler)
  util::SimTime last_complete = 0;  ///< latest transfer completion
  std::int64_t messages = 0;        ///< posts carrying this tag
  std::int64_t bytes = 0;           ///< user bytes posted with this tag
  /// Max over receivers of messages aimed at that receiver within this
  /// step — LEX's serialization shows up here as N-1 vs PEX's 1.
  std::int32_t max_receiver_messages = 0;
  net::NodeId hot_receiver = -1;  ///< receiver attaining the max

  /// first post .. last completion: the step's wall extent.
  util::SimDuration span() const noexcept { return last_complete - first_post; }
  /// Post-time spread across processors: the straggler skew.
  util::SimDuration post_skew() const noexcept {
    return last_post - first_post;
  }
};

/// Delivered traffic on one (src, dst) pair.
struct LinkTraffic {
  net::NodeId src = -1;
  net::NodeId dst = -1;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
};

/// Everything analyze() derives from one run's event stream.
struct RunMetrics {
  std::int32_t nprocs = 0;
  /// max node finish time (== RunResult::makespan; cross-checked by
  /// validate_trace when a RunResult is supplied).
  util::SimTime makespan = 0;
  std::int64_t num_events = 0;

  // --- totals ----------------------------------------------------------
  std::int64_t messages_posted = 0;     ///< SendPosted + SwapPosted
  std::int64_t transfers_started = 0;   ///< entered the data network
  std::int64_t transfers_completed = 0; ///< left the data network
  std::int64_t transfers_dropped = 0;   ///< FaultDrop events
  std::int64_t bytes_posted = 0;
  std::int64_t bytes_delivered = 0;  ///< completed minus dropped
  std::int64_t bytes_dropped = 0;
  std::int64_t global_ops = 0;  ///< GlobalOpEnter events

  // --- structure -------------------------------------------------------
  std::vector<NodeTimeBreakdown> nodes;  ///< one per node, by id
  std::vector<StepMetrics> steps;        ///< sorted by tag
  std::vector<LinkTraffic> links;        ///< sorted by (src, dst)

  // --- contention ------------------------------------------------------
  /// Per node: peak number of simultaneously pending sends targeting it
  /// (posted, not yet completed). Under rendezvous messaging a pending
  /// send is a *blocked sender*, so this is exactly the paper's
  /// "sends serialize at the receiver" in one number.
  std::vector<std::int32_t> max_pending_per_receiver;
  std::int32_t max_pending = 0;       ///< max over receivers
  net::NodeId hot_node = -1;          ///< receiver attaining max_pending

  /// Distinct step tags observed — REX's lg N shows up here.
  std::int32_t observed_steps() const noexcept {
    return static_cast<std::int32_t>(steps.size());
  }
  /// Max over steps of max_receiver_messages.
  std::int32_t max_step_receiver_messages() const noexcept;

  // --- aggregates over nodes ------------------------------------------
  util::SimDuration total_compute() const noexcept;
  util::SimDuration total_send_wait() const noexcept;
  util::SimDuration total_recv_wait() const noexcept;
  util::SimDuration total_barrier_wait() const noexcept;

  /// Serializes. `full` adds the per-node, per-step and per-link arrays;
  /// the summary form (what every bench emits per table cell) carries
  /// totals, aggregate time breakdown and contention only.
  util::json::Value to_json(bool full = false) const;
};

/// Order statistics of a set of virtual-time latency samples — the
/// summary shape every streaming-service artifact reports (per-request
/// queue wait / service time / end-to-end latency in the stream
/// executor, and the BENCH_ext_stream.json rows). Percentiles use the
/// nearest-rank method on the sorted samples (p50 of one sample is that
/// sample), so every field is an exact observed value: integer, and
/// bit-reproducible wherever the samples are.
struct LatencySummary {
  std::int64_t count = 0;
  util::SimDuration min = 0;
  util::SimDuration p50 = 0;
  util::SimDuration p95 = 0;
  util::SimDuration p99 = 0;
  util::SimDuration max = 0;
  /// Arithmetic mean, rounded down to whole nanoseconds (kept integral
  /// so summaries stay byte-stable).
  util::SimDuration mean = 0;

  /// Builds a summary from `samples` (copied and sorted internally; an
  /// empty set yields the all-zero summary).
  static LatencySummary from_samples(std::vector<util::SimDuration> samples);

  /// {"count":N,"min_ns":...,"p50_ns":...,...} in insertion order.
  util::json::Value to_json() const;
};

/// Derives RunMetrics from a raw event stream (the order TraceRecorder
/// stores: kernel execution order, per-node times non-decreasing).
/// `result`, when given, supplies the authoritative makespan and the
/// per-node finish times for the idle-tail computation; without it the
/// NodeDone events serve.
///
/// Implementation: streams the vector through a MetricsBuilder —
/// O(state) working memory beyond the vector itself.
RunMetrics analyze(const std::vector<TraceEvent>& events, std::int32_t nprocs,
                   const RunResult* result = nullptr);

/// Convenience overload over a recorder.
RunMetrics analyze(const TraceRecorder& recorder, std::int32_t nprocs,
                   const RunResult* result = nullptr);

/// Streaming analyze(): feed events in commit order via on_event() (as
/// Cm5Machine::run_observed does), then call finalize() exactly once —
/// with the RunResult when one exists — to obtain the RunMetrics.
/// Output is byte-identical to the batch reference the tests keep
/// (tests/support/batch_analysis.hpp) on any kernel-produced trace;
/// working memory is O(nprocs + in-flight messages + distinct
/// tags/links), not O(events).
///
/// Exactness over out-of-order streams: per-step/per-link aggregates
/// are order-independent (steps kept in tag order, links put in
/// (src, dst) order at finalize); the contention sweep relies on the kernel's commit-order
/// guarantee that TransferComplete times are globally non-decreasing
/// and no later event carries an earlier time (the conservative DES
/// frontier), buffering only not-yet-completed posts per receiver.
class MetricsBuilder : public TraceConsumer {
 public:
  explicit MetricsBuilder(std::int32_t nprocs);
  ~MetricsBuilder() override;

  MetricsBuilder(const MetricsBuilder&) = delete;
  MetricsBuilder& operator=(const MetricsBuilder&) = delete;

  void on_event(const TraceEvent& event) override;

  /// Completes the analysis and returns the metrics. Call once; the
  /// builder is spent afterwards.
  RunMetrics finalize(const RunResult* result = nullptr);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Streaming validate_trace(): the same incremental shape as
/// MetricsBuilder, producing the identical violation list (order, text,
/// 50-line cap and suppression tail included).
class TraceValidator : public TraceConsumer {
 public:
  explicit TraceValidator(std::int32_t nprocs);
  ~TraceValidator() override;

  TraceValidator(const TraceValidator&) = delete;
  TraceValidator& operator=(const TraceValidator&) = delete;

  void on_event(const TraceEvent& event) override;

  /// Completes validation and returns the violations. Call once.
  std::vector<std::string> finalize(const RunResult* result = nullptr);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Checks the structural invariants of a trace; returns one human-
/// readable line per violation (empty == valid). Checked:
///
///   * event sanity: node ids in range, times and sizes non-negative;
///   * per-node time monotonicity over node actions (posts, computes,
///     timeouts, completion of the program) — network-side events
///     (TransferStart/Complete, faults, GlobalOpComplete) are exempt,
///     because direct execution lets a node run ahead of the network;
///   * every TransferStart has a matching TransferComplete, per
///     (src, dst, tag) counting — under faults a start may remain in
///     flight at run end, so this check requires no fault events;
///   * rendezvous completeness: without faults every posted message
///     starts and completes (bytes posted == started == completed), and
///     nothing is dropped;
///   * byte conservation against the kernel's own counters when a
///     RunResult is supplied: per-node bytes_sent equals traced posted
///     bytes, and makespan == max(finish times) == max NodeDone time.
std::vector<std::string> validate_trace(const std::vector<TraceEvent>& events,
                                        std::int32_t nprocs,
                                        const RunResult* result = nullptr);

/// Convenience overload over a recorder.
std::vector<std::string> validate_trace(const TraceRecorder& recorder,
                                        std::int32_t nprocs,
                                        const RunResult* result = nullptr);

}  // namespace cm5::sim
