#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/builders.hpp"
#include "cm5/sched/pattern.hpp"
#include "cm5/sched/resilient_executor.hpp"
#include "cm5/sim/fault.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/util/json.hpp"
#include "cm5/util/time.hpp"

/// \file stream.hpp
/// The streaming schedule service: an online front-end over the
/// resilient executor.
///
/// Everything below run_resilient_schedule is offline — build one
/// schedule, run it, read the report. This layer models the service
/// shape the ROADMAP aims at: communication *requests* (a pattern plus
/// tenant, priority, and an arrival instant in stream virtual time)
/// arrive continuously from a seeded multi-tenant workload generator,
/// are queued, admitted under an in-flight edge budget, batched into a
/// combined schedule by a pluggable policy, and executed resiliently
/// while a fault script plays out in *stream* time — so fail-stop
/// deaths, burst loss, partitions, and gray slowdowns land mid-stream,
/// between (and inside) batches, not politely before a run.
///
/// Service obligations, all deterministic and all reported:
///   * admission control — at most max_batch_requests requests and
///     (approximately) max_inflight_edges schedule edges in flight;
///   * backpressure — producers block while the queue sits at or above
///     the high watermark and resume below the low watermark; blocked
///     arrivals are deferred, never dropped, and the deferral shows up
///     in the report (backpressure_events / backpressure_ns);
///   * graceful shedding — under sustained overload (queue length above
///     shed_watermark) the lowest-priority, youngest requests are shed
///     with a deterministic shed log entry each; expired deadlines shed
///     at admission time. Nothing is ever dropped silently: every
///     generated request ends in exactly one terminal state.
///   * mid-stream fault recovery — nodes the resilient executor excises
///     are removed from the admission set; queued requests addressed to
///     them are repaired (their edges to dead nodes dropped, counted);
///     edges lost to a live peer (e.g. a burst-loss window outlasting
///     max_attempts) are retried as a follow-up request up to
///     max_request_attempts times;
///   * checkpoint/resume — after every batch the executor can emit a
///     StreamCheckpoint (stream clock, queue contents, generator
///     cursor, excised set, and a digest chain over the per-batch
///     resilient reports). A killed stream resumes by deterministic
///     replay, verifying the chain, and finishes with a report
///     bit-identical to the uninterrupted run's.
///
/// Determinism contract: a StreamReport is a pure function of
/// (StreamOptions, machine params). It contains only virtual-time and
/// counting fields, so it is byte-identical run to run — the stream
/// repeat-run, resume and golden tests enforce this.

namespace cm5::sched {

// --------------------------------------------------------------------------
// Requests and the workload generator
// --------------------------------------------------------------------------

/// One communication request submitted to the stream service.
struct StreamRequest {
  std::int64_t id = 0;         ///< unique, in generation order
  std::int32_t tenant = 0;     ///< submitting tenant, [0, tenants)
  std::int32_t priority = 0;   ///< larger = more important (kept under load)
  /// Nominal arrival instant in stream virtual time — when the producer
  /// *wanted* to submit. Backpressure may defer the effective arrival.
  util::SimTime arrival = 0;
  /// Completion deadline in stream virtual time; kTimeNever = none.
  /// The deadline-aware policy admits earliest-deadline-first, and
  /// expired requests are shed at admission when shed_expired is set.
  util::SimTime deadline = util::kTimeNever;
  Scheduler scheduler = Scheduler::Greedy;  ///< how to schedule the pattern
  CommPattern pattern{2};
  /// Delivery attempts so far (0 for fresh requests; retry requests
  /// re-enqueued after partial loss carry the original id and a bumped
  /// attempt count).
  std::int32_t attempt = 0;

  /// Directed schedule edges this request contributes (pattern messages).
  std::int64_t edges() const noexcept { return pattern.num_messages(); }
};

/// Seeded multi-tenant workload: bursty/mixed arrival processes over the
/// four pattern families (complete exchange, random density, ring halo,
/// shift permutation) and all four schedule builders. All draws use
/// integer arithmetic on cm5::util::Rng, so a (seed, config) pair yields
/// one exact request sequence on every platform.
struct StreamWorkloadConfig {
  std::int32_t nodes = 16;        ///< partition size (power of two >= 2)
  std::int64_t num_requests = 200;
  std::int32_t tenants = 4;
  std::uint64_t seed = 1;
  /// Mean inter-arrival gap between request *groups*; actual gaps are
  /// uniform in [mean/4, 7*mean/4].
  util::SimDuration mean_gap = util::from_us(300);
  /// Probability that an arrival is a burst: burst_max-bounded run of
  /// requests from one tenant with gaps of mean_gap/20.
  double burst_prob = 0.2;
  std::int32_t burst_max = 6;
  /// Probability a request carries a deadline of arrival + slack, slack
  /// uniform in [deadline_slack_min, deadline_slack_max].
  double deadline_prob = 0.3;
  util::SimDuration deadline_slack_min = util::from_ms(5);
  util::SimDuration deadline_slack_max = util::from_ms(40);
  /// Message sizes: 64 << k bytes, k uniform in [0, size_octaves).
  std::int32_t size_octaves = 4;

  util::json::Value to_json() const;
};

/// Pull-based generator: next() yields requests in nondecreasing nominal
/// arrival order. The stream executor pulls lazily, which is what makes
/// backpressure (not pulling) meaningful.
class StreamWorkloadGenerator {
 public:
  explicit StreamWorkloadGenerator(StreamWorkloadConfig config);

  bool done() const noexcept { return produced_ >= config_.num_requests; }
  /// Number of requests produced so far (the generator cursor; recorded
  /// in checkpoints).
  std::int64_t produced() const noexcept { return produced_; }
  /// Nominal arrival time of the next request without consuming it.
  /// Requires !done().
  util::SimTime peek_arrival();
  /// Produces the next request. Requires !done().
  StreamRequest next();

 private:
  void stage_next();

  StreamWorkloadConfig config_;
  std::int64_t produced_ = 0;
  util::SimTime producer_clock_ = 0;
  std::int32_t burst_left_ = 0;      ///< remaining requests in current burst
  std::int32_t burst_tenant_ = 0;
  bool staged_ = false;
  StreamRequest staged_request_{};
};

// --------------------------------------------------------------------------
// Batching policies
// --------------------------------------------------------------------------

/// How queued requests are admitted into the next batch. All policies
/// respect the same admission budget (max_batch_requests and
/// max_inflight_edges); they differ only in *which* requests go first.
enum class BatchPolicy : std::uint8_t {
  /// Strict arrival order (FIFO by effective arrival, then id).
  kFifo,
  /// Tenant-fair weighted round-robin: tenants take turns (deficit
  /// round-robin, weight = tenant_weights[t], default 1); within a
  /// tenant, FIFO. One tenant's burst cannot starve the others.
  kTenantFair,
  /// Earliest deadline first; requests without a deadline come last
  /// (FIFO among themselves). Ties broken by id.
  kDeadline,
};

const char* batch_policy_name(BatchPolicy policy);

// --------------------------------------------------------------------------
// Checkpoint / resume
// --------------------------------------------------------------------------

/// Stream state frozen at a batch boundary, sufficient to resume a
/// killed stream. Resume is deterministic replay (exactly like the
/// resilient executor's): the resumed run replays from batch 0,
/// verifying after every batch that the stream state digest matches the
/// checkpoint's chain, and finishes with a final report bit-identical
/// to the uninterrupted run's.
struct StreamCheckpoint {
  /// Hash of (machine size/params, workload config, stream options,
  /// fault script). Resume against anything else is rejected up front.
  std::uint64_t config_digest = 0;
  std::int64_t batches_completed = 0;
  util::SimTime stream_clock = 0;
  std::int64_t requests_generated = 0;  ///< generator cursor
  /// Queue contents at the boundary (request ids, queue order).
  std::vector<std::int64_t> queue_ids;
  /// Nodes excised from the admission set so far, ascending.
  std::vector<NodeId> excised_nodes;
  /// Per-batch digest chain (batch i's digest covers the resilient
  /// report, the post-batch queue, clock, and excised set).
  std::vector<std::uint64_t> batch_digests;

  util::json::Value to_json() const;
  /// Throws std::runtime_error on a malformed document.
  static StreamCheckpoint from_json(const util::json::Value& v);
};

// --------------------------------------------------------------------------
// Options and report
// --------------------------------------------------------------------------

struct StreamOptions {
  StreamWorkloadConfig workload;
  BatchPolicy policy = BatchPolicy::kFifo;
  /// Per-tenant weights for kTenantFair (empty = all 1; shorter vectors
  /// are padded with 1). Must be positive.
  std::vector<std::int32_t> tenant_weights;

  // --- admission budget ---------------------------------------------------
  /// Max requests admitted into one batch.
  std::int32_t max_batch_requests = 8;
  /// Soft cap on directed schedule edges in flight per batch: admission
  /// stops once the running edge total reaches it. The first request of
  /// a batch is always admitted (progress guarantee), so one oversized
  /// request can exceed the cap alone.
  std::int64_t max_inflight_edges = 2048;

  // --- backpressure -------------------------------------------------------
  /// Queue length at/above which producers are blocked (0 disables).
  std::int32_t queue_high_watermark = 48;
  /// Queue length strictly below which blocked producers are released.
  std::int32_t queue_low_watermark = 24;

  // --- shedding -----------------------------------------------------------
  /// Queue length above which overload shedding trims the queue back to
  /// queue_high_watermark, lowest priority first, youngest first within
  /// a priority (0 disables shedding).
  std::int32_t shed_watermark = 96;
  /// Shed requests whose deadline has already passed at admission time.
  bool shed_expired = true;

  // --- fault handling -----------------------------------------------------
  /// Faults scripted in *stream* virtual time. For each batch launched
  /// at stream clock C the script is rebased to batch-local time
  /// (t - C); deaths and degradations already in the past persist (they
  /// rebase to t = 0), so a node dead at stream time T stays dead for
  /// every later batch. Probabilistic fault processes (drop/corrupt/
  /// delay, burst chains) are stateless per transfer and simply keep
  /// running in every batch.
  sim::FaultPlan fault_script;
  /// Resilient-protocol knobs for each batch execution. The trace,
  /// checkpoint_sink, stop_after_step, and resume_from members are
  /// owned by the stream layer and must be left empty.
  ResilientOptions resilient;
  /// Retry budget for a request whose edges were lost to a *live* peer
  /// (e.g. a burst window outlasting max_attempts): the undelivered
  /// remainder is re-enqueued as a follow-up request at the same
  /// priority until total attempts reach this. Edges lost to excised
  /// nodes are never retried (the peer is gone).
  std::int32_t max_request_attempts = 2;

  // --- observability / control -------------------------------------------
  /// Stream every batch's trace through a sim::TraceValidator and record
  /// violations in the report (the delivery invariant gate).
  bool validate = true;
  /// When set, called with a checkpoint after every batch's accounting.
  std::function<void(const StreamCheckpoint&)> checkpoint_sink;
  /// Kill switch: stop cleanly after this many batches (-1 = run to
  /// drain). The checkpoint emitted at that boundary is the resume
  /// token.
  std::int64_t stop_after_batch = -1;
  /// Resume token from a killed stream; replay verifies the digest
  /// chain (throwing util::CheckError on divergence).
  std::shared_ptr<const StreamCheckpoint> resume_from;
};

/// Terminal state of one generated request.
enum class RequestOutcome : std::uint8_t {
  kPending,        ///< not yet terminal (seen only in stop_after_batch runs)
  kCompleted,      ///< every (surviving) edge delivered
  kRepaired,       ///< delivered after edges to excised nodes were dropped
  kPartialLoss,    ///< retries exhausted with live-peer edges undelivered
  kShedOverload,   ///< shed by the overload trimmer
  kShedDeadline,   ///< shed because its deadline expired before admission
};

const char* request_outcome_name(RequestOutcome outcome);

/// Per-request accounting row (one per generated request, by id).
struct StreamRequestRecord {
  std::int64_t id = 0;
  std::int32_t tenant = 0;
  std::int32_t priority = 0;
  RequestOutcome outcome = RequestOutcome::kPending;
  util::SimTime arrival = 0;        ///< nominal (producer) arrival
  util::SimTime admitted_at = 0;    ///< first batch launch (0 if shed)
  util::SimTime completed_at = 0;   ///< terminal instant (shed time if shed)
  /// completed_at - arrival for admitted requests.
  util::SimDuration latency_e2e = 0;
  /// admitted_at - arrival (includes backpressure deferral).
  util::SimDuration latency_queue = 0;
  /// Sum of makespans of the batches that served this request.
  util::SimDuration latency_service = 0;
  std::int64_t edges_total = 0;      ///< pattern edges as generated
  std::int64_t edges_delivered = 0;
  /// Edges dropped because a peer was (or became) excised: pre-admission
  /// repair plus in-run losses charged to a dying node.
  std::int64_t edges_repaired = 0;
  std::int64_t edges_lost = 0;       ///< undelivered to live peers (terminal)
  std::int32_t attempts = 0;         ///< batches this request rode in
};

/// One deterministic shed-log entry (never a silent drop).
struct StreamShedEntry {
  std::int64_t id = 0;
  std::int32_t tenant = 0;
  std::int32_t priority = 0;
  util::SimTime time = 0;       ///< stream clock at the shed decision
  RequestOutcome reason = RequestOutcome::kShedOverload;
};

/// Everything one stream run produced. Pure virtual-time/counting data:
/// byte-identical run to run.
struct StreamReport {
  // --- population --------------------------------------------------------
  std::int64_t requests_generated = 0;
  std::int64_t requests_admitted = 0;   ///< reached a batch at least once
  std::int64_t requests_completed = 0;  ///< kCompleted + kRepaired
  std::int64_t requests_shed = 0;
  std::int64_t requests_partial = 0;    ///< kPartialLoss
  std::int64_t batches = 0;

  // --- delivery ----------------------------------------------------------
  std::int64_t edges_total = 0;      ///< edges of admitted requests
  std::int64_t edges_delivered = 0;
  std::int64_t edges_repaired = 0;   ///< excised-peer edges dropped/charged
  std::int64_t edges_lost = 0;       ///< live-peer losses after retries
  std::int64_t retries = 0;          ///< protocol-level copies beyond first
  std::int64_t recv_timeouts = 0;
  std::int64_t request_retries = 0;  ///< follow-up requests enqueued

  // --- fault recovery ----------------------------------------------------
  std::vector<NodeId> excised_nodes;  ///< ascending
  std::int32_t excision_events = 0;   ///< batches that grew the dead set

  // --- flow control -------------------------------------------------------
  std::int64_t backpressure_events = 0;  ///< blocked->released transitions
  util::SimDuration backpressure_ns = 0; ///< total producer deferral
  std::int64_t shed_count = 0;
  std::vector<StreamShedEntry> shed_log; ///< deterministic, in shed order

  // --- latency ------------------------------------------------------------
  sim::LatencySummary latency_queue;    ///< admitted requests only
  sim::LatencySummary latency_service;
  sim::LatencySummary latency_e2e;

  // --- time ---------------------------------------------------------------
  util::SimTime stream_makespan = 0;  ///< stream clock at drain

  std::vector<StreamRequestRecord> requests;  ///< by id, one per generated
  /// TraceValidator output over all batches ("batch B: <violation>"),
  /// plus stream-level delivery-invariant violations. Empty == healthy.
  std::vector<std::string> violations;

  std::int64_t requests_terminal() const noexcept {
    return requests_completed + requests_shed + requests_partial;
  }
  std::string to_string() const;
  /// Machine-readable form; `full` adds the per-request array.
  util::json::Value to_json(bool full = false) const;
};

// --------------------------------------------------------------------------
// The executor
// --------------------------------------------------------------------------

/// Runs one stream to drain (or to stop_after_batch) on `machine`.
/// The machine's installed fault plan is ignored — stream faults come
/// from options.fault_script — and the machine is returned with no
/// fault plan installed. Deterministic: same (machine params, options)
/// means a byte-identical report.
StreamReport run_stream(machine::Cm5Machine& machine,
                        const StreamOptions& options);

/// The reference streaming scenario shared by bench/ext_stream, the
/// stream summary goldens, and the soak tool's --reference mode: a
/// bursty 4-tenant mix at `nodes` with a mid-stream fail-stop death,
/// a burst-loss spell, and a gray slowdown scripted in stream time.
/// Deterministic in (nodes, requests, seed).
StreamOptions make_reference_stream_options(std::int32_t nodes,
                                            std::int64_t requests,
                                            std::uint64_t seed);

}  // namespace cm5::sched
