#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cm5/net/fluid_network.hpp"
#include "cm5/net/topology.hpp"
#include "cm5/sim/fault.hpp"
#include "cm5/sim/message.hpp"
#include "cm5/sim/trace.hpp"
#include "cm5/util/time.hpp"

/// \file kernel.hpp
/// Conservative sequential discrete-event kernel with direct execution.
///
/// Each simulated node runs its program on its own user-space fiber
/// (src/simcore/fiber_backend.hpp), and the kernel enforces that exactly
/// one fiber executes simulated work at a time and always resumes the
/// entity with the smallest virtual time (ties: pending events first,
/// then lowest node id). This makes runs exactly deterministic and lets
/// node programs be ordinary sequential C++ — the "direct execution"
/// style of simulators like Wisconsin Wind Tunnel — while virtual time
/// is tracked per node.
///
/// Synchronization model (matches CMMD 1.x on the 1992 CM-5, paper §2/§3):
/// `post_send` is a blocking rendezvous — the sender does not resume until
/// the matching receive was posted *and* the transfer completed. This is
/// the "synchronous communication constraint" whose consequences the
/// paper measures. `post_send_async` (an extension, used by the ablation
/// benches) returns as soon as the message is handed to the network layer.

namespace cm5::sim {

/// Thrown from every blocked node when the simulation can no longer make
/// progress (all nodes blocked, no events pending).
class DeadlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown from nodes when the run is aborted because another node failed.
class AbortError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown inside a node program when its node is killed by a fail-stop
/// fault (FaultPlan::deaths). Derives from AbortError so an unprepared
/// program unwinds quietly; programs must not catch it.
class NodeKilledError : public AbortError {
 public:
  using AbortError::AbortError;
};

/// Thrown from a blocking communication call when the peer node died:
/// sends/swaps to a dead node, and untimed receives waiting specifically
/// on a node that fails. Timed receives report death as a timeout
/// instead (a real machine cannot distinguish the two at the deadline).
class PeerFailedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-node accounting, reported in RunResult.
struct NodeCounters {
  std::int64_t sends = 0;
  std::int64_t receives = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t global_ops = 0;
  util::SimDuration compute_time = 0;  ///< time charged via advance()
};

/// Result of Kernel::run().
struct RunResult {
  /// Virtual time at which each node's program returned.
  std::vector<util::SimTime> finish_time;
  /// max(finish_time): the makespan the paper's tables report.
  util::SimTime makespan = 0;
  std::vector<NodeCounters> node_counters;
  net::NetworkStats network;
  /// Fiber switches this run: host-side telemetry that does not affect
  /// simulated results.
  std::int64_t context_switches = 0;
  /// Always 0; kept only because benchmark/src reads it.
  std::int64_t speculative_grants = 0;
};

class Kernel;
class FiberBackend;

/// Handle a node program uses to interact with the simulation.
/// Valid only inside the program invocation it was passed to.
class NodeHandle {
 public:
  /// This node's rank in [0, nprocs).
  NodeId id() const noexcept { return id_; }
  /// Number of nodes in the partition.
  std::int32_t nprocs() const noexcept;
  /// This node's current virtual time.
  util::SimTime now() const;

  /// Charges `d` of local computation time to this node's clock.
  void advance(util::SimDuration d);

  /// Blocking (rendezvous) send; returns when the transfer completed.
  /// `wire_bytes` is what crosses the network (packetized size);
  /// `latency` is the per-message network latency. The caller (machine
  /// layer) owns overhead/packetization policy.
  void post_send(NodeId dst, std::int32_t tag, std::int64_t user_bytes,
                 std::int64_t wire_bytes, util::SimDuration latency,
                 std::vector<std::byte> payload);

  /// Non-blocking send: returns immediately after hand-off; the transfer
  /// proceeds (and completes) on its own once the receiver matches it.
  void post_send_async(NodeId dst, std::int32_t tag, std::int64_t user_bytes,
                       std::int64_t wire_bytes, util::SimDuration latency,
                       std::vector<std::byte> payload);

  /// Blocks until every async send this node posted has completed.
  void wait_async_sends();

  /// Blocking receive, matching (src, tag); kAnyNode / kAnyTag wildcard.
  Message post_receive(NodeId src, std::int32_t tag);

  /// Blocking receive with a deadline `timeout` from now (virtual time).
  /// Returns nullopt if no matching message was delivered by the
  /// deadline; the node resumes exactly at the deadline. A message whose
  /// transfer matched before the deadline but completes after it is
  /// still delivered (the wire was already committed). Foundation of the
  /// resilient executor's retry loop.
  std::optional<Message> post_receive_timeout(NodeId src, std::int32_t tag,
                                              util::SimDuration timeout);

  /// Global-op barrier with a deadline `timeout` from now. Returns true
  /// if every live node arrived (resuming at the usual release time);
  /// false if the deadline passed first, in which case this node's
  /// arrival is withdrawn and it resumes at the deadline. A false return
  /// leaves the other participants still waiting.
  bool try_barrier(util::SimDuration timeout, util::SimDuration duration);

  /// Full-duplex exchange (CMMD_swap): blocks until the peer posts the
  /// matching swap, then both directions transfer *simultaneously*;
  /// returns the peer's message once both transfers complete. Both sides
  /// must use the same tag. Contrast with the send/receive sequence of
  /// Figure 2, which serializes the two directions.
  Message post_swap(NodeId peer, std::int32_t tag, std::int64_t user_bytes,
                    std::int64_t wire_bytes, util::SimDuration latency,
                    std::vector<std::byte> payload);

  /// Generic synchronous global operation (the control network).
  /// Blocks until every node has called it; all nodes resume at
  /// max(arrival times) + duration. Returns the concatenation of all
  /// nodes' contributions in node order (so reductions sum the pieces,
  /// broadcasts have only the root contribute) as a view of one buffer
  /// all nodes share. It stays valid until this node's next global op or
  /// try_barrier, since no op completes before every live node joined it
  /// (contributions are copied on entry). Every global op across nodes
  /// must execute in the same order — mismatches deadlock.
  std::span<const std::byte> global_op(std::span<const std::byte> contribution,
                                       util::SimDuration duration);

 private:
  friend class Kernel;
  NodeHandle(Kernel* kernel, NodeId id) : kernel_(kernel), id_(id) {}
  void send_impl(NodeId dst, std::int32_t tag, std::int64_t user_bytes,
                 std::int64_t wire_bytes, util::SimDuration latency,
                 std::vector<std::byte> payload, bool async);
  std::optional<Message> receive_impl(NodeId src, std::int32_t tag,
                                      std::optional<util::SimDuration> timeout);
  Kernel* kernel_;
  NodeId id_;
};

/// A node program: runs once per node with that node's handle.
using NodeProgram = std::function<void(NodeHandle&)>;

/// The discrete-event kernel. One instance per run() call is typical;
/// the object is reusable sequentially but not concurrently.
class Kernel {
 public:
  /// The topology reference must outlive the kernel.
  explicit Kernel(const net::FatTreeTopology& topo);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Runs `program` on every node of the topology to completion and
  /// returns timing/traffic results. Rethrows the first node error;
  /// throws DeadlockError (with a per-node diagnostic) on deadlock.
  RunResult run(const NodeProgram& program);

  /// Installs (or clears, with nullptr) a trace sink for subsequent
  /// runs. The sink is invoked in virtual-time order; it must not call
  /// back into the kernel.
  void set_trace(TraceSink sink) { trace_ = std::move(sink); }

  /// Installs a fault plan for subsequent runs (validated against the
  /// topology; throws std::invalid_argument on a bad plan). With a plan
  /// installed the usual end-of-run cleanliness checks (no unmatched
  /// sends, no in-flight transfers) are relaxed — faults legitimately
  /// strand traffic.
  void set_fault_plan(FaultPlan plan);

  /// Removes the fault plan; subsequent runs are fault-free.
  void clear_fault_plan() { fault_plan_.reset(); }

  /// The installed plan, if any.
  const std::optional<FaultPlan>& fault_plan() const noexcept {
    return fault_plan_;
  }

 private:
  friend class NodeHandle;

  enum class NodeStatus : std::uint8_t { Runnable, Blocked, Done };

  enum class TransferKind : std::uint8_t {
    Sync,   ///< blocking send: sender wakes at completion
    Async,  ///< non-blocking send: only async accounting on the sender
    Swap,   ///< one direction of a full-duplex exchange
  };

  /// A posted, not yet matched outgoing message. Queued sends match in
  /// deque (posting) order.
  struct PendingSend {
    NodeId src;
    std::int32_t tag;
    std::int64_t user_bytes;
    std::int64_t wire_bytes;
    util::SimDuration latency;
    std::vector<std::byte> payload;
    util::SimTime post_time;
    TransferKind kind;
  };

  struct PendingRecv {
    NodeId src_filter;
    std::int32_t tag_filter;
    util::SimTime post_time;
    /// Absolute timeout deadline, if the receive was posted timed.
    std::optional<util::SimTime> deadline;
    /// The matching rule: does this receive's (src, tag) filter accept a
    /// send from `src` carrying `tag`?
    bool accepts(NodeId src, std::int32_t tag) const noexcept;
  };

  struct Transfer {
    NodeId src;
    NodeId dst;
    std::int64_t user_bytes;
    std::int32_t tag;
    std::vector<std::byte> payload;
    TransferKind kind;
    // Fault-injection state (all inert without a FaultPlan).
    bool dropped = false;
    bool corrupt = false;
    /// The receive this transfer consumed when it matched; restored (or
    /// timed out) if the transfer is dropped. Empty for swaps.
    std::optional<PendingRecv> recv_info;
  };

  /// An unmatched swap: `send` (kind Swap) waits for `peer`'s swap back.
  struct PendingSwap {
    NodeId peer;
    PendingSend send;
  };

  struct QueuedEvent {
    util::SimTime time;
    std::int64_t seq;
    // A queued event is always a delayed flow start (latency phase done).
    std::int64_t transfer_id;
    std::int64_t wire_bytes;
    NodeId src;
    NodeId dst;
    bool operator>(const QueuedEvent& other) const noexcept {
      return std::tie(time, seq) > std::tie(other.time, other.seq);
    }
  };

  enum class TimerKind : std::uint8_t { Recv, Barrier };

  /// Lazily-invalidated entry of the runnable-node heap. An entry is
  /// valid iff its node is still Runnable at exactly this clock; any
  /// wake/advance pushes a fresh entry, and stale ones (whose clocks are
  /// necessarily <= the node's current clock) surface at the top early
  /// and are discarded. Keeps schedule_next at O(log N) instead of a
  /// scan over every node per scheduling decision.
  struct RunnableEntry {
    util::SimTime clock;
    NodeId node;
    bool operator>(const RunnableEntry& other) const noexcept {
      return std::tie(clock, node) > std::tie(other.clock, other.node);
    }
  };

  /// Deadline of a timed wait. Timers are never cancelled: a stale timer
  /// is detected at fire time via the owner's wait generation and state.
  struct Timer {
    util::SimTime time;
    std::int64_t seq;
    NodeId node;
    std::int64_t generation;
    TimerKind kind;
    bool operator>(const Timer& other) const noexcept {
      return std::tie(time, seq) > std::tie(other.time, other.seq);
    }
  };

  /// One entry of the plan's exact-time fault timeline.
  enum class TimedFaultKind : std::uint8_t {
    Death,      ///< fail-stop
    Degrade,    ///< link capacity scaled by `factor`
    SlowStart,  ///< gray failure: compute/service scaled by `factor`
    SlowEnd,    ///< gray failure heals (factor back to 1)
  };
  struct TimedFault {
    util::SimTime time;
    TimedFaultKind kind;
    NodeId node;
    double factor;  ///< degrade/slowdown factor (unused for deaths)
  };

  /// Per-node state, stored densely (one flat vector indexed by node
  /// id) so giant partitions touch contiguous memory instead of chasing
  /// one heap allocation per node.
  struct NodeState {
    util::SimTime clock = 0;
    NodeStatus status = NodeStatus::Runnable;
    bool has_token = false;
    /// Deadlock diagnostics: a static label plus the peer involved.
    /// (Not a std::string — blocking is the hot path, and building a
    /// string per block was a measurable allocation cost.)
    const char* blocked_on = nullptr;
    NodeId blocked_peer = -1;
    // Receive rendezvous slot.
    bool recv_ready = false;
    Message inbox;
    std::optional<PendingRecv> posted_recv;
    // Async-send accounting.
    std::int64_t async_in_flight = 0;
    bool waiting_async_drain = false;
    // Full-duplex swap accounting: transfers (own outgoing + incoming)
    // still in flight; the node wakes when this returns to zero.
    std::int32_t swap_remaining = 0;
    // Fault / timed-wait state.
    bool killed = false;      ///< fail-stop fault fired for this node
    /// Gray-failure multiplier applied to advance() charges; exactly 1.0
    /// (the untouched default) leaves the fault-free arithmetic
    /// bit-identical.
    double compute_scale = 1.0;
    bool timed_out = false;   ///< current wake is a timeout, not a delivery
    bool peer_failed = false; ///< current wake means the peer died
    std::int64_t wait_generation = 0;  ///< bumped at each timed-wait arm
    std::optional<util::SimTime> gop_deadline;  ///< try_barrier deadline
    NodeCounters counters;
  };

  void schedule_next();
  void wait_for_token(NodeId me);
  /// Sets `id`'s token and unparks its fiber. The only way a token is
  /// ever granted.
  void grant(NodeId id);
  void yield(NodeId me);
  /// First half of every blocking wait: marks `me` Blocked (with the
  /// deadlock-report label and peer) and drops its token. A wake between
  /// this and park() (a global op completed by `me` itself) stands.
  void mark_blocked(NodeId me, const char* label, NodeId peer);
  /// Second half: runs the scheduler until `me` holds the token again,
  /// throws if the run aborted or `me` was killed, and clears the label.
  void park(NodeId me);
  void arm_timer(NodeId me, util::SimTime deadline, TimerKind kind);
  /// Hands a posted send to `dst`: starts it against `dst`'s posted
  /// receive if that accepts it, else queues it.
  void offer_send(NodeId dst, PendingSend&& send);
  /// Starts the oldest send queued at `dst` that `recv` accepts (matched
  /// at `now`), else leaves `recv` posted at `dst`.
  void match_or_post(NodeId dst, const PendingRecv& recv, util::SimTime now);
  void start_transfer(util::SimTime match_time, PendingSend&& send, NodeId dst,
                      std::optional<PendingRecv> recv_info);
  /// One async send of `src` finished (delivered or lost) at `t`; wakes
  /// `src` if that drained a wait_async_sends.
  void async_send_done(NodeId src, util::SimTime t);
  /// Ends `id`'s timed wait at `t` as a timeout (peer/tag go to the trace).
  void time_out(NodeId id, util::SimTime t, NodeId peer = -1,
                std::int32_t tag = 0);
  /// Wakes `id` at `t` to fail with PeerFailedError, if it is still waiting.
  void fail_waiter(NodeId id, util::SimTime t);
  void process_flow_start(const QueuedEvent& ev);
  void process_completions(util::SimTime t);
  void fire_timer(const Timer& timer);
  void apply_death(NodeId node, util::SimTime t);
  void apply_degrade(NodeId node, util::SimTime t, double factor);
  void apply_slow(NodeId node, util::SimTime t, double factor);
  /// Arrival of `me` at a global op (global_op and try_barrier): records
  /// its contribution, blocks, completes the op if `me` was the last
  /// live arrival, and parks until released (or timed out).
  void join_global_op(NodeId me, std::span<const std::byte> contribution,
                      util::SimDuration duration, const char* label);
  /// Withdraws `id` from the global op; false if it was not waiting in one.
  bool leave_global_op(NodeId id);
  void maybe_complete_global_op(util::SimTime now, NodeId completer);
  void recompute_gop_max_arrival();
  void wake_node(NodeId id, util::SimTime t);
  /// Records that `id` is Runnable at its current clock (must be called
  /// after every transition to Runnable and every clock change while
  /// Runnable, or schedule_next will not consider the node).
  void push_runnable(NodeId id);
  void check_abort(NodeId me) const;
  std::string deadlock_report() const;
  void node_main(const NodeProgram& program, NodeId id);
  void emit(TraceEvent::Kind kind, util::SimTime time, NodeId node,
            NodeId peer = -1, std::int64_t bytes = 0, std::int32_t tag = 0);

  const net::FatTreeTopology& topo_;
  std::unique_ptr<net::FluidNetwork> fluid_;

  std::vector<NodeState> nodes_;
  std::int32_t done_count_ = 0;
  bool run_finished_ = false;
  std::unique_ptr<FiberBackend> backend_;  ///< live only during run()

  // Unmatched sends per destination node.
  std::vector<std::deque<PendingSend>> send_queues_;
  // Unmatched full-duplex swap posts.
  std::vector<PendingSwap> pending_swaps_;

  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>,
                      std::greater<QueuedEvent>>
      event_queue_;
  std::priority_queue<RunnableEntry, std::vector<RunnableEntry>,
                      std::greater<RunnableEntry>>
      runnable_queue_;
  std::int64_t event_seq_ = 0;

  // In-flight transfers: transfer id -> Transfer (id also keys flows).
  std::vector<std::optional<Transfer>> transfers_;
  // flow id (from fluid network) -> transfer id
  std::vector<std::int64_t> flow_to_transfer_;
  // node -> id of the last transfer started for one of its timed
  // receives (-1: none this run); fire_timer's only candidate.
  std::vector<std::int64_t> timed_recv_transfer_;

  // Global-op (control network) state.
  struct GlobalOpState {
    std::int32_t arrivals = 0;
    util::SimTime max_arrival = 0;
    util::SimDuration duration = 0;
    std::vector<std::vector<std::byte>> contributions;
    std::vector<bool> waiting;
    std::vector<std::byte> result;  ///< last op's result, read by all nodes
  } gop_;

  TraceSink trace_;

  // Fault injection (inert unless a plan is installed).
  std::optional<FaultPlan> fault_plan_;
  std::vector<TimedFault> fault_timeline_;  ///< time-sorted deaths/degrades
  std::size_t fault_cursor_ = 0;
  /// Per (src, dst) count of matched transfers, for targeted drops.
  std::vector<std::int64_t> pair_send_count_;
  /// Gilbert–Elliott burst chains: one state bit and one eligible-message
  /// ordinal per source node (live only while a plan with burst loss is
  /// installed).
  std::vector<std::uint8_t> burst_bad_;
  std::vector<std::int64_t> burst_count_;
  std::int32_t killed_count_ = 0;

  // Timed-wait deadlines.
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>>
      timer_queue_;
  std::int64_t timer_seq_ = 0;

  // Error handling.
  bool abort_ = false;
  bool deadlock_ = false;
  std::string deadlock_message_;
  std::exception_ptr first_error_;
};

}  // namespace cm5::sim
