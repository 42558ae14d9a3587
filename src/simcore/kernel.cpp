#include "cm5/sim/kernel.hpp"

#include <algorithm>
#include <sstream>

#include "cm5/util/check.hpp"
#include "fiber_backend.hpp"

namespace cm5::sim {

namespace {

std::size_t idx(NodeId id) { return static_cast<std::size_t>(id); }

/// Argument checks shared by the sending primitives (`op` names one).
void check_send_args(const char* op, NodeId me, NodeId peer,
                     std::int32_t nprocs, std::int64_t user_bytes,
                     const std::vector<std::byte>& payload) {
  CM5_CHECK_MSG(peer >= 0 && peer < nprocs, std::string(op) + ": bad peer");
  CM5_CHECK_MSG(peer != me, std::string(op) +
                                " to self is not supported (CMMD semantics)");
  CM5_CHECK_MSG(payload.empty() ||
                    static_cast<std::int64_t>(payload.size()) == user_bytes,
                "payload must be empty (phantom) or exactly user_bytes long");
}

[[noreturn]] void throw_peer_failed(const char* op, NodeId peer,
                                    const char* what) {
  throw PeerFailedError(std::string(op) + " failed: node " +
                        std::to_string(peer) + what);
}

}  // namespace

// ---------------------------------------------------------------- NodeHandle

std::int32_t NodeHandle::nprocs() const noexcept {
  return kernel_->topo_.num_nodes();
}

util::SimTime NodeHandle::now() const {
  return kernel_->nodes_[idx(id_)].clock;
}

void NodeHandle::advance(util::SimDuration d) {
  CM5_CHECK_MSG(d >= 0, "cannot charge negative compute time");
  Kernel& k = *kernel_;
  k.check_abort(id_);
  Kernel::NodeState& me = k.nodes_[idx(id_)];
  // Gray failure: a slowed node's compute and per-message service time
  // stretch by the configured factor. The == 1.0 test keeps the healthy
  // path's integer arithmetic bit-identical to a build without faults.
  if (me.compute_scale != 1.0) {
    d = static_cast<util::SimDuration>(static_cast<double>(d) *
                                       me.compute_scale);
  }
  me.clock += d;
  me.counters.compute_time += d;
  k.push_runnable(id_);
  k.emit(TraceEvent::Kind::Compute, me.clock, id_, -1, d);
  k.yield(id_);
}

void NodeHandle::post_send(NodeId dst, std::int32_t tag,
                           std::int64_t user_bytes, std::int64_t wire_bytes,
                           util::SimDuration latency,
                           std::vector<std::byte> payload) {
  send_impl(dst, tag, user_bytes, wire_bytes, latency, std::move(payload),
            /*async=*/false);
}

void NodeHandle::post_send_async(NodeId dst, std::int32_t tag,
                                 std::int64_t user_bytes,
                                 std::int64_t wire_bytes,
                                 util::SimDuration latency,
                                 std::vector<std::byte> payload) {
  send_impl(dst, tag, user_bytes, wire_bytes, latency, std::move(payload),
            /*async=*/true);
}

void NodeHandle::send_impl(NodeId dst, std::int32_t tag,
                           std::int64_t user_bytes, std::int64_t wire_bytes,
                           util::SimDuration latency,
                           std::vector<std::byte> payload, bool async) {
  Kernel& k = *kernel_;
  check_send_args("send", id_, dst, k.topo_.num_nodes(), user_bytes, payload);
  k.check_abort(id_);
  Kernel::NodeState& me = k.nodes_[idx(id_)];
  const bool dead = k.nodes_[idx(dst)].killed;
  if (dead && !async) throw_peer_failed("send", dst, " is dead");
  ++me.counters.sends;
  me.counters.bytes_sent += user_bytes;
  k.emit(TraceEvent::Kind::SendPosted, me.clock, id_, dst, user_bytes, tag);
  if (dead) {  // async only: a blocking send to a dead node threw above
    // Fire-and-forget into a dead node: silently lost, like a real NIC.
    k.emit(TraceEvent::Kind::FaultDrop, me.clock, id_, dst, user_bytes, tag);
  } else {
    if (async) ++me.async_in_flight;
    k.offer_send(dst, Kernel::PendingSend{
                          id_, tag, user_bytes, wire_bytes, latency,
                          std::move(payload), me.clock,
                          async ? Kernel::TransferKind::Async
                                : Kernel::TransferKind::Sync});
  }
  if (async) {
    // Not blocking: the caller continues at its current clock. Yield so
    // the kernel can keep global time order (another node may be behind).
    k.yield(id_);
    return;
  }
  k.mark_blocked(id_, "send_block to node", dst);
  k.park(id_);
  if (me.peer_failed) {
    me.peer_failed = false;
    throw_peer_failed("send", dst, " died before receiving");
  }
}

void NodeHandle::wait_async_sends() {
  Kernel& k = *kernel_;
  k.check_abort(id_);
  Kernel::NodeState& me = k.nodes_[idx(id_)];
  if (me.async_in_flight == 0) return;
  me.waiting_async_drain = true;
  k.mark_blocked(id_, "wait_async_sends", -1);
  k.park(id_);
}

Message NodeHandle::post_receive(NodeId src, std::int32_t tag) {
  std::optional<Message> msg = receive_impl(src, tag, std::nullopt);
  CM5_CHECK_MSG(msg.has_value(), "untimed receive returned without message");
  return std::move(*msg);
}

std::optional<Message> NodeHandle::post_receive_timeout(
    NodeId src, std::int32_t tag, util::SimDuration timeout) {
  CM5_CHECK_MSG(timeout >= 0, "receive timeout must be non-negative");
  return receive_impl(src, tag, timeout);
}

std::optional<Message> NodeHandle::receive_impl(
    NodeId src, std::int32_t tag, std::optional<util::SimDuration> timeout) {
  Kernel& k = *kernel_;
  CM5_CHECK_MSG(src == kAnyNode || (src >= 0 && src < k.topo_.num_nodes()),
                "receive: bad source filter");
  k.check_abort(id_);
  Kernel::NodeState& me = k.nodes_[idx(id_)];
  if (!timeout && src != kAnyNode && k.nodes_[idx(src)].killed) {
    throw_peer_failed("receive", src, " is dead");
  }
  ++me.counters.receives;
  CM5_CHECK_MSG(!me.posted_recv && !me.recv_ready,
                "only one outstanding receive per node");
  k.emit(TraceEvent::Kind::RecvPosted, me.clock, id_, src, 0, tag);

  Kernel::PendingRecv recv{src, tag, me.clock, std::nullopt};
  if (timeout) {
    recv.deadline = me.clock + *timeout;
    k.arm_timer(id_, *recv.deadline, Kernel::TimerKind::Recv);
  }
  k.match_or_post(id_, recv, me.clock);
  k.mark_blocked(id_,
                 src == kAnyNode ? "receive_block from node ANY"
                                 : "receive_block from node",
                 src);  // kAnyNode is -1: no peer in the deadlock report
  k.park(id_);
  if (me.timed_out) {
    me.timed_out = false;
    return std::nullopt;
  }
  if (me.peer_failed) {
    me.peer_failed = false;
    throw_peer_failed("receive", src, " died");
  }
  CM5_CHECK_MSG(me.recv_ready, "woken without a delivered message");
  me.recv_ready = false;
  return std::move(me.inbox);
}

Message NodeHandle::post_swap(NodeId peer, std::int32_t tag,
                              std::int64_t user_bytes, std::int64_t wire_bytes,
                              util::SimDuration latency,
                              std::vector<std::byte> payload) {
  Kernel& k = *kernel_;
  check_send_args("swap", id_, peer, k.topo_.num_nodes(), user_bytes, payload);
  k.check_abort(id_);
  Kernel::NodeState& me = k.nodes_[idx(id_)];
  if (k.nodes_[idx(peer)].killed) throw_peer_failed("swap", peer, " is dead");
  ++me.counters.sends;
  ++me.counters.receives;
  me.counters.bytes_sent += user_bytes;
  CM5_CHECK_MSG(me.swap_remaining == 0, "only one outstanding swap per node");
  k.emit(TraceEvent::Kind::SwapPosted, me.clock, id_, peer, user_bytes, tag);

  Kernel::PendingSend mine{id_,     tag,      user_bytes,
                           wire_bytes, latency, std::move(payload),
                           me.clock, Kernel::TransferKind::Swap};
  const auto it = std::find_if(
      k.pending_swaps_.begin(), k.pending_swaps_.end(),
      [&](const Kernel::PendingSwap& s) {
        return s.send.src == peer && s.peer == id_ && s.send.tag == tag;
      });
  if (it != k.pending_swaps_.end()) {
    Kernel::PendingSend other = std::move(it->send);
    k.pending_swaps_.erase(it);
    const util::SimTime match = std::max(me.clock, other.post_time);
    // Both directions enter the network together — full duplex.
    k.start_transfer(match, std::move(mine), peer, std::nullopt);
    k.start_transfer(match, std::move(other), id_, std::nullopt);
    me.swap_remaining = 2;
    k.nodes_[idx(peer)].swap_remaining = 2;
  } else {
    k.pending_swaps_.push_back(Kernel::PendingSwap{peer, std::move(mine)});
  }

  k.mark_blocked(id_, "swap with node", peer);
  k.park(id_);
  if (me.peer_failed) {
    me.peer_failed = false;
    throw_peer_failed("swap", peer, " died");
  }
  CM5_CHECK_MSG(me.recv_ready, "swap woken without a delivered message");
  me.recv_ready = false;
  return std::move(me.inbox);
}

std::span<const std::byte> NodeHandle::global_op(
    std::span<const std::byte> contribution, util::SimDuration duration) {
  Kernel& k = *kernel_;
  CM5_CHECK(duration >= 0);
  k.check_abort(id_);
  k.join_global_op(id_, contribution, duration, "global_op (control network)");
  return k.gop_.result;
}

bool NodeHandle::try_barrier(util::SimDuration timeout,
                             util::SimDuration duration) {
  Kernel& k = *kernel_;
  CM5_CHECK(duration >= 0);
  CM5_CHECK_MSG(timeout >= 0, "barrier timeout must be non-negative");
  k.check_abort(id_);
  Kernel::NodeState& me = k.nodes_[idx(id_)];
  me.gop_deadline = me.clock + timeout;
  k.arm_timer(id_, *me.gop_deadline, Kernel::TimerKind::Barrier);
  k.join_global_op(id_, {}, duration, "try_barrier (control network)");
  me.gop_deadline.reset();
  if (me.timed_out) {
    me.timed_out = false;
    return false;
  }
  return true;
}

// -------------------------------------------------------------------- Kernel

Kernel::Kernel(const net::FatTreeTopology& topo) : topo_(topo) {}

Kernel::~Kernel() = default;

void Kernel::emit(TraceEvent::Kind kind, util::SimTime time, NodeId node,
                  NodeId peer, std::int64_t bytes, std::int32_t tag) {
  if (!trace_) return;
  trace_(TraceEvent{kind, time, node, peer, bytes, tag});
}

void Kernel::check_abort(NodeId me) const {
  if (deadlock_) throw DeadlockError(deadlock_message_);
  if (abort_) throw AbortError("run aborted because another node failed");
  if (nodes_[idx(me)].killed) {
    throw NodeKilledError("node " + std::to_string(me) +
                          " killed by fault plan");
  }
}

void Kernel::set_fault_plan(FaultPlan plan) {
  plan.validate(topo_.num_nodes());
  // Partition cuts are checked against the actual tree shape, which
  // FaultPlan::validate cannot see (it only knows nprocs).
  for (const FaultPlan::Partition& p : plan.partitions) {
    if (p.level >= topo_.levels()) {
      throw std::invalid_argument(
          "FaultPlan: partition level " + std::to_string(p.level) +
          " has no parent link in a " + std::to_string(topo_.levels()) +
          "-level tree");
    }
    std::int64_t width = 1;
    for (std::int32_t l = 0; l < p.level; ++l) width *= topo_.config().arity;
    if (static_cast<std::int64_t>(p.subtree) * width >= topo_.num_nodes()) {
      throw std::invalid_argument(
          "FaultPlan: partition subtree " + std::to_string(p.subtree) +
          " at level " + std::to_string(p.level) + " is outside the machine");
    }
  }
  fault_plan_ = std::move(plan);
}

void Kernel::wait_for_token(NodeId me) {
  backend_->park(me, nodes_[idx(me)].has_token);
}

void Kernel::grant(NodeId id) {
  nodes_[idx(id)].has_token = true;
  backend_->unpark(id);
}

void Kernel::yield(NodeId me) {
  nodes_[idx(me)].has_token = false;
  park(me);
}

void Kernel::mark_blocked(NodeId me, const char* label, NodeId peer) {
  NodeState& st = nodes_[idx(me)];
  st.status = NodeStatus::Blocked;
  st.blocked_on = label;
  st.blocked_peer = peer;
  st.has_token = false;
}

void Kernel::park(NodeId me) {
  schedule_next();
  wait_for_token(me);
  check_abort(me);
  nodes_[idx(me)].blocked_on = nullptr;
}

void Kernel::arm_timer(NodeId me, util::SimTime deadline, TimerKind kind) {
  // Timers are armed unconditionally and validated at fire time; the
  // generation distinguishes this wait from any later one.
  NodeState& st = nodes_[idx(me)];
  ++st.wait_generation;
  timer_queue_.push(
      Timer{deadline, timer_seq_++, me, st.wait_generation, kind});
}

void Kernel::push_runnable(NodeId id) {
  runnable_queue_.push(RunnableEntry{nodes_[idx(id)].clock, id});
}

void Kernel::wake_node(NodeId id, util::SimTime t) {
  NodeState& st = nodes_[idx(id)];
  CM5_CHECK(st.status == NodeStatus::Blocked);
  CM5_CHECK_MSG(st.clock <= t, "waking a node into its past");
  st.clock = t;
  st.status = NodeStatus::Runnable;
  push_runnable(id);
}

void Kernel::time_out(NodeId id, util::SimTime t, NodeId peer,
                      std::int32_t tag) {
  nodes_[idx(id)].timed_out = true;
  emit(TraceEvent::Kind::WaitTimeout, t, id, peer, 0, tag);
  wake_node(id, t);
}

void Kernel::fail_waiter(NodeId id, util::SimTime t) {
  NodeState& st = nodes_[idx(id)];
  if (st.killed || st.status != NodeStatus::Blocked) return;
  st.peer_failed = true;
  wake_node(id, t);
}

bool Kernel::PendingRecv::accepts(NodeId src, std::int32_t tag) const noexcept {
  return (src_filter == kAnyNode || src_filter == src) &&
         (tag_filter == kAnyTag || tag_filter == tag);
}

void Kernel::offer_send(NodeId dst, PendingSend&& send) {
  std::optional<PendingRecv>& posted = nodes_[idx(dst)].posted_recv;
  if (!posted || !posted->accepts(send.src, send.tag)) {
    send_queues_[idx(dst)].push_back(std::move(send));
    return;
  }
  const PendingRecv recv = *posted;
  posted.reset();
  start_transfer(std::max(send.post_time, recv.post_time), std::move(send),
                 dst, recv);
}

void Kernel::match_or_post(NodeId dst, const PendingRecv& recv,
                           util::SimTime now) {
  auto& queue = send_queues_[idx(dst)];
  const auto it =
      std::find_if(queue.begin(), queue.end(), [&](const PendingSend& s) {
        return recv.accepts(s.src, s.tag);
      });
  if (it == queue.end()) {
    nodes_[idx(dst)].posted_recv = recv;
    return;
  }
  PendingSend send = std::move(*it);
  queue.erase(it);
  start_transfer(std::max(now, send.post_time), std::move(send), dst, recv);
}

void Kernel::start_transfer(util::SimTime match_time, PendingSend&& send,
                            NodeId dst, std::optional<PendingRecv> recv_info) {
  const NodeId src = send.src;
  const auto transfer_id = static_cast<std::int64_t>(transfers_.size());
  bool dropped = false;
  bool corrupt = false;
  util::SimDuration extra_delay = 0;
  // Swaps model the control-coupled full-duplex exchange and are exempt
  // from per-message faults (degrade/death still affect them).
  if (fault_plan_ && send.kind != TransferKind::Swap) {
    const std::size_t pair =
        idx(src) * static_cast<std::size_t>(topo_.num_nodes()) + idx(dst);
    const std::int64_t nth = pair_send_count_[pair]++;
    for (const FaultPlan::TargetedDrop& td : fault_plan_->targeted_drops) {
      if (td.src == src && td.dst == dst && td.nth == nth) dropped = true;
    }
    if (!dropped) {
      const FaultDecision d =
          fault_plan_->decide(transfer_id, send.user_bytes, send.tag);
      dropped = d.drop;
      corrupt = d.corrupt;
      extra_delay = d.extra_delay;
    }
    // Correlated fault processes share the probabilistic exemptions
    // (control traffic and tiny messages pass unharmed).
    if (fault_plan_->fault_eligible(send.user_bytes, send.tag)) {
      if (fault_plan_->burst.enabled()) {
        // The chain steps on every eligible message — even one already
        // doomed — so its trajectory depends only on the traffic order.
        bool bad = burst_bad_[idx(src)] != 0;
        const bool burst_drop =
            fault_plan_->burst_step(src, burst_count_[idx(src)]++, bad);
        burst_bad_[idx(src)] = bad ? 1 : 0;
        dropped = dropped || burst_drop;
      }
      if (!dropped &&
          fault_plan_->partition_blocks(src, dst, match_time,
                                        topo_.config().arity)) {
        dropped = true;
      }
      if (!dropped && fault_plan_->flap_blocks(src, dst, match_time)) {
        dropped = true;
      }
    }
    if (extra_delay > 0) {
      emit(TraceEvent::Kind::FaultDelay, match_time, src, dst, extra_delay,
           send.tag);
    }
  }
  if (recv_info && recv_info->deadline) {
    timed_recv_transfer_[idx(dst)] = transfer_id;
  }
  transfers_.push_back(Transfer{src, dst, send.user_bytes, send.tag,
                                std::move(send.payload), send.kind, dropped,
                                corrupt, std::move(recv_info)});
  event_queue_.push(QueuedEvent{match_time + send.latency + extra_delay,
                                event_seq_++, transfer_id, send.wire_bytes,
                                src, dst});
}

void Kernel::async_send_done(NodeId src, util::SimTime t) {
  NodeState& sender = nodes_[idx(src)];
  --sender.async_in_flight;
  CM5_CHECK(sender.async_in_flight >= 0);
  if (!sender.killed && sender.waiting_async_drain &&
      sender.async_in_flight == 0) {
    sender.waiting_async_drain = false;
    wake_node(src, t);
  }
}

void Kernel::process_flow_start(const QueuedEvent& ev) {
  const net::FlowId flow =
      fluid_->start_flow(ev.time, ev.src, ev.dst,
                         static_cast<double>(ev.wire_bytes));
  CM5_CHECK_MSG(static_cast<std::size_t>(flow) == flow_to_transfer_.size(),
                "fluid network flow ids must be sequential");
  flow_to_transfer_.push_back(ev.transfer_id);
  const Transfer& tr =
      *transfers_[static_cast<std::size_t>(ev.transfer_id)];
  emit(TraceEvent::Kind::TransferStart, ev.time, ev.src, ev.dst,
       tr.user_bytes, tr.tag);
}

void Kernel::process_completions(util::SimTime t) {
  for (const net::FlowId flow : fluid_->advance_to(t)) {
    auto& slot = transfers_[static_cast<std::size_t>(
        flow_to_transfer_[static_cast<std::size_t>(flow)])];
    CM5_CHECK(slot.has_value());
    Transfer tr = std::move(*slot);
    slot.reset();
    emit(TraceEvent::Kind::TransferComplete, t, tr.src, tr.dst, tr.user_bytes,
         tr.tag);

    NodeState& sender = nodes_[idx(tr.src)];
    NodeState& receiver = nodes_[idx(tr.dst)];
    const bool sender_waiting =
        !sender.killed && sender.status == NodeStatus::Blocked;

    // A dropped transfer (or a killed or, under faults, already-finished
    // receiver) loses the receiver's copy; the wire transfer still
    // happened, and the rendezvous looks complete from the sender's side.
    const bool deliver = !tr.dropped && !receiver.killed &&
                         receiver.status != NodeStatus::Done;
    if (tr.dropped) {
      emit(TraceEvent::Kind::FaultDrop, t, tr.src, tr.dst, tr.user_bytes,
           tr.tag);
      // Re-arm the consumed receive, or let it time out if its deadline
      // already passed while the doomed transfer was in flight. recv_info
      // is empty if the deadline timer already fired for this wait.
      if (tr.recv_info && !receiver.killed &&
          receiver.status == NodeStatus::Blocked) {
        const PendingRecv& recv = *tr.recv_info;
        if (recv.deadline && *recv.deadline <= t) {
          time_out(tr.dst, t, recv.src_filter, recv.tag_filter);
        } else {
          match_or_post(tr.dst, recv, t);
        }
      }
    } else if (tr.corrupt) {
      emit(TraceEvent::Kind::FaultCorrupt, t, tr.src, tr.dst, tr.user_bytes,
           tr.tag);
      if (!tr.payload.empty()) tr.payload[0] ^= std::byte{0x01};
    }
    if (deliver) {
      CM5_CHECK_MSG(!receiver.recv_ready, "receiver already holds a message");
      receiver.inbox = Message{tr.src, tr.tag, tr.user_bytes,
                               std::move(tr.payload), tr.corrupt};
      receiver.recv_ready = true;
    }

    if (tr.kind == TransferKind::Swap) {  // never dropped: fault-exempt
      // Each endpoint waits for both directions of the exchange.
      if (--receiver.swap_remaining == 0 && deliver) wake_node(tr.dst, t);
      if (--sender.swap_remaining == 0 && sender_waiting) wake_node(tr.src, t);
      continue;
    }
    if (deliver) wake_node(tr.dst, t);
    if (tr.kind == TransferKind::Async) {
      async_send_done(tr.src, t);
    } else if (sender_waiting) {
      wake_node(tr.src, t);
    }
  }
}

void Kernel::schedule_next() {
  while (true) {
    if (abort_) {
      // Error path: release everyone so node contexts can unwind and exit.
      for (NodeId n = 0; n < topo_.num_nodes(); ++n) grant(n);
      return;
    }

    // Earliest runnable node: peek the lazy heap, discarding entries
    // whose node has since blocked, finished, or moved its clock. A
    // valid entry is left in place — the node stays runnable at that
    // clock until it acts, and the next call needs the same answer.
    // Stale entries never hide valid ones: a node's stale clocks are
    // <= its current clock, so they surface (and are dropped) first.
    NodeId best = -1;
    util::SimTime best_t = util::kTimeNever;
    while (!runnable_queue_.empty()) {
      const RunnableEntry e = runnable_queue_.top();
      const NodeState& st = nodes_[idx(e.node)];
      if (st.status == NodeStatus::Runnable && st.clock == e.clock) {
        best = e.node;
        best_t = e.clock;
        break;
      }
      runnable_queue_.pop();
    }

    // Earliest pending event. Ties resolve by category, in this order:
    // flow starts, fluid completions, timed faults, wait deadlines.
    util::SimTime ev_t = util::kTimeNever;
    int ev_cat = -1;
    const auto consider = [&](util::SimTime t, int cat) {
      if (t < ev_t) {
        ev_t = t;
        ev_cat = cat;
      }
    };
    if (!event_queue_.empty()) consider(event_queue_.top().time, 0);
    // Skip the fluid query while a flow start at or before the network's
    // now() is pending: next_event() never returns a time before now(),
    // and flow starts win ties, so that start runs next either way. The
    // query would only re-solve the rates for a flow set the start is
    // about to change, so the k flows a step starts at one instant cost
    // one rate solve, made when time next has to advance.
    if (event_queue_.empty() || event_queue_.top().time > fluid_->now()) {
      if (const auto fc = fluid_->next_event()) consider(*fc, 1);
    }
    if (fault_cursor_ < fault_timeline_.size()) {
      consider(fault_timeline_[fault_cursor_].time, 2);
    }
    if (!timer_queue_.empty()) consider(timer_queue_.top().time, 3);

    if (ev_t != util::kTimeNever && (best == -1 || ev_t <= best_t)) {
      switch (ev_cat) {
        case 0: {
          const QueuedEvent ev = event_queue_.top();
          event_queue_.pop();
          process_flow_start(ev);
          break;
        }
        case 1:
          process_completions(ev_t);
          break;
        case 2: {
          const TimedFault f = fault_timeline_[fault_cursor_++];
          switch (f.kind) {
            case TimedFaultKind::Death:
              apply_death(f.node, f.time);
              break;
            case TimedFaultKind::Degrade:
              apply_degrade(f.node, f.time, f.factor);
              break;
            case TimedFaultKind::SlowStart:
              apply_slow(f.node, f.time, f.factor);
              break;
            case TimedFaultKind::SlowEnd:
              apply_slow(f.node, f.time, 1.0);
              break;
          }
          break;
        }
        default: {
          const Timer timer = timer_queue_.top();
          timer_queue_.pop();
          fire_timer(timer);
          break;
        }
      }
      continue;
    }

    if (best != -1) {
      grant(best);
      return;
    }

    if (done_count_ == topo_.num_nodes()) {
      run_finished_ = true;
      return;
    }

    // No runnable node, no pending event, programs still alive: deadlock.
    deadlock_ = true;
    abort_ = true;
    deadlock_message_ = deadlock_report();
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) grant(n);
    return;
  }
}

void Kernel::join_global_op(NodeId me, std::span<const std::byte> contribution,
                            util::SimDuration duration, const char* label) {
  NodeState& st = nodes_[idx(me)];
  ++st.counters.global_ops;
  emit(TraceEvent::Kind::GlobalOpEnter, st.clock, me);
  gop_.contributions[idx(me)].assign(contribution.begin(), contribution.end());
  gop_.waiting[idx(me)] = true;
  gop_.max_arrival = std::max(gop_.max_arrival, st.clock);
  gop_.duration = std::max(gop_.duration, duration);
  ++gop_.arrivals;
  mark_blocked(me, label, -1);
  maybe_complete_global_op(st.clock, me);
  park(me);
}

bool Kernel::leave_global_op(NodeId id) {
  if (!gop_.waiting[idx(id)]) return false;
  gop_.waiting[idx(id)] = false;
  --gop_.arrivals;
  gop_.contributions[idx(id)].clear();
  recompute_gop_max_arrival();
  return true;
}

void Kernel::recompute_gop_max_arrival() {
  // Waiting nodes' clocks are frozen at their arrival times, so the max
  // arrival can be rebuilt exactly after a withdrawal.
  gop_.max_arrival = 0;
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    if (gop_.waiting[idx(n)]) {
      gop_.max_arrival = std::max(gop_.max_arrival, nodes_[idx(n)].clock);
    }
  }
}

void Kernel::maybe_complete_global_op(util::SimTime now, NodeId completer) {
  auto& g = gop_;
  const std::int32_t expected = topo_.num_nodes() - killed_count_;
  if (g.arrivals == 0 || g.arrivals < expected) return;
  const util::SimTime release = std::max(g.max_arrival, now) + g.duration;
  g.result.clear();
  for (auto& c : g.contributions) {
    g.result.insert(g.result.end(), c.begin(), c.end());
    c.clear();
  }
  g.arrivals = 0;
  g.max_arrival = 0;
  g.duration = 0;
  emit(TraceEvent::Kind::GlobalOpComplete, release, completer);
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    if (!g.waiting[idx(n)]) continue;
    g.waiting[idx(n)] = false;
    wake_node(n, release);
  }
}

void Kernel::fire_timer(const Timer& timer) {
  NodeState& st = nodes_[idx(timer.node)];
  // A timer is stale if the wait it was armed for is over: the node
  // moved on (generation), was killed, or the wait state is gone.
  if (st.killed || st.status != NodeStatus::Blocked) return;
  if (st.wait_generation != timer.generation) return;
  if (timer.kind == TimerKind::Barrier) {
    if (!st.gop_deadline || *st.gop_deadline != timer.time) return;
    if (leave_global_op(timer.node)) time_out(timer.node, timer.time);
    return;
  }
  if (st.posted_recv) {
    if (!st.posted_recv->deadline || *st.posted_recv->deadline != timer.time) {
      return;  // a different (newer) wait owns this node
    }
    const PendingRecv recv = *st.posted_recv;
    st.posted_recv.reset();
    time_out(timer.node, timer.time, recv.src_filter, recv.tag_filter);
    return;
  }
  // The receive was consumed by an in-flight transfer. If that transfer
  // is doomed to be dropped, the receiver must still time out at its
  // deadline — it cannot observe a wire that will never deliver. A
  // healthy in-flight transfer instead commits the delivery (the timer
  // is stale; the message may complete after the deadline). Only the
  // transfer last started for a timed receive of this node can match:
  // a blocked node has one posted receive, so at most one live transfer
  // carries its recv_info, and a dropped transfer's re-arm resets its
  // own slot before it starts (and records) the next one.
  const std::int64_t id = timed_recv_transfer_[idx(timer.node)];
  if (id < 0) return;
  auto& slot = transfers_[static_cast<std::size_t>(id)];
  if (!slot || slot->dst != timer.node || !slot->recv_info) return;
  const PendingRecv recv = *slot->recv_info;
  if (!recv.deadline || *recv.deadline != timer.time) return;
  if (!slot->dropped) return;  // delivery committed
  slot->recv_info.reset();     // completion must not re-arm the wait
  time_out(timer.node, timer.time, recv.src_filter, recv.tag_filter);
}

void Kernel::apply_degrade(NodeId node, util::SimTime t, double factor) {
  fluid_->set_link_capacity_scale(t, topo_.inject_link(node), factor);
  fluid_->set_link_capacity_scale(t, topo_.eject_link(node), factor);
  emit(TraceEvent::Kind::FaultDegrade, t, node, -1,
       static_cast<std::int64_t>(factor * 1e6));
}

void Kernel::apply_slow(NodeId node, util::SimTime t, double factor) {
  NodeState& st = nodes_[idx(node)];
  if (st.killed || st.status == NodeStatus::Done) return;
  st.compute_scale = factor;
  emit(TraceEvent::Kind::FaultSlow, t, node, -1,
       static_cast<std::int64_t>(factor * 1e6));
}

void Kernel::apply_death(NodeId node, util::SimTime t) {
  NodeState& st = nodes_[idx(node)];
  if (st.killed || st.status == NodeStatus::Done) return;
  st.killed = true;
  ++killed_count_;
  emit(TraceEvent::Kind::FaultKill, t, node);
  st.posted_recv.reset();
  st.waiting_async_drain = false;
  leave_global_op(node);  // a dead node leaves the op it is waiting in

  // Its queued outgoing sends vanish.
  for (auto& q : send_queues_) {
    std::erase_if(q, [&](const PendingSend& s) { return s.src == node; });
  }

  // Queued sends toward it will never match: async ones are lost, and
  // rendezvous senders are woken to fail with PeerFailedError.
  for (const PendingSend& s : send_queues_[idx(node)]) {
    emit(TraceEvent::Kind::FaultDrop, t, s.src, node, s.user_bytes, s.tag);
    if (s.kind == TransferKind::Async) {
      async_send_done(s.src, t);
    } else {
      fail_waiter(s.src, t);
    }
  }
  send_queues_[idx(node)].clear();

  // Pending swap posts involving the dead node.
  std::erase_if(pending_swaps_, [&](const PendingSwap& s) {
    if (s.peer == node) fail_waiter(s.send.src, t);
    return s.send.src == node || s.peer == node;
  });

  // Untimed receives waiting specifically on the dead node fail now;
  // timed receives simply run to their deadline (a real machine cannot
  // tell a dead peer from a silent one). A posted receive implies a
  // blocked, live node (the dead node's own was reset above).
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    std::optional<PendingRecv>& posted = nodes_[idx(n)].posted_recv;
    if (posted && posted->src_filter == node && !posted->deadline) {
      posted.reset();
      fail_waiter(n, t);
    }
  }

  // Wake the dead node itself so its thread can unwind (its next kernel
  // call throws NodeKilledError).
  st.clock = std::max(st.clock, t);
  if (st.status == NodeStatus::Blocked) st.status = NodeStatus::Runnable;
  if (st.status == NodeStatus::Runnable) push_runnable(node);

  // Its departure may complete a global op among the survivors.
  maybe_complete_global_op(t, node);
}

std::string Kernel::deadlock_report() const {
  std::ostringstream os;
  os << "simulation deadlock: all nodes blocked, no events pending\n";
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    const NodeState& st = nodes_[idx(n)];
    os << "  node " << n << " @" << util::format_duration(st.clock) << ": ";
    switch (st.status) {
      case NodeStatus::Runnable:
        os << "runnable";
        break;
      case NodeStatus::Done:
        os << "done";
        break;
      case NodeStatus::Blocked:
        os << "blocked on "
           << (st.blocked_on != nullptr ? st.blocked_on : "unknown");
        if (st.blocked_peer >= 0) os << " " << st.blocked_peer;
        break;
    }
    if (st.killed) os << " [killed]";
    os << '\n';
  }
  return os.str();
}

void Kernel::node_main(const NodeProgram& program, NodeId id) {
  wait_for_token(id);
  NodeHandle handle(this, id);
  try {
    if (!abort_) program(handle);
  } catch (const AbortError&) {
    // Another node failed first; unwind quietly.
  } catch (const DeadlockError&) {
    if (!first_error_) first_error_ = std::current_exception();
  } catch (...) {
    if (!first_error_) {
      first_error_ = std::current_exception();
      abort_ = true;
      for (NodeId n = 0; n < topo_.num_nodes(); ++n) grant(n);
    }
  }

  NodeState& me = nodes_[idx(id)];
  me.status = NodeStatus::Done;
  me.has_token = false;
  ++done_count_;
  emit(TraceEvent::Kind::NodeDone, me.clock, id);
  if (!abort_) {
    try {
      schedule_next();
    } catch (...) {
      if (!first_error_) first_error_ = std::current_exception();
      abort_ = true;
      for (NodeId n = 0; n < topo_.num_nodes(); ++n) grant(n);
    }
  }
  if (abort_ && done_count_ == topo_.num_nodes()) run_finished_ = true;
}

RunResult Kernel::run(const NodeProgram& program) {
  const std::int32_t n = topo_.num_nodes();
  CM5_CHECK(n >= 1);

  fluid_ = std::make_unique<net::FluidNetwork>(topo_);
  nodes_.assign(static_cast<std::size_t>(n), NodeState{});
  send_queues_.assign(static_cast<std::size_t>(n), {});
  pending_swaps_.clear();
  event_queue_ = {};
  runnable_queue_ = {};
  for (NodeId i = 0; i < n; ++i) push_runnable(i);  // all start at time 0
  event_seq_ = 0;
  transfers_.clear();
  flow_to_transfer_.clear();
  timed_recv_transfer_.assign(static_cast<std::size_t>(n), -1);
  gop_ = GlobalOpState{};
  gop_.contributions.resize(static_cast<std::size_t>(n));
  gop_.waiting.assign(static_cast<std::size_t>(n), false);
  timer_queue_ = {};
  timer_seq_ = 0;
  killed_count_ = 0;
  fault_timeline_.clear();
  fault_cursor_ = 0;
  pair_send_count_.clear();
  burst_bad_.clear();
  burst_count_.clear();
  if (fault_plan_) {
    for (const FaultPlan::NodeDeath& d : fault_plan_->deaths) {
      fault_timeline_.push_back(
          TimedFault{d.time, TimedFaultKind::Death, d.node, 0.0});
    }
    for (const FaultPlan::LinkDegrade& d : fault_plan_->degrades) {
      fault_timeline_.push_back(
          TimedFault{d.time, TimedFaultKind::Degrade, d.node, d.factor});
    }
    for (const FaultPlan::NodeSlowdown& s : fault_plan_->slowdowns) {
      fault_timeline_.push_back(
          TimedFault{s.start, TimedFaultKind::SlowStart, s.node, s.factor});
      if (s.end < util::kTimeNever) {
        fault_timeline_.push_back(
            TimedFault{s.end, TimedFaultKind::SlowEnd, s.node, 1.0});
      }
    }
    std::stable_sort(fault_timeline_.begin(), fault_timeline_.end(),
                     [](const TimedFault& a, const TimedFault& b) {
                       return a.time < b.time;
                     });
    pair_send_count_.assign(
        static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0);
    if (fault_plan_->burst.enabled()) {
      burst_bad_.assign(static_cast<std::size_t>(n), 0);
      burst_count_.assign(static_cast<std::size_t>(n), 0);
    }
  }
  done_count_ = 0;
  run_finished_ = false;
  abort_ = false;
  deadlock_ = false;
  deadlock_message_.clear();
  first_error_ = nullptr;

  backend_ = std::make_unique<FiberBackend>();
  backend_->launch(n, [this, &program](NodeId i) { node_main(program, i); });
  schedule_next();  // grant the first token (node 0 at time 0)
  backend_->drive(run_finished_);
  const std::int64_t switches = backend_->switches();
  backend_.reset();

  if (first_error_) std::rethrow_exception(first_error_);
  if (deadlock_) throw DeadlockError(deadlock_message_);

  // Undelivered traffic after a clean exit is a program bug (a message was
  // sent asynchronously and never received) — unless faults were active,
  // which legitimately strand traffic.
  if (!fault_plan_) {
    for (const auto& q : send_queues_) {
      CM5_CHECK_MSG(q.empty(), "program ended with unmatched sends pending");
    }
    CM5_CHECK_MSG(pending_swaps_.empty(),
                  "program ended with unmatched swaps pending");
    CM5_CHECK_MSG(event_queue_.empty() && fluid_->active_flows() == 0,
                  "program ended with transfers still in flight");
  }

  RunResult result;
  result.finish_time.reserve(static_cast<std::size_t>(n));
  result.node_counters.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    result.finish_time.push_back(nodes_[idx(i)].clock);
    result.makespan = std::max(result.makespan, nodes_[idx(i)].clock);
    result.node_counters.push_back(nodes_[idx(i)].counters);
  }
  result.network = fluid_->stats();
  result.context_switches = switches;
  return result;
}

}  // namespace cm5::sim
