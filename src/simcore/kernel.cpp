#include "cm5/sim/kernel.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "cm5/util/check.hpp"

namespace cm5::sim {

namespace {

std::size_t idx(NodeId id) { return static_cast<std::size_t>(id); }

}  // namespace

// ---------------------------------------------------------------- NodeHandle

std::int32_t NodeHandle::nprocs() const noexcept {
  return kernel_->topo_.num_nodes();
}

util::SimTime NodeHandle::now() const {
  auto lock = kernel_->exec_lock();
  return kernel_->nodes_[idx(id_)].clock;
}

void NodeHandle::advance(util::SimDuration d) {
  CM5_CHECK_MSG(d >= 0, "cannot charge negative compute time");
  Kernel& k = *kernel_;
  auto lock = k.exec_lock();
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
  k.yield(lock, id_);
  k.check_abort(id_);
}

void NodeHandle::post_send(NodeId dst, std::int32_t tag,
                           std::int64_t user_bytes, std::int64_t wire_bytes,
                           util::SimDuration latency,
                           std::vector<std::byte> payload) {
  Kernel& k = *kernel_;
  CM5_CHECK_MSG(dst >= 0 && dst < k.topo_.num_nodes(), "send: bad destination");
  CM5_CHECK_MSG(dst != id_, "send to self is not supported (CMMD semantics)");
  CM5_CHECK_MSG(payload.empty() ||
                    static_cast<std::int64_t>(payload.size()) == user_bytes,
                "payload must be empty (phantom) or exactly user_bytes long");
  auto lock = k.exec_lock();
  k.check_abort(id_);
  Kernel::NodeState& me = k.nodes_[idx(id_)];
  if (k.nodes_[idx(dst)].killed) {
    throw PeerFailedError("send failed: node " + std::to_string(dst) +
                          " is dead");
  }
  ++me.counters.sends;
  me.counters.bytes_sent += user_bytes;
  k.emit(TraceEvent::Kind::SendPosted, me.clock, id_, dst, user_bytes, tag);

  Kernel::PendingSend ps{id_,     tag,      user_bytes,
                         wire_bytes, latency, std::move(payload),
                         me.clock, /*async=*/false, k.send_seq_++};
  Kernel::NodeState& receiver = k.nodes_[idx(dst)];
  if (receiver.posted_recv &&
      (receiver.posted_recv->src_filter == kAnyNode ||
       receiver.posted_recv->src_filter == id_) &&
      (receiver.posted_recv->tag_filter == kAnyTag ||
       receiver.posted_recv->tag_filter == tag)) {
    const util::SimTime match =
        std::max(me.clock, receiver.posted_recv->post_time);
    Kernel::PendingRecv recv = *receiver.posted_recv;
    receiver.posted_recv.reset();
    k.start_transfer(match, std::move(ps), dst, std::move(recv));
  } else {
    k.send_queues_[idx(dst)].push_back(std::move(ps));
  }

  me.status = Kernel::NodeStatus::Blocked;
  me.blocked_on = "send_block to node";
  me.blocked_peer = dst;
  me.has_token = false;
  k.schedule_next(lock);
  k.wait_for_token(lock, id_);
  k.check_abort(id_);
  me.blocked_on = nullptr;
  if (me.peer_failed) {
    me.peer_failed = false;
    throw PeerFailedError("send failed: node " + std::to_string(dst) +
                          " died before receiving");
  }
}

void NodeHandle::post_send_async(NodeId dst, std::int32_t tag,
                                 std::int64_t user_bytes,
                                 std::int64_t wire_bytes,
                                 util::SimDuration latency,
                                 std::vector<std::byte> payload) {
  Kernel& k = *kernel_;
  CM5_CHECK_MSG(dst >= 0 && dst < k.topo_.num_nodes(), "send: bad destination");
  CM5_CHECK_MSG(dst != id_, "send to self is not supported (CMMD semantics)");
  CM5_CHECK_MSG(payload.empty() ||
                    static_cast<std::int64_t>(payload.size()) == user_bytes,
                "payload must be empty (phantom) or exactly user_bytes long");
  auto lock = k.exec_lock();
  k.check_abort(id_);
  Kernel::NodeState& me = k.nodes_[idx(id_)];
  ++me.counters.sends;
  me.counters.bytes_sent += user_bytes;
  k.emit(TraceEvent::Kind::SendPosted, me.clock, id_, dst, user_bytes, tag);
  if (k.nodes_[idx(dst)].killed) {
    // Fire-and-forget into a dead node: silently lost, like a real NIC.
    k.emit(TraceEvent::Kind::FaultDrop, me.clock, id_, dst, user_bytes, tag);
    k.yield(lock, id_);
    k.check_abort(id_);
    return;
  }
  ++me.async_in_flight;

  Kernel::PendingSend ps{id_,     tag,      user_bytes,
                         wire_bytes, latency, std::move(payload),
                         me.clock, /*async=*/true, k.send_seq_++};
  Kernel::NodeState& receiver = k.nodes_[idx(dst)];
  if (receiver.posted_recv &&
      (receiver.posted_recv->src_filter == kAnyNode ||
       receiver.posted_recv->src_filter == id_) &&
      (receiver.posted_recv->tag_filter == kAnyTag ||
       receiver.posted_recv->tag_filter == tag)) {
    const util::SimTime match =
        std::max(me.clock, receiver.posted_recv->post_time);
    Kernel::PendingRecv recv = *receiver.posted_recv;
    receiver.posted_recv.reset();
    k.start_transfer(match, std::move(ps), dst, std::move(recv));
  } else {
    k.send_queues_[idx(dst)].push_back(std::move(ps));
  }
  // Not blocking: the caller continues at its current clock. Yield so the
  // kernel can keep global time order (another node may be behind us).
  k.yield(lock, id_);
  k.check_abort(id_);
}

void NodeHandle::wait_async_sends() {
  Kernel& k = *kernel_;
  auto lock = k.exec_lock();
  k.check_abort(id_);
  Kernel::NodeState& me = k.nodes_[idx(id_)];
  if (me.async_in_flight == 0) return;
  me.waiting_async_drain = true;
  me.status = Kernel::NodeStatus::Blocked;
  me.blocked_on = "wait_async_sends";
  me.blocked_peer = -1;
  me.has_token = false;
  k.schedule_next(lock);
  k.wait_for_token(lock, id_);
  k.check_abort(id_);
  me.blocked_on = nullptr;
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
  auto lock = k.exec_lock();
  k.check_abort(id_);
  Kernel::NodeState& me = k.nodes_[idx(id_)];
  if (!timeout && src != kAnyNode && k.nodes_[idx(src)].killed) {
    throw PeerFailedError("receive failed: node " + std::to_string(src) +
                          " is dead");
  }
  ++me.counters.receives;
  CM5_CHECK_MSG(!me.posted_recv && !me.recv_ready,
                "only one outstanding receive per node");
  k.emit(TraceEvent::Kind::RecvPosted, me.clock, id_, src, 0, tag);

  std::optional<util::SimTime> deadline;
  if (timeout) {
    deadline = me.clock + *timeout;
    // Timers are armed unconditionally and validated at fire time; the
    // generation distinguishes this wait from any later one.
    ++me.wait_generation;
    k.timer_queue_.push(Kernel::Timer{*deadline, k.timer_seq_++, id_,
                                      me.wait_generation,
                                      Kernel::TimerKind::Recv});
  }

  auto& queue = k.send_queues_[idx(id_)];
  auto it = std::find_if(queue.begin(), queue.end(),
                         [&](const Kernel::PendingSend& s) {
                           return (src == kAnyNode || s.src == src) &&
                                  (tag == kAnyTag || s.tag == tag);
                         });
  if (it != queue.end()) {
    Kernel::PendingSend ps = std::move(*it);
    queue.erase(it);
    const util::SimTime match = std::max(me.clock, ps.post_time);
    k.start_transfer(match, std::move(ps), id_,
                     Kernel::PendingRecv{src, tag, me.clock, deadline});
  } else {
    me.posted_recv = Kernel::PendingRecv{src, tag, me.clock, deadline};
  }

  me.status = Kernel::NodeStatus::Blocked;
  me.blocked_on = src == kAnyNode ? "receive_block from node ANY"
                                  : "receive_block from node";
  me.blocked_peer = src == kAnyNode ? -1 : src;
  me.has_token = false;
  k.schedule_next(lock);
  k.wait_for_token(lock, id_);
  k.check_abort(id_);
  me.blocked_on = nullptr;
  if (me.timed_out) {
    me.timed_out = false;
    return std::nullopt;
  }
  if (me.peer_failed) {
    me.peer_failed = false;
    throw PeerFailedError("receive failed: node " + std::to_string(src) +
                          " died");
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
  CM5_CHECK_MSG(peer >= 0 && peer < k.topo_.num_nodes(), "swap: bad peer");
  CM5_CHECK_MSG(peer != id_, "swap with self is not supported");
  CM5_CHECK_MSG(payload.empty() ||
                    static_cast<std::int64_t>(payload.size()) == user_bytes,
                "payload must be empty (phantom) or exactly user_bytes long");
  auto lock = k.exec_lock();
  k.check_abort(id_);
  Kernel::NodeState& me = k.nodes_[idx(id_)];
  if (k.nodes_[idx(peer)].killed) {
    throw PeerFailedError("swap failed: node " + std::to_string(peer) +
                          " is dead");
  }
  ++me.counters.sends;
  ++me.counters.receives;
  me.counters.bytes_sent += user_bytes;
  CM5_CHECK_MSG(me.swap_remaining == 0, "only one outstanding swap per node");
  k.emit(TraceEvent::Kind::SwapPosted, me.clock, id_, peer, user_bytes, tag);

  const auto it = std::find_if(
      k.pending_swaps_.begin(), k.pending_swaps_.end(),
      [&](const Kernel::PendingSwap& s) {
        return s.poster == peer && s.peer == id_ && s.tag == tag;
      });
  if (it != k.pending_swaps_.end()) {
    Kernel::PendingSwap other = std::move(*it);
    k.pending_swaps_.erase(it);
    const util::SimTime match = std::max(me.clock, other.post_time);
    // Both directions enter the network together — full duplex.
    k.start_raw_transfer(match, id_, peer, tag, user_bytes, wire_bytes,
                         latency, std::move(payload),
                         Kernel::TransferKind::Swap, std::nullopt);
    k.start_raw_transfer(match, peer, id_, tag, other.user_bytes,
                         other.wire_bytes, other.latency,
                         std::move(other.payload),
                         Kernel::TransferKind::Swap, std::nullopt);
    me.swap_remaining = 2;
    k.nodes_[idx(peer)].swap_remaining = 2;
  } else {
    k.pending_swaps_.push_back(Kernel::PendingSwap{
        id_, peer, tag, user_bytes, wire_bytes, latency, std::move(payload),
        me.clock});
  }

  me.status = Kernel::NodeStatus::Blocked;
  me.blocked_on = "swap with node";
  me.blocked_peer = peer;
  me.has_token = false;
  k.schedule_next(lock);
  k.wait_for_token(lock, id_);
  k.check_abort(id_);
  me.blocked_on = nullptr;
  if (me.peer_failed) {
    me.peer_failed = false;
    throw PeerFailedError("swap failed: node " + std::to_string(peer) +
                          " died");
  }
  CM5_CHECK_MSG(me.recv_ready, "swap woken without a delivered message");
  me.recv_ready = false;
  return std::move(me.inbox);
}

std::vector<std::byte> NodeHandle::global_op(
    std::span<const std::byte> contribution, util::SimDuration duration) {
  Kernel& k = *kernel_;
  CM5_CHECK(duration >= 0);
  auto lock = k.exec_lock();
  k.check_abort(id_);
  Kernel::NodeState& me = k.nodes_[idx(id_)];
  ++me.counters.global_ops;

  k.emit(TraceEvent::Kind::GlobalOpEnter, me.clock, id_);
  auto& g = k.gop_;
  g.contributions[idx(id_)].assign(contribution.begin(), contribution.end());
  g.waiting[idx(id_)] = true;
  g.max_arrival = std::max(g.max_arrival, me.clock);
  g.duration = std::max(g.duration, duration);
  ++g.arrivals;

  me.status = Kernel::NodeStatus::Blocked;
  me.blocked_on = "global_op (control network)";
  me.blocked_peer = -1;
  me.has_token = false;
  k.maybe_complete_global_op(me.clock, id_);
  k.schedule_next(lock);
  k.wait_for_token(lock, id_);
  k.check_abort(id_);
  me.blocked_on = nullptr;
  return std::move(me.gop_result);
}

bool NodeHandle::try_barrier(util::SimDuration timeout,
                             util::SimDuration duration) {
  Kernel& k = *kernel_;
  CM5_CHECK(duration >= 0);
  CM5_CHECK_MSG(timeout >= 0, "barrier timeout must be non-negative");
  auto lock = k.exec_lock();
  k.check_abort(id_);
  Kernel::NodeState& me = k.nodes_[idx(id_)];
  ++me.counters.global_ops;

  k.emit(TraceEvent::Kind::GlobalOpEnter, me.clock, id_);
  auto& g = k.gop_;
  g.contributions[idx(id_)].clear();
  g.waiting[idx(id_)] = true;
  g.max_arrival = std::max(g.max_arrival, me.clock);
  g.duration = std::max(g.duration, duration);
  ++g.arrivals;

  const util::SimTime deadline = me.clock + timeout;
  me.gop_deadline = deadline;
  ++me.wait_generation;
  k.timer_queue_.push(Kernel::Timer{deadline, k.timer_seq_++, id_,
                                    me.wait_generation,
                                    Kernel::TimerKind::Barrier});

  me.status = Kernel::NodeStatus::Blocked;
  me.blocked_on = "try_barrier (control network)";
  me.blocked_peer = -1;
  me.has_token = false;
  k.maybe_complete_global_op(me.clock, id_);
  k.schedule_next(lock);
  k.wait_for_token(lock, id_);
  k.check_abort(id_);
  me.blocked_on = nullptr;
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

std::unique_lock<std::mutex> Kernel::exec_lock() {
  if (backend_concurrent_) return std::unique_lock<std::mutex>(mutex_);
  return std::unique_lock<std::mutex>(mutex_, std::defer_lock);
}

void Kernel::wait_for_token(std::unique_lock<std::mutex>& lock, NodeId me) {
  backend_->park(lock, me, nodes_[idx(me)].has_token);
}

void Kernel::grant(NodeId id) {
  nodes_[idx(id)].has_token = true;
  backend_->unpark(id);
}

void Kernel::yield(std::unique_lock<std::mutex>& lock, NodeId me) {
  NodeState& st = nodes_[idx(me)];
  st.has_token = false;
  schedule_next(lock);
  wait_for_token(lock, me);
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

void Kernel::start_raw_transfer(util::SimTime match_time, NodeId src,
                                NodeId dst, std::int32_t tag,
                                std::int64_t user_bytes,
                                std::int64_t wire_bytes,
                                util::SimDuration latency,
                                std::vector<std::byte> payload,
                                TransferKind kind,
                                std::optional<PendingRecv> recv_info) {
  const auto transfer_id = static_cast<std::int64_t>(transfers_.size());
  bool dropped = false;
  bool corrupt = false;
  util::SimDuration extra_delay = 0;
  // Swaps model the control-coupled full-duplex exchange and are exempt
  // from per-message faults (degrade/death still affect them).
  if (fault_plan_ && kind != TransferKind::Swap) {
    const std::size_t pair =
        idx(src) * static_cast<std::size_t>(topo_.num_nodes()) + idx(dst);
    const std::int64_t nth = pair_send_count_[pair]++;
    for (const FaultPlan::TargetedDrop& td : fault_plan_->targeted_drops) {
      if (td.src == src && td.dst == dst && td.nth == nth) dropped = true;
    }
    if (!dropped) {
      const FaultDecision d =
          fault_plan_->decide(transfer_id, user_bytes, tag);
      dropped = d.drop;
      corrupt = d.corrupt;
      extra_delay = d.extra_delay;
    }
    // Correlated fault processes share the probabilistic exemptions
    // (control traffic and tiny messages pass unharmed).
    if (fault_plan_->fault_eligible(user_bytes, tag)) {
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
           tag);
    }
  }
  if (recv_info && recv_info->deadline) {
    timed_recv_transfer_[idx(dst)] = transfer_id;
  }
  transfers_.push_back(Transfer{src, dst, user_bytes, tag, std::move(payload),
                                kind, dropped, corrupt,
                                std::move(recv_info)});
  event_queue_.push(QueuedEvent{match_time + latency + extra_delay,
                                event_seq_++, transfer_id, wire_bytes, src,
                                dst});
}

void Kernel::start_transfer(util::SimTime match_time, PendingSend&& send,
                            NodeId dst, std::optional<PendingRecv> recv_info) {
  start_raw_transfer(match_time, send.src, dst, send.tag, send.user_bytes,
                     send.wire_bytes, send.latency, std::move(send.payload),
                     send.async ? TransferKind::Async : TransferKind::Sync,
                     std::move(recv_info));
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

    if (tr.dropped) {
      emit(TraceEvent::Kind::FaultDrop, t, tr.src, tr.dst, tr.user_bytes,
           tr.tag);
      // The rendezvous looks complete from the sender's side; only the
      // receiver's copy is lost.
      if (tr.kind == TransferKind::Sync) {
        if (sender_waiting) wake_node(tr.src, t);
      } else {
        --sender.async_in_flight;
        CM5_CHECK(sender.async_in_flight >= 0);
        if (!sender.killed && sender.waiting_async_drain &&
            sender.async_in_flight == 0) {
          sender.waiting_async_drain = false;
          wake_node(tr.src, t);
        }
      }
      // Re-arm the consumed receive, or let it time out if its deadline
      // already passed while the doomed transfer was in flight. recv_info
      // is empty if the deadline timer already fired for this wait.
      if (tr.recv_info && !receiver.killed &&
          receiver.status == NodeStatus::Blocked) {
        const PendingRecv recv = *tr.recv_info;
        if (recv.deadline && *recv.deadline <= t) {
          receiver.timed_out = true;
          emit(TraceEvent::Kind::WaitTimeout, t, tr.dst, recv.src_filter, 0,
               recv.tag_filter);
          wake_node(tr.dst, t);
        } else {
          auto& queue = send_queues_[idx(tr.dst)];
          auto it = std::find_if(
              queue.begin(), queue.end(), [&](const PendingSend& s) {
                return (recv.src_filter == kAnyNode ||
                        s.src == recv.src_filter) &&
                       (recv.tag_filter == kAnyTag ||
                        s.tag == recv.tag_filter);
              });
          if (it != queue.end()) {
            PendingSend ps = std::move(*it);
            queue.erase(it);
            start_transfer(std::max(t, ps.post_time), std::move(ps), tr.dst,
                           recv);
          } else {
            receiver.posted_recv = recv;
          }
        }
      }
      continue;
    }

    if (tr.corrupt) {
      emit(TraceEvent::Kind::FaultCorrupt, t, tr.src, tr.dst, tr.user_bytes,
           tr.tag);
      if (!tr.payload.empty()) tr.payload[0] ^= std::byte{0x01};
    }

    // A killed (or, under faults, already-finished) receiver swallows
    // the delivery; the wire transfer still happened.
    const bool deliver =
        !receiver.killed && receiver.status != NodeStatus::Done;
    if (deliver) {
      CM5_CHECK_MSG(!receiver.recv_ready, "receiver already holds a message");
      receiver.inbox = Message{tr.src, tr.tag, tr.user_bytes,
                               std::move(tr.payload), tr.corrupt};
      receiver.recv_ready = true;
    }

    switch (tr.kind) {
      case TransferKind::Sync:
        if (deliver) wake_node(tr.dst, t);
        if (sender_waiting) wake_node(tr.src, t);
        break;
      case TransferKind::Async:
        if (deliver) wake_node(tr.dst, t);
        --sender.async_in_flight;
        CM5_CHECK(sender.async_in_flight >= 0);
        if (!sender.killed && sender.waiting_async_drain &&
            sender.async_in_flight == 0) {
          sender.waiting_async_drain = false;
          wake_node(tr.src, t);
        }
        break;
      case TransferKind::Swap:
        // Each endpoint waits for both directions of the exchange.
        if (--receiver.swap_remaining == 0 && deliver) wake_node(tr.dst, t);
        if (--sender.swap_remaining == 0 && sender_waiting) {
          wake_node(tr.src, t);
        }
        break;
    }
  }
}

void Kernel::schedule_next(std::unique_lock<std::mutex>& lock) {
  (void)lock;  // the kernel lock (exec_lock); documents the requirement
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
    if (const auto fc = fluid_->next_event()) consider(*fc, 1);
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
      backend_->notify_finished();
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
  ++g.generation;
  emit(TraceEvent::Kind::GlobalOpComplete, release, completer);
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    if (!g.waiting[idx(n)]) continue;
    g.waiting[idx(n)] = false;
    NodeState& st = nodes_[idx(n)];
    st.gop_result = g.result;
    st.gop_deadline.reset();
    wake_node(n, release);
  }
}

void Kernel::fire_timer(const Timer& timer) {
  NodeState& st = nodes_[idx(timer.node)];
  // A timer is stale if the wait it was armed for is over: the node
  // moved on (generation), was killed, or the wait state is gone.
  if (st.killed || st.status != NodeStatus::Blocked) return;
  if (st.wait_generation != timer.generation) return;
  if (timer.kind == TimerKind::Recv) {
    if (st.posted_recv) {
      if (!st.posted_recv->deadline || *st.posted_recv->deadline != timer.time) {
        return;  // a different (newer) wait owns this node
      }
      const PendingRecv recv = *st.posted_recv;
      st.posted_recv.reset();
      st.timed_out = true;
      emit(TraceEvent::Kind::WaitTimeout, timer.time, timer.node,
           recv.src_filter, 0, recv.tag_filter);
      wake_node(timer.node, timer.time);
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
    st.timed_out = true;
    emit(TraceEvent::Kind::WaitTimeout, timer.time, timer.node,
         recv.src_filter, 0, recv.tag_filter);
    wake_node(timer.node, timer.time);
  } else {
    if (!st.gop_deadline || *st.gop_deadline != timer.time) return;
    if (!gop_.waiting[idx(timer.node)]) return;
    gop_.waiting[idx(timer.node)] = false;
    --gop_.arrivals;
    gop_.contributions[idx(timer.node)].clear();
    recompute_gop_max_arrival();
    st.gop_deadline.reset();
    st.timed_out = true;
    emit(TraceEvent::Kind::WaitTimeout, timer.time, timer.node);
    wake_node(timer.node, timer.time);
  }
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

  // Withdraw the dead node from a global op it is waiting in.
  if (gop_.waiting[idx(node)]) {
    gop_.waiting[idx(node)] = false;
    --gop_.arrivals;
    gop_.contributions[idx(node)].clear();
    recompute_gop_max_arrival();
  }
  st.gop_deadline.reset();

  // Its queued outgoing sends vanish.
  for (auto& q : send_queues_) {
    std::erase_if(q, [&](const PendingSend& s) { return s.src == node; });
  }

  // Queued sends toward it will never match: async ones are lost, and
  // rendezvous senders are woken to fail with PeerFailedError.
  for (PendingSend& s : send_queues_[idx(node)]) {
    NodeState& sender = nodes_[idx(s.src)];
    emit(TraceEvent::Kind::FaultDrop, t, s.src, node, s.user_bytes, s.tag);
    if (s.async) {
      --sender.async_in_flight;
      CM5_CHECK(sender.async_in_flight >= 0);
      if (!sender.killed && sender.waiting_async_drain &&
          sender.async_in_flight == 0) {
        sender.waiting_async_drain = false;
        wake_node(s.src, t);
      }
    } else if (!sender.killed && sender.status == NodeStatus::Blocked) {
      sender.peer_failed = true;
      wake_node(s.src, t);
    }
  }
  send_queues_[idx(node)].clear();

  // Pending swap posts involving the dead node.
  std::erase_if(pending_swaps_, [&](const PendingSwap& s) {
    if (s.poster == node) return true;
    if (s.peer == node) {
      NodeState& poster = nodes_[idx(s.poster)];
      if (!poster.killed && poster.status == NodeStatus::Blocked) {
        poster.peer_failed = true;
        wake_node(s.poster, t);
      }
      return true;
    }
    return false;
  });

  // Untimed receives waiting specifically on the dead node fail now;
  // timed receives simply run to their deadline (a real machine cannot
  // tell a dead peer from a silent one).
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    if (n == node) continue;
    NodeState& other = nodes_[idx(n)];
    if (other.killed || other.status != NodeStatus::Blocked) continue;
    if (other.posted_recv && other.posted_recv->src_filter == node &&
        !other.posted_recv->deadline) {
      other.posted_recv.reset();
      other.peer_failed = true;
      wake_node(n, t);
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
  bool aborted_before_start = false;
  {
    auto lock = exec_lock();
    wait_for_token(lock, id);
    aborted_before_start = abort_;
  }
  NodeHandle handle(this, id);
  try {
    if (!aborted_before_start) program(handle);
  } catch (const AbortError&) {
    // Another node failed first; unwind quietly.
  } catch (const DeadlockError&) {
    auto lock = exec_lock();
    if (!first_error_) first_error_ = std::current_exception();
  } catch (...) {
    auto lock = exec_lock();
    if (!first_error_) {
      first_error_ = std::current_exception();
      abort_ = true;
      for (NodeId n = 0; n < topo_.num_nodes(); ++n) grant(n);
    }
  }

  auto lock = exec_lock();
  NodeState& me = nodes_[idx(id)];
  me.status = NodeStatus::Done;
  me.has_token = false;
  ++done_count_;
  emit(TraceEvent::Kind::NodeDone, me.clock, id);
  if (!abort_) {
    try {
      schedule_next(lock);
    } catch (...) {
      if (!first_error_) first_error_ = std::current_exception();
      abort_ = true;
      for (NodeId n = 0; n < topo_.num_nodes(); ++n) grant(n);
    }
  }
  if (abort_ && done_count_ == topo_.num_nodes()) {
    run_finished_ = true;
    backend_->notify_finished();
  }
}

RunResult Kernel::run(const NodeProgram& program) {
  const std::int32_t n = topo_.num_nodes();
  CM5_CHECK(n >= 1);

  fluid_ = std::make_unique<net::FluidNetwork>(topo_);
  // CM5_SOLVER_ORACLE=1 swaps in the reference whole-network rate solver
  // for every run — a differential lever for bisecting any suspected
  // fast-path divergence without recompiling (see docs/PERF.md §2).
  if (const char* mode = std::getenv("CM5_SOLVER_ORACLE");
      mode != nullptr && mode[0] == '1' && mode[1] == '\0') {
    fluid_->set_solver_mode(net::FluidNetwork::SolverMode::kOracle);
  }
  nodes_.assign(static_cast<std::size_t>(n), NodeState{});
  send_queues_.assign(static_cast<std::size_t>(n), {});
  pending_swaps_.clear();
  event_queue_ = {};
  runnable_queue_ = {};
  for (NodeId i = 0; i < n; ++i) push_runnable(i);  // all start at time 0
  event_seq_ = 0;
  send_seq_ = 0;
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

  backend_ = ExecutionBackend::create(exec_model_);
  backend_concurrent_ = backend_->concurrent();
  backend_->launch(n, [this, &program](NodeId i) { node_main(program, i); });

  {
    auto lock = exec_lock();
    schedule_next(lock);  // grant the first token (node 0 at time 0)
    backend_->drive(lock, run_finished_);
  }
  const ExecutionModel ran_model = backend_->model();
  const std::int64_t switches = backend_->switches();
  backend_.reset();
  backend_concurrent_ = true;

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
  result.exec_model = ran_model;
  result.context_switches = switches;
  return result;
}

}  // namespace cm5::sim
