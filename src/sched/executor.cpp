#include "cm5/sched/executor.hpp"

#include <algorithm>
#include <utility>

#include "cm5/util/check.hpp"

namespace cm5::sched {
namespace {

/// Canonical in-step ordering key, computed identically at both endpoints
/// of an operation. Exchanges order by their unordered pair; one-way
/// operations by (src, dst).
///
/// Deadlock-freedom: each processor executes its step operations in
/// increasing key order, and both endpoints of an operation agree on the
/// key. An operation can only wait for operations with strictly smaller
/// keys (those ahead of it at either endpoint); a waits-for cycle would
/// therefore need a key smaller than itself. Inside an Exchange, the
/// lower-numbered processor receives first (Figure 2), so the two
/// messages of the exchange are themselves strictly ordered.
struct OpKey {
  std::int32_t a;
  std::int32_t b;
  std::int32_t kind;  // 0 = exchange, 1 = one-way

  bool operator<(const OpKey& other) const {
    return std::tie(a, b, kind) < std::tie(other.a, other.b, other.kind);
  }
};

OpKey key_for(NodeId self, const Op& op) {
  switch (op.kind) {
    case Op::Kind::Exchange:
      return OpKey{std::min(self, op.peer), std::max(self, op.peer), 0};
    case Op::Kind::Send:
      return OpKey{self, op.peer, 1};
    case Op::Kind::Recv:
      return OpKey{op.peer, self, 1};
  }
  CM5_CHECK_MSG(false, "unknown op kind");
  return {};
}

}  // namespace

void ordered_ops(const CommSchedule& schedule, std::int32_t step, NodeId self,
                 std::vector<Op>& out) {
  const std::vector<Op>& ops = schedule.ops(step, self);
  out.assign(ops.begin(), ops.end());
  std::sort(out.begin(), out.end(), [&](const Op& x, const Op& y) {
    return key_for(self, x) < key_for(self, y);
  });
}

void execute_schedule(machine::Node& node, const CommSchedule& schedule,
                      const ExecutorOptions& options, const DataPlan* data) {
  CM5_CHECK_MSG(schedule.nprocs() == node.nprocs(),
                "schedule built for a different machine size");
  const NodeId self = node.self();

  auto send_to = [&](NodeId peer, std::int64_t bytes, std::int32_t tag) {
    if (data != nullptr) {
      std::vector<std::byte> payload = data->out(peer);
      CM5_CHECK_MSG(static_cast<std::int64_t>(payload.size()) == bytes,
                    "DataPlan produced a payload of the wrong size");
      node.send_block_data(peer, std::move(payload), tag);
    } else {
      node.send_block(peer, bytes, tag);
    }
  };
  auto recv_from = [&](NodeId peer, std::int64_t bytes, std::int32_t tag) {
    const machine::Message msg = node.receive_block(peer, tag);
    CM5_CHECK_MSG(msg.size == bytes, "received unexpected message size");
    if (data != nullptr) data->in(peer, msg);
  };

  std::vector<Op> ops;
  for (std::int32_t step = 0; step < schedule.num_steps(); ++step) {
    ordered_ops(schedule, step, self, ops);
    const std::int32_t tag = options.tag_base + step;
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::Kind::Send:
          send_to(op.peer, op.send_bytes, tag);
          break;
        case Op::Kind::Recv:
          recv_from(op.peer, op.recv_bytes, tag);
          break;
        case Op::Kind::Exchange:
          // Figure 2: the lower-numbered processor receives first.
          if (self < op.peer) {
            recv_from(op.peer, op.recv_bytes, tag);
            send_to(op.peer, op.send_bytes, tag);
          } else {
            send_to(op.peer, op.send_bytes, tag);
            recv_from(op.peer, op.recv_bytes, tag);
          }
          break;
      }
    }
    if (options.barrier_per_step) node.barrier();
  }
}

sim::RunResult run_scheduled_pattern(machine::Cm5Machine& machine,
                                     Scheduler scheduler,
                                     const CommPattern& pattern,
                                     const ExecutorOptions& options) {
  const CommSchedule schedule = build_schedule(scheduler, pattern);
  return machine.run([&](machine::Node& node) {
    execute_schedule(node, schedule, options);
  });
}

machine::ObservedRun run_scheduled_pattern_observed(
    machine::Cm5Machine& machine, Scheduler scheduler,
    const CommPattern& pattern, const ExecutorOptions& options) {
  const CommSchedule schedule = build_schedule(scheduler, pattern);
  return machine.run_observed([&](machine::Node& node) {
    execute_schedule(node, schedule, options);
  });
}

}  // namespace cm5::sched
