#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cm5/machine/params.hpp"
#include "cm5/net/topology.hpp"
#include "cm5/sim/kernel.hpp"
#include "cm5/sim/message.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/util/time.hpp"

/// \file machine.hpp
/// The simulated CM-5: a partition of nodes with CMMD-flavoured messaging.
///
/// This is the layer node programs are written against. It owns the cost
/// model (overheads, packetization, control-network charges) and delegates
/// event ordering to the cm5::sim kernel.

namespace cm5::machine {

using net::NodeId;
using sim::kAnyNode;
using sim::kAnyTag;
using sim::Message;

class Cm5Machine;

/// Per-node interface handed to node programs. Mirrors the CMMD calls the
/// paper uses: blocking (synchronous) send/receive, plus control-network
/// global operations, plus explicit compute-time charging.
class Node {
 public:
  NodeId self() const noexcept { return handle_.id(); }
  std::int32_t nprocs() const noexcept { return handle_.nprocs(); }
  util::SimTime now() const { return handle_.now(); }
  const MachineParams& params() const noexcept { return *params_; }

  // --- point-to-point (data network) ---------------------------------------

  /// Blocking send of `bytes` user bytes with no payload (phantom message;
  /// only timing is simulated). Returns when the transfer completed —
  /// CMMD 1.x synchronous semantics, the paper's central constraint.
  void send_block(NodeId dst, std::int64_t bytes, std::int32_t tag = 0);

  /// Blocking send carrying real data (used by the verifying applications).
  /// Copies `data` into the message; forwards to the overload below.
  void send_block_data(NodeId dst, std::span<const std::byte> data,
                       std::int32_t tag = 0);
  /// Same send, taking ownership of `data` as the message payload instead
  /// of copying it: for callers that are done with the buffer. Timing is
  /// identical to the span overload.
  void send_block_data(NodeId dst, std::vector<std::byte>&& data,
                       std::int32_t tag = 0);

  /// Blocking receive; src/tag may be wildcards (kAnyNode / kAnyTag).
  Message receive_block(NodeId src = kAnyNode, std::int32_t tag = kAnyTag);

  /// Blocking receive with a virtual-time deadline `timeout` from now.
  /// Returns nullopt if nothing matched by the deadline (the node
  /// resumes exactly at the deadline; recv overhead is charged only on
  /// success). The fault-observing primitive resilient executors build on.
  std::optional<Message> receive_timeout(NodeId src, std::int32_t tag,
                                         util::SimDuration timeout);

  /// Full-duplex exchange (CMMD_swap): sends `bytes` to `peer` while
  /// receiving the peer's message of the same call; both directions
  /// move simultaneously, unlike the serialized send/receive pair of
  /// Figure 2. Both sides must call swap_block with the same tag.
  Message swap_block(NodeId peer, std::int64_t bytes, std::int32_t tag = 0);

  /// Full-duplex exchange carrying real data.
  Message swap_block_data(NodeId peer, std::span<const std::byte> data,
                          std::int32_t tag = 0);

  /// Non-blocking send (extension; see DESIGN.md A1 ablation). The paper
  /// notes CMMD 1.x lacks this and predicts LEX would improve with it.
  void send_async(NodeId dst, std::int64_t bytes, std::int32_t tag = 0);
  void send_async_data(NodeId dst, std::span<const std::byte> data,
                       std::int32_t tag = 0);
  /// Blocks until all async sends from this node completed.
  void wait_sends();

  // --- compute model --------------------------------------------------------

  /// Charges `d` of local computation.
  void compute(util::SimDuration d) { handle_.advance(d); }
  /// Charges time for `flops` floating-point operations at params().mflops.
  void compute_flops(double flops);
  /// Charges time for copying `bytes` at params().memcpy_bw (pack/unpack).
  void compute_copy_bytes(std::int64_t bytes);

  // --- control network ------------------------------------------------------

  /// Global barrier; all nodes resume together.
  void barrier();
  /// Barrier with a deadline `timeout` from now; false if it expired
  /// before every live node arrived (this node's arrival is withdrawn).
  bool try_barrier(util::SimDuration timeout);
  /// Raw control-network concatenation of per-node byte strings (dead
  /// nodes contribute nothing). Charged like a barrier. The resilient
  /// executor's agreement primitive. The view stays valid until this
  /// node's next control-network operation (NodeHandle::global_op).
  std::span<const std::byte> global_concat(std::span<const std::byte> data);
  /// Global sum; every node receives the total.
  double reduce_sum(double x);
  std::int64_t reduce_sum_i64(std::int64_t x);
  /// Global max; every node receives the maximum.
  double reduce_max(double x);

  /// Timing-only model of reducing a `length`-element vector through the
  /// control network: the hardware combines one word at a time, so the
  /// cost is length sequential scalar combines. (Real data reductions of
  /// long vectors should use the data network — see
  /// cm5::sched::all_reduce_sum.)
  void reduce_phantom_vector(std::int64_t length);

  /// CMMD system broadcast (control network; all nodes must participate).
  /// Root's data is returned on every node.
  std::vector<std::byte> broadcast_data(NodeId root,
                                        std::span<const std::byte> data);
  /// Phantom variant: only `bytes` is used, for timing.
  void broadcast_phantom(NodeId root, std::int64_t bytes);

 private:
  friend class Cm5Machine;
  Node(sim::NodeHandle& handle, const MachineParams& params)
      : handle_(handle), params_(&params) {}

  sim::NodeHandle& handle_;
  const MachineParams* params_;
};

/// A node program at machine level.
using Program = std::function<void(Node&)>;

/// A run observed end to end: the kernel's result, the metrics derived
/// from its trace, and the invariant violations sim::validate_trace
/// reports. Tracing is pure observation, so `result` (the makespan in
/// particular) is bit-identical to what the untraced run() returns.
struct ObservedRun {
  sim::RunResult result;
  sim::RunMetrics metrics;
  std::vector<std::string> violations;
};

/// A simulated CM-5 partition. Construct once, run node programs on it.
class Cm5Machine {
 public:
  explicit Cm5Machine(MachineParams params);

  /// Runs `program` on all nodes to completion; returns timing/traffic.
  sim::RunResult run(const Program& program);

  /// Like run(), streaming every simulated event into `sink`
  /// (see cm5::sim::TraceRecorder for a convenient collector).
  sim::RunResult run_traced(const Program& program, sim::TraceSink sink);

  /// Like run(), analyzed and validated as the events commit: the trace
  /// streams into one sim::MetricsBuilder and one sim::TraceValidator
  /// and no event is retained, so memory stays O(state), not O(events).
  /// The output equals sim::analyze / sim::validate_trace of a recorded
  /// trace of the same run (docs/METRICS.md "Streaming analysis").
  ObservedRun run_observed(const Program& program);

  /// Installs a fault plan applied to every subsequent run (validated
  /// against the partition size). Clear with clear_fault_plan().
  void set_fault_plan(sim::FaultPlan plan);
  void clear_fault_plan() { fault_plan_.reset(); }
  const std::optional<sim::FaultPlan>& fault_plan() const noexcept {
    return fault_plan_;
  }

  const MachineParams& params() const noexcept { return params_; }
  const net::FatTreeTopology& topology() const noexcept { return topo_; }

 private:
  MachineParams params_;
  net::FatTreeTopology topo_;
  std::optional<sim::FaultPlan> fault_plan_;
};

}  // namespace cm5::machine
