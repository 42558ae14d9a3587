#include "cm5/machine/machine.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

#include "cm5/util/check.hpp"

namespace cm5::machine {

MachineParams MachineParams::cm5_defaults(std::int32_t nprocs) {
  MachineParams p;
  p.tree = net::FatTreeConfig::cm5(nprocs);
  return p;
}

MachineParams MachineParams::cm5e_like(std::int32_t nprocs) {
  MachineParams p = cm5_defaults(nprocs);
  // CMMD 3.x halved the messaging software path; SuperSPARC nodes are
  // roughly 4x the scalar FP throughput.
  p.send_overhead = util::from_us(15);
  p.recv_overhead = util::from_us(15);
  p.net_latency = util::from_us(14);
  p.mflops = 6.0;
  p.memcpy_bw = 60e6;
  return p;
}

MachineParams MachineParams::ipsc860_like(std::int32_t nprocs) {
  MachineParams p;
  p.tree.num_nodes = nprocs;
  // No thinning: the hypercube's per-node bisection share is flat.
  p.tree.per_node_bw_at_height = {2.8e6};
  // Bokhari's measurements: ~160 us for short messages, ~2.8 MB/s links.
  p.send_overhead = util::from_us(60);
  p.recv_overhead = util::from_us(60);
  p.net_latency = util::from_us(40);
  // No 20-byte packetization on the iPSC; model as 1:1 framing.
  p.wire.packet_bytes = 100;
  p.wire.payload_bytes = 100;
  // The i860 node is much faster than the CM-5's SPARC at compute.
  p.mflops = 8.0;
  p.memcpy_bw = 40e6;
  // No combining control network: global ops go through software trees,
  // ~ a few hundred microseconds at these sizes.
  p.ctl_latency = util::from_us(300);
  p.ctl_broadcast_bw = 1.0e6;
  p.ctl_broadcast_overhead = util::from_us(300);
  return p;
}

// ---------------------------------------------------------------------- Node

void Node::send_block(NodeId dst, std::int64_t bytes, std::int32_t tag) {
  CM5_CHECK(bytes >= 0);
  handle_.advance(params_->send_overhead);
  handle_.post_send(dst, tag, bytes, params_->wire_bytes(bytes),
                    params_->net_latency, {});
}

void Node::send_block_data(NodeId dst, std::span<const std::byte> data,
                           std::int32_t tag) {
  send_block_data(dst, std::vector<std::byte>(data.begin(), data.end()), tag);
}

void Node::send_block_data(NodeId dst, std::vector<std::byte>&& data,
                           std::int32_t tag) {
  const auto bytes = static_cast<std::int64_t>(data.size());
  handle_.advance(params_->send_overhead);
  handle_.post_send(dst, tag, bytes, params_->wire_bytes(bytes),
                    params_->net_latency, std::move(data));
}

Message Node::receive_block(NodeId src, std::int32_t tag) {
  Message msg = handle_.post_receive(src, tag);
  handle_.advance(params_->recv_overhead);
  return msg;
}

std::optional<Message> Node::receive_timeout(NodeId src, std::int32_t tag,
                                             util::SimDuration timeout) {
  std::optional<Message> msg = handle_.post_receive_timeout(src, tag, timeout);
  if (msg) handle_.advance(params_->recv_overhead);
  return msg;
}

Message Node::swap_block(NodeId peer, std::int64_t bytes, std::int32_t tag) {
  CM5_CHECK(bytes >= 0);
  handle_.advance(params_->send_overhead);
  Message msg = handle_.post_swap(peer, tag, bytes, params_->wire_bytes(bytes),
                                  params_->net_latency, {});
  handle_.advance(params_->recv_overhead);
  return msg;
}

Message Node::swap_block_data(NodeId peer, std::span<const std::byte> data,
                              std::int32_t tag) {
  handle_.advance(params_->send_overhead);
  Message msg = handle_.post_swap(
      peer, tag, static_cast<std::int64_t>(data.size()),
      params_->wire_bytes(static_cast<std::int64_t>(data.size())),
      params_->net_latency,
      std::vector<std::byte>(data.begin(), data.end()));
  handle_.advance(params_->recv_overhead);
  return msg;
}

void Node::send_async(NodeId dst, std::int64_t bytes, std::int32_t tag) {
  CM5_CHECK(bytes >= 0);
  handle_.advance(params_->send_overhead);
  handle_.post_send_async(dst, tag, bytes, params_->wire_bytes(bytes),
                          params_->net_latency, {});
}

void Node::send_async_data(NodeId dst, std::span<const std::byte> data,
                           std::int32_t tag) {
  handle_.advance(params_->send_overhead);
  handle_.post_send_async(
      dst, tag, static_cast<std::int64_t>(data.size()),
      params_->wire_bytes(static_cast<std::int64_t>(data.size())),
      params_->net_latency,
      std::vector<std::byte>(data.begin(), data.end()));
}

void Node::wait_sends() { handle_.wait_async_sends(); }

void Node::compute_flops(double flops) {
  CM5_CHECK(flops >= 0.0);
  handle_.advance(util::from_seconds(flops / (params_->mflops * 1e6)));
}

void Node::compute_copy_bytes(std::int64_t bytes) {
  CM5_CHECK(bytes >= 0);
  handle_.advance(
      util::transfer_time(static_cast<double>(bytes), params_->memcpy_bw));
}

void Node::barrier() { handle_.global_op({}, params_->ctl_latency); }

bool Node::try_barrier(util::SimDuration timeout) {
  return handle_.try_barrier(timeout, params_->ctl_latency);
}

std::span<const std::byte> Node::global_concat(
    std::span<const std::byte> data) {
  return handle_.global_op(data, params_->ctl_latency);
}

namespace {

/// Contributes `x` to a global op and folds every node's value into
/// `acc` with `fold`, in node order 0..n-1 (so sums are bit-identical on
/// every node and every run).
template <typename T, typename Fold>
T fold_global(sim::NodeHandle& handle, util::SimDuration latency, T x, T acc,
              Fold fold) {
  std::array<std::byte, sizeof(T)> buf;
  std::memcpy(buf.data(), &x, sizeof(T));
  const std::span<const std::byte> all = handle.global_op(buf, latency);
  CM5_CHECK(all.size() ==
            sizeof(T) * static_cast<std::size_t>(handle.nprocs()));
  for (std::size_t off = 0; off < all.size(); off += sizeof(T)) {
    T v;
    std::memcpy(&v, all.data() + off, sizeof(T));
    acc = fold(acc, v);
  }
  return acc;
}

}  // namespace

double Node::reduce_sum(double x) {
  return fold_global(handle_, params_->ctl_latency, x, 0.0,
                     [](double a, double b) { return a + b; });
}

std::int64_t Node::reduce_sum_i64(std::int64_t x) {
  return fold_global(handle_, params_->ctl_latency, x, std::int64_t{0},
                     [](std::int64_t a, std::int64_t b) { return a + b; });
}

double Node::reduce_max(double x) {
  return fold_global(handle_, params_->ctl_latency, x,
                     -std::numeric_limits<double>::infinity(),
                     [](double a, double b) { return std::max(a, b); });
}

void Node::reduce_phantom_vector(std::int64_t length) {
  CM5_CHECK(length >= 1);
  handle_.global_op({}, length * params_->ctl_latency);
}

std::vector<std::byte> Node::broadcast_data(NodeId root,
                                            std::span<const std::byte> data) {
  CM5_CHECK(root >= 0 && root < nprocs());
  const auto bytes = static_cast<std::int64_t>(data.size());
  const util::SimDuration cost =
      params_->ctl_broadcast_overhead +
      util::transfer_time(static_cast<double>(bytes), params_->ctl_broadcast_bw);
  // Only the root contributes payload; the concatenation of all
  // contributions is therefore exactly the root's data.
  const std::span<const std::byte> contribution =
      self() == root ? data : std::span<const std::byte>{};
  const std::span<const std::byte> all = handle_.global_op(contribution, cost);
  return {all.begin(), all.end()};
}

void Node::broadcast_phantom(NodeId root, std::int64_t bytes) {
  CM5_CHECK(root >= 0 && root < nprocs());
  CM5_CHECK(bytes >= 0);
  const util::SimDuration cost =
      params_->ctl_broadcast_overhead +
      util::transfer_time(static_cast<double>(bytes), params_->ctl_broadcast_bw);
  handle_.global_op({}, cost);
}

// ---------------------------------------------------------------- Cm5Machine

Cm5Machine::Cm5Machine(MachineParams params)
    : params_(params), topo_(params_.tree) {}

sim::RunResult Cm5Machine::run(const Program& program) {
  return run_traced(program, {});
}

sim::RunResult Cm5Machine::run_traced(const Program& program,
                                      sim::TraceSink sink) {
  sim::Kernel kernel(topo_);
  if (fault_plan_) kernel.set_fault_plan(*fault_plan_);
  kernel.set_trace(std::move(sink));
  return kernel.run([this, &program](sim::NodeHandle& handle) {
    Node node(handle, params_);
    program(node);
  });
}

ObservedRun Cm5Machine::run_observed(const Program& program) {
  sim::MetricsBuilder builder(topo_.num_nodes());
  sim::TraceValidator validator(topo_.num_nodes());
  ObservedRun out;
  out.result = run_traced(program, [&](const sim::TraceEvent& event) {
    builder.on_event(event);
    validator.on_event(event);
  });
  out.metrics = builder.finalize(&out.result);
  out.violations = validator.finalize(&out.result);
  return out;
}

void Cm5Machine::set_fault_plan(sim::FaultPlan plan) {
  plan.validate(topo_.num_nodes());
  fault_plan_ = std::move(plan);
}

}  // namespace cm5::machine
