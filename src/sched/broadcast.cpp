#include "cm5/sched/broadcast.hpp"

#include "cm5/util/check.hpp"
#include "exact_log2.hpp"

namespace cm5::sched {
namespace {

// Each skeleton decides one broadcast's peers, tags and order: `forward`
// is called on a sender with the peer to send to, `accept` on a receiver
// with the peer to receive from, both with the tag. The phantom and data
// forms supply only those two bodies, so both post the same sequence.

/// LIB: the root sends to root+1, root+2, ... in turn with tag 0; every
/// other node receives once from the root, any tag.
constexpr auto lib_skeleton = [](Node& node, NodeId root, auto&& forward,
                                 auto&& accept) {
  const std::int32_t n = node.nprocs();
  CM5_CHECK(root >= 0 && root < n);
  if (node.self() != root) {
    accept(root, machine::kAnyTag);
    return;
  }
  for (std::int32_t i = 1; i < n; ++i) {
    forward(static_cast<NodeId>((root + i) % n), 0);
  }
};

/// REB: ids are rotated (rel = self - root mod N) so any root works.
constexpr auto reb_skeleton = [](Node& node, NodeId root, auto&& forward,
                                 auto&& accept) {
  const std::int32_t n = node.nprocs();
  const std::int32_t rounds =
      exact_log2(n, "recursive broadcast needs a power-of-two machine");
  CM5_CHECK(root >= 0 && root < n);
  const std::int32_t rel = (node.self() - root + n) % n;
  auto phys = [&](std::int32_t r) { return static_cast<NodeId>((r + root) % n); };
  // Figure 9: in round j only processors at multiples of `distance`
  // participate; even multiples already hold the message and forward it.
  for (std::int32_t j = 1; j <= rounds; ++j) {
    const std::int32_t distance = n >> j;
    if (rel % distance != 0) continue;
    if ((rel / distance) % 2 == 0) {
      forward(phys(rel + distance), j);
    } else {
      accept(phys(rel - distance), j);
    }
  }
};

/// The phantom form of a skeleton: size-only messages.
void phantom_broadcast(Node& node, NodeId root, std::int64_t bytes,
                       auto skeleton) {
  skeleton(
      node, root,
      [&](NodeId peer, std::int32_t tag) { node.send_block(peer, bytes, tag); },
      [&](NodeId peer, std::int32_t tag) {
        (void)node.receive_block(peer, tag);
      });
}

/// The data form of a skeleton: every receiver holds, and forwards, the
/// root's payload; returns it on every node.
std::vector<std::byte> data_broadcast(Node& node, NodeId root,
                                      std::span<const std::byte> data,
                                      auto skeleton) {
  std::vector<std::byte> held;
  if (node.self() == root) held.assign(data.begin(), data.end());
  skeleton(
      node, root,
      [&](NodeId peer, std::int32_t tag) {
        node.send_block_data(peer, held, tag);
      },
      [&](NodeId peer, std::int32_t tag) {
        held = node.receive_block(peer, tag).data;
      });
  return held;
}

}  // namespace

const char* broadcast_name(BroadcastAlgorithm algorithm) {
  switch (algorithm) {
    case BroadcastAlgorithm::Linear:
      return "Linear";
    case BroadcastAlgorithm::Recursive:
      return "Recursive";
    case BroadcastAlgorithm::System:
      return "System";
  }
  return "?";
}

void run_linear_broadcast(Node& node, NodeId root, std::int64_t bytes) {
  phantom_broadcast(node, root, bytes, lib_skeleton);
}

void run_recursive_broadcast(Node& node, NodeId root, std::int64_t bytes) {
  phantom_broadcast(node, root, bytes, reb_skeleton);
}

void run_system_broadcast(Node& node, NodeId root, std::int64_t bytes) {
  node.broadcast_phantom(root, bytes);
}

void broadcast(Node& node, BroadcastAlgorithm algorithm, NodeId root,
               std::int64_t bytes) {
  switch (algorithm) {
    case BroadcastAlgorithm::Linear:
      run_linear_broadcast(node, root, bytes);
      return;
    case BroadcastAlgorithm::Recursive:
      run_recursive_broadcast(node, root, bytes);
      return;
    case BroadcastAlgorithm::System:
      run_system_broadcast(node, root, bytes);
      return;
  }
  CM5_CHECK_MSG(false, "unknown broadcast algorithm");
}

void run_pipelined_broadcast(Node& node, NodeId root, std::int64_t bytes,
                             std::int32_t segments) {
  const std::int32_t n = node.nprocs();
  CM5_CHECK(root >= 0 && root < n);
  CM5_CHECK(segments >= 1);
  CM5_CHECK(bytes >= 0);
  if (n == 1) return;
  const std::int32_t rel = (node.self() - root + n) % n;
  // Chunk sizes differ by at most one byte so the sizes sum exactly.
  auto chunk_bytes = [&](std::int32_t k) {
    const std::int64_t lo = bytes * k / segments;
    const std::int64_t hi = bytes * (k + 1) / segments;
    return hi - lo;
  };
  const NodeId prev = static_cast<NodeId>((node.self() - 1 + n) % n);
  const NodeId next = static_cast<NodeId>((node.self() + 1) % n);
  for (std::int32_t k = 0; k < segments; ++k) {
    if (rel != 0) (void)node.receive_block(prev, k);
    if (rel != n - 1) node.send_block(next, chunk_bytes(k), k);
  }
}

std::vector<std::byte> recursive_broadcast_data(
    Node& node, NodeId root, std::span<const std::byte> data) {
  return data_broadcast(node, root, data, reb_skeleton);
}

std::vector<std::byte> linear_broadcast_data(Node& node, NodeId root,
                                             std::span<const std::byte> data) {
  return data_broadcast(node, root, data, lib_skeleton);
}

}  // namespace cm5::sched
