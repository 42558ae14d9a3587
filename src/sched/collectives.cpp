#include "cm5/sched/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "cm5/util/check.hpp"
#include "exact_log2.hpp"

namespace cm5::sched {
namespace {

/// Serializes (id, payload) items: [int32 id][int64 size][bytes...].
void append_item(std::vector<std::byte>& buffer, std::int32_t id,
                 std::span<const std::byte> payload) {
  const std::int64_t size = static_cast<std::int64_t>(payload.size());
  const auto old = buffer.size();
  buffer.resize(old + sizeof(id) + sizeof(size) + payload.size());
  std::memcpy(buffer.data() + old, &id, sizeof(id));
  std::memcpy(buffer.data() + old + sizeof(id), &size, sizeof(size));
  std::memcpy(buffer.data() + old + sizeof(id) + sizeof(size), payload.data(),
              payload.size());
}

using Held = std::map<std::int32_t, std::vector<std::byte>>;

/// Every held item, in id order.
std::vector<std::byte> pack_all(const Held& held) {
  std::vector<std::byte> buffer;
  for (const auto& [id, payload] : held) append_item(buffer, id, payload);
  return buffer;
}

void parse_items(std::span<const std::byte> buffer, Held& out) {
  std::size_t offset = 0;
  while (offset < buffer.size()) {
    std::int32_t id;
    std::int64_t size;
    std::memcpy(&id, buffer.data() + offset, sizeof(id));
    offset += sizeof(id);
    std::memcpy(&size, buffer.data() + offset, sizeof(size));
    offset += sizeof(size);
    CM5_CHECK(size >= 0 &&
              offset + static_cast<std::size_t>(size) <= buffer.size());
    out[id].assign(buffer.begin() + static_cast<std::ptrdiff_t>(offset),
                   buffer.begin() + static_cast<std::ptrdiff_t>(
                                        offset + static_cast<std::size_t>(size)));
    offset += static_cast<std::size_t>(size);
  }
}

/// The held items as a vector indexed by node id.
std::vector<std::vector<std::byte>> by_node(Held& held, std::int32_t n) {
  std::vector<std::vector<std::byte>> result(static_cast<std::size_t>(n));
  for (auto& [id, payload] : held) {
    result[static_cast<std::size_t>(id)] = std::move(payload);
  }
  return result;
}

// Each skeleton below decides one collective's peers, tags and order; its
// phantom (timing) and data forms supply only the send and receive
// bodies, so both post the same message sequence. Trees are rooted by
// rotating ids (rel = self - root mod N), so any root works.

/// Recursive doubling: step k swaps with self XOR 2^k, tag k.
template <typename Exchange>
void all_gather_skeleton(Node& node, Exchange&& exchange) {
  const std::int32_t steps = exact_log2(
      node.nprocs(), "all_gather needs a power-of-two machine");
  for (std::int32_t k = 0; k < steps; ++k) {
    exchange(static_cast<NodeId>(node.self() ^ (1 << k)), k);
  }
}

/// Binomial gather tree: in step k (tag k) a node whose relative id is
/// an odd multiple of 2^k passes its subtree's blocks down-tree and
/// stops; an even multiple receives its partner's subtree.
template <typename Send, typename Recv>
void gather_skeleton(Node& node, NodeId root, Send&& send, Recv&& recv) {
  const std::int32_t n = node.nprocs();
  const std::int32_t steps =
      exact_log2(n, "gather needs a power-of-two machine");
  CM5_CHECK(root >= 0 && root < n);
  const std::int32_t rel = (node.self() - root + n) % n;
  auto phys = [&](std::int32_t r) { return static_cast<NodeId>((r + root) % n); };
  for (std::int32_t k = 0; k < steps; ++k) {
    const std::int32_t bit = 1 << k;
    if (rel % (bit << 1) == bit) {
      send(phys(rel - bit), k);
      return;  // done participating
    }
    if (rel % (bit << 1) == 0) recv(phys(rel + bit), k);
  }
}

/// The gather tree run backwards: in step k (tag k, high bit first) an
/// even multiple of 2^k hands the upper half of its range to rel + 2^k.
template <typename Send, typename Recv>
void scatter_skeleton(Node& node, NodeId root, Send&& send, Recv&& recv) {
  const std::int32_t n = node.nprocs();
  const std::int32_t steps =
      exact_log2(n, "scatter needs a power-of-two machine");
  CM5_CHECK(root >= 0 && root < n);
  const std::int32_t rel = (node.self() - root + n) % n;
  auto phys = [&](std::int32_t r) { return static_cast<NodeId>((r + root) % n); };
  for (std::int32_t k = steps - 1; k >= 0; --k) {
    const std::int32_t bit = 1 << k;
    if (rel % (bit << 1) == 0) {
      send(phys(rel + bit), k);
    } else if (rel % (bit << 1) == bit) {
      recv(phys(rel - bit), k);
    }
  }
}

}  // namespace

// ------------------------------------------------------------- all-gather

void all_gather(Node& node, std::int64_t bytes) {
  CM5_CHECK(bytes >= 0);
  // Full-duplex swaps (CMMD_swap): both equal directions of every
  // exchange overlap.
  all_gather_skeleton(node, [&](NodeId peer, std::int32_t k) {
    (void)node.swap_block(peer, bytes << k, k);
  });
}

std::vector<std::vector<std::byte>> all_gather_data(
    Node& node, std::span<const std::byte> mine) {
  Held held;
  held[node.self()].assign(mine.begin(), mine.end());
  all_gather_skeleton(node, [&](NodeId peer, std::int32_t k) {
    parse_items(node.swap_block_data(peer, pack_all(held), k).data, held);
  });
  CM5_CHECK(held.size() == static_cast<std::size_t>(node.nprocs()));
  return by_node(held, node.nprocs());
}

// ------------------------------------------------- data-network reduction

void all_reduce_sum(Node& node, std::span<double> values) {
  const std::int32_t n = node.nprocs();
  const std::int32_t steps =
      exact_log2(n, "all_reduce_sum needs a power-of-two machine");
  const NodeId self = node.self();

  // Rabenseifner's algorithm: reduce-scatter by recursive halving, then
  // all-gather by recursive doubling — total volume ~2 * L * (1 - 1/N)
  // per node instead of recursive doubling's L * lg N. Segment
  // boundaries handle lengths not divisible by N.
  const auto L = values.size();
  auto seg = [&](std::int32_t s) {
    return L * static_cast<std::size_t>(s) / static_cast<std::size_t>(n);
  };
  auto pack = [&](std::int32_t s_lo, std::int32_t s_hi) {
    const std::size_t lo = seg(s_lo), hi = seg(s_hi);
    std::vector<std::byte> out((hi - lo) * sizeof(double));
    // memcpy from an empty vector's null data() is undefined: skip it.
    if (!out.empty()) std::memcpy(out.data(), values.data() + lo, out.size());
    return out;
  };

  // Phase 1: recursive halving. My active segment range [lo, hi);
  // each step I keep the half containing my own bit and send the rest.
  std::int32_t lo = 0, hi = n;
  for (std::int32_t k = steps - 1; k >= 0; --k) {
    const std::int32_t bit = 1 << k;
    const NodeId peer = self ^ bit;
    const std::int32_t mid = lo + (hi - lo) / 2;
    const bool keep_low = (self & bit) == 0;
    const auto outgoing = keep_low ? pack(mid, hi) : pack(lo, mid);
    const machine::Message msg =
        node.swap_block_data(peer, outgoing, 100 + k);
    if (keep_low) {
      hi = mid;
    } else {
      lo = mid;
    }
    const std::size_t base = seg(lo);
    const std::size_t count = seg(hi) - base;
    CM5_CHECK(msg.data.size() == count * sizeof(double));
    for (std::size_t i = 0; i < count; ++i) {
      double incoming;
      std::memcpy(&incoming, msg.data.data() + i * sizeof(double),
                  sizeof(double));
      values[base + i] += incoming;
    }
    node.compute_flops(static_cast<double>(count));
  }
  CM5_CHECK(hi - lo == 1);

  // Phase 2: all-gather the reduced segments by recursive doubling.
  for (std::int32_t k = 0; k < steps; ++k) {
    const std::int32_t bit = 1 << k;
    const NodeId peer = self ^ bit;
    const auto outgoing = pack(lo, hi);
    const machine::Message msg =
        node.swap_block_data(peer, outgoing, 200 + k);
    // The peer owns the mirrored range within our merged block.
    const std::int32_t merged_lo = std::min(lo, lo ^ bit);
    const std::int32_t merged_hi = merged_lo + 2 * (hi - lo);
    const std::int32_t their_lo = (lo == merged_lo) ? hi : merged_lo;
    const std::size_t base = seg(their_lo);
    CM5_CHECK(msg.data.size() ==
              (seg(their_lo + (hi - lo)) - base) * sizeof(double));
    if (!msg.data.empty()) {
      std::memcpy(values.data() + base, msg.data.data(), msg.data.size());
    }
    lo = merged_lo;
    hi = merged_hi;
  }
  CM5_CHECK(lo == 0 && hi == n);
}

void control_network_vector_reduce(Node& node, std::int64_t length) {
  CM5_CHECK(length >= 1);
  node.reduce_phantom_vector(length);
}

// ------------------------------------------------------- gather / scatter

void gather(Node& node, NodeId root, std::int64_t bytes) {
  gather_skeleton(
      node, root,
      [&](NodeId peer, std::int32_t k) { node.send_block(peer, bytes << k, k); },
      [&](NodeId peer, std::int32_t k) { (void)node.receive_block(peer, k); });
}

std::vector<std::vector<std::byte>> gather_data(
    Node& node, NodeId root, std::span<const std::byte> mine) {
  Held held;
  held[node.self()].assign(mine.begin(), mine.end());
  gather_skeleton(
      node, root,
      [&](NodeId peer, std::int32_t k) {
        node.send_block_data(peer, pack_all(held), k);
      },
      [&](NodeId peer, std::int32_t k) {
        parse_items(node.receive_block(peer, k).data, held);
      });
  if (node.self() != root) return {};
  return by_node(held, node.nprocs());
}

void scatter(Node& node, NodeId root, std::int64_t bytes) {
  scatter_skeleton(
      node, root,
      [&](NodeId peer, std::int32_t k) { node.send_block(peer, bytes << k, k); },
      [&](NodeId peer, std::int32_t k) { (void)node.receive_block(peer, k); });
}

std::vector<std::byte> scatter_data(
    Node& node, NodeId root,
    const std::vector<std::vector<std::byte>>& blocks) {
  const std::int32_t n = node.nprocs();
  auto rel_of = [&](NodeId id) { return (id - root + n) % n; };
  // Blocks this node is currently responsible for, keyed by *relative* id.
  Held held;
  if (node.self() == root) {
    CM5_CHECK_MSG(blocks.size() == static_cast<std::size_t>(n),
                  "root needs one block per node");
    for (NodeId id = 0; id < n; ++id) {
      held[rel_of(id)] = blocks[static_cast<std::size_t>(id)];
    }
  }
  scatter_skeleton(
      node, root,
      [&](NodeId peer, std::int32_t k) {
        // The peer's range of 2^k relative ids starts at its own.
        std::vector<std::byte> outgoing;
        for (std::int32_t r = rel_of(peer); r < rel_of(peer) + (1 << k); ++r) {
          const auto it = held.find(r);
          CM5_CHECK(it != held.end());
          append_item(outgoing, r, it->second);
          held.erase(it);
        }
        node.send_block_data(peer, std::move(outgoing), k);
      },
      [&](NodeId peer, std::int32_t k) {
        parse_items(node.receive_block(peer, k).data, held);
      });
  const auto it = held.find(rel_of(node.self()));
  CM5_CHECK_MSG(it != held.end() && held.size() == 1,
                "scatter left the wrong residual blocks");
  return std::move(it->second);
}

// --------------------------------------------- van de Geijn broadcast

void broadcast_scatter_allgather(Node& node, NodeId root, std::int64_t bytes) {
  const std::int32_t n = node.nprocs();
  CM5_CHECK_MSG(bytes % n == 0,
                "message size must be divisible by the machine size");
  const std::int64_t chunk = bytes / n;
  scatter(node, root, chunk);
  all_gather(node, chunk);
}

}  // namespace cm5::sched
