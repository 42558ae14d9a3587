#include "cm5/sched/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "cm5/util/check.hpp"

namespace cm5::sched {
namespace {

bool is_power_of_two(std::int32_t n) { return n > 0 && (n & (n - 1)) == 0; }

std::int32_t log2_exact(std::int32_t n) {
  std::int32_t l = 0;
  while ((1 << l) < n) ++l;
  return l;
}

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

void parse_items(std::span<const std::byte> buffer,
                 std::map<std::int32_t, std::vector<std::byte>>& out) {
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

}  // namespace

// ------------------------------------------------------------- all-gather

void all_gather(Node& node, std::int64_t bytes) {
  const std::int32_t n = node.nprocs();
  CM5_CHECK_MSG(is_power_of_two(n), "all_gather needs a power-of-two machine");
  CM5_CHECK(bytes >= 0);
  // Recursive doubling with full-duplex swaps (CMMD_swap): both equal
  // directions of every exchange overlap.
  const std::int32_t steps = log2_exact(n);
  for (std::int32_t k = 0; k < steps; ++k) {
    const NodeId peer = node.self() ^ (1 << k);
    (void)node.swap_block(peer, bytes << k, k);
  }
}

std::vector<std::vector<std::byte>> all_gather_data(
    Node& node, std::span<const std::byte> mine) {
  const std::int32_t n = node.nprocs();
  CM5_CHECK_MSG(is_power_of_two(n), "all_gather needs a power-of-two machine");
  std::map<std::int32_t, std::vector<std::byte>> held;
  held[node.self()].assign(mine.begin(), mine.end());
  const std::int32_t steps = log2_exact(n);
  for (std::int32_t k = 0; k < steps; ++k) {
    const NodeId peer = node.self() ^ (1 << k);
    std::vector<std::byte> outgoing;
    for (const auto& [id, payload] : held) append_item(outgoing, id, payload);
    const machine::Message msg = node.swap_block_data(peer, outgoing, k);
    parse_items(msg.data, held);
  }
  CM5_CHECK(held.size() == static_cast<std::size_t>(n));
  std::vector<std::vector<std::byte>> result(static_cast<std::size_t>(n));
  for (auto& [id, payload] : held) {
    result[static_cast<std::size_t>(id)] = std::move(payload);
  }
  return result;
}

// ------------------------------------------------- data-network reduction

void all_reduce_sum(Node& node, std::span<double> values) {
  const std::int32_t n = node.nprocs();
  CM5_CHECK_MSG(is_power_of_two(n),
                "all_reduce_sum needs a power-of-two machine");
  const std::int32_t steps = log2_exact(n);
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
  const std::int32_t n = node.nprocs();
  CM5_CHECK_MSG(is_power_of_two(n), "gather needs a power-of-two machine");
  CM5_CHECK(root >= 0 && root < n);
  const std::int32_t rel = (node.self() - root + n) % n;
  const std::int32_t steps = log2_exact(n);
  for (std::int32_t k = 0; k < steps; ++k) {
    const std::int32_t bit = 1 << k;
    if (rel % (bit << 1) == bit) {
      // I hold the blocks of my 2^k-node subtree; pass them down-tree.
      node.send_block(static_cast<NodeId>((rel - bit + root) % n),
                      bytes << k, k);
      return;  // done participating
    }
    if (rel % (bit << 1) == 0 && rel + bit < n) {
      (void)node.receive_block(static_cast<NodeId>((rel + bit + root) % n), k);
    }
  }
}

std::vector<std::vector<std::byte>> gather_data(
    Node& node, NodeId root, std::span<const std::byte> mine) {
  const std::int32_t n = node.nprocs();
  CM5_CHECK_MSG(is_power_of_two(n), "gather needs a power-of-two machine");
  CM5_CHECK(root >= 0 && root < n);
  const std::int32_t rel = (node.self() - root + n) % n;
  const std::int32_t steps = log2_exact(n);
  std::map<std::int32_t, std::vector<std::byte>> held;
  held[node.self()].assign(mine.begin(), mine.end());
  for (std::int32_t k = 0; k < steps; ++k) {
    const std::int32_t bit = 1 << k;
    if (rel % (bit << 1) == bit) {
      std::vector<std::byte> outgoing;
      for (const auto& [id, payload] : held) append_item(outgoing, id, payload);
      node.send_block_data(static_cast<NodeId>((rel - bit + root) % n),
                           outgoing, k);
      return {};
    }
    if (rel % (bit << 1) == 0 && rel + bit < n) {
      const machine::Message msg =
          node.receive_block(static_cast<NodeId>((rel + bit + root) % n), k);
      parse_items(msg.data, held);
    }
  }
  CM5_CHECK(node.self() == root);
  std::vector<std::vector<std::byte>> result(static_cast<std::size_t>(n));
  for (auto& [id, payload] : held) {
    result[static_cast<std::size_t>(id)] = std::move(payload);
  }
  return result;
}

void scatter(Node& node, NodeId root, std::int64_t bytes) {
  const std::int32_t n = node.nprocs();
  CM5_CHECK_MSG(is_power_of_two(n), "scatter needs a power-of-two machine");
  CM5_CHECK(root >= 0 && root < n);
  const std::int32_t rel = (node.self() - root + n) % n;
  const std::int32_t steps = log2_exact(n);
  for (std::int32_t k = steps - 1; k >= 0; --k) {
    const std::int32_t bit = 1 << k;
    if (rel % (bit << 1) == 0 && rel + bit < n) {
      node.send_block(static_cast<NodeId>((rel + bit + root) % n),
                      bytes << k, k);
    } else if (rel % (bit << 1) == bit) {
      (void)node.receive_block(static_cast<NodeId>((rel - bit + root) % n), k);
    }
  }
}

std::vector<std::byte> scatter_data(
    Node& node, NodeId root,
    const std::vector<std::vector<std::byte>>& blocks) {
  const std::int32_t n = node.nprocs();
  CM5_CHECK_MSG(is_power_of_two(n), "scatter needs a power-of-two machine");
  CM5_CHECK(root >= 0 && root < n);
  const std::int32_t rel = (node.self() - root + n) % n;
  const std::int32_t steps = log2_exact(n);

  // Blocks this node is currently responsible for, keyed by *relative* id.
  std::map<std::int32_t, std::vector<std::byte>> held;
  if (node.self() == root) {
    CM5_CHECK_MSG(blocks.size() == static_cast<std::size_t>(n),
                  "root needs one block per node");
    for (std::int32_t id = 0; id < n; ++id) {
      const std::int32_t r = (id - root + n) % n;
      held[r] = blocks[static_cast<std::size_t>(id)];
    }
  }
  for (std::int32_t k = steps - 1; k >= 0; --k) {
    const std::int32_t bit = 1 << k;
    if (rel % (bit << 1) == 0 && rel + bit < n) {
      // Hand the upper half of my responsibility range to rel + bit.
      std::vector<std::byte> outgoing;
      for (std::int32_t r = rel + bit; r < rel + (bit << 1); ++r) {
        const auto it = held.find(r);
        CM5_CHECK(it != held.end());
        append_item(outgoing, r, it->second);
        held.erase(it);
      }
      node.send_block_data(static_cast<NodeId>((rel + bit + root) % n),
                           outgoing, k);
    } else if (rel % (bit << 1) == bit) {
      const machine::Message msg =
          node.receive_block(static_cast<NodeId>((rel - bit + root) % n), k);
      parse_items(msg.data, held);
    }
  }
  const auto it = held.find(rel);
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
