#include "cm5/sched/complete_exchange.hpp"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "cm5/util/check.hpp"
#include "exact_log2.hpp"

namespace cm5::sched {
namespace {

/// PEX's partner in step j (Figure 2: self XOR j), or BEX's: the same
/// pairing on Figure 4's virtual numbers, virtual = physical + 1 mod N.
NodeId xor_peer(NodeId self, std::int32_t n, std::int32_t j, bool balanced) {
  if (!balanced) return self ^ j;
  return ((((self + 1) % n) ^ j) - 1 + n) % n;
}

/// REX's partner in step i (Figure 3): the group size k = N >> i halves
/// every step and the partner differs in bit k/2, high bit first.
NodeId rex_peer(NodeId self, std::int32_t n, std::int32_t i) {
  return self ^ (n >> (i + 1));
}

/// Uniform access to per-destination blocks: real vectors or phantom
/// (size-only) messages, so each algorithm is written once. Outgoing and
/// incoming storage are separate — an exchange receives into a slot
/// before the matching send reads it, so in-place operation would send
/// the freshly received data instead of the original. Each outgoing block
/// is sent exactly once, so a send moves it out instead of copying it.
struct Blocks {
  std::int64_t bytes = 0;  // uniform block size
  std::vector<std::vector<std::byte>>* out = nullptr;  // null => phantom
  std::vector<std::vector<std::byte>>* in = nullptr;   // null => phantom

  void send(Node& node, NodeId peer, std::int32_t tag) const {
    if (out != nullptr) {
      node.send_block_data(
          peer, std::move((*out)[static_cast<std::size_t>(peer)]), tag);
    } else {
      node.send_block(peer, bytes, tag);
    }
  }
  void recv(Node& node, NodeId peer, std::int32_t tag) const {
    machine::Message msg = node.receive_block(peer, tag);
    CM5_CHECK_MSG(msg.size == bytes, "unexpected exchange message size");
    if (in != nullptr) {
      (*in)[static_cast<std::size_t>(peer)] = std::move(msg.data);
    }
  }
  bool phantom() const noexcept { return in == nullptr; }
};

void linear_exchange_impl(Node& node, const Blocks& blocks) {
  const std::int32_t n = node.nprocs();
  const NodeId self = node.self();
  // Table 1: in step `target`, processor `target` receives from everyone.
  for (NodeId target = 0; target < n; ++target) {
    if (target == self) {
      for (NodeId src = 0; src < n; ++src) {
        if (src != self) blocks.recv(node, src, target);
      }
    } else {
      blocks.send(node, target, target);
    }
  }
}

void xor_exchange_impl(Node& node, const Blocks& blocks, bool balanced) {
  const std::int32_t n = node.nprocs();
  (void)exact_log2(n, "pairwise/balanced exchange need a power-of-two machine");
  const NodeId self = node.self();
  for (std::int32_t j = 1; j < n; ++j) {
    const NodeId peer = xor_peer(self, n, j, balanced);
    // Figure 2: the lower *physical* number receives first.
    if (self < peer) {
      blocks.recv(node, peer, j);
      blocks.send(node, peer, j);
    } else {
      blocks.send(node, peer, j);
      blocks.recv(node, peer, j);
    }
  }
}

/// REX's sequence (Figure 3): lg N steps, tag i. `split(bit)` opens
/// step i (`bit` is the address bit the step settles); then, within each
/// pair, the lower number packs and sends first and the higher receives
/// first. The phantom and data forms supply the three bodies.
template <typename Split, typename Send, typename Recv>
void rex_skeleton(Node& node, Split&& split, Send&& send, Recv&& recv) {
  const std::int32_t n = node.nprocs();
  const std::int32_t steps =
      exact_log2(n, "recursive exchange needs a power-of-two machine");
  const NodeId self = node.self();
  for (std::int32_t i = 0; i < steps; ++i) {
    const NodeId peer = rex_peer(self, n, i);
    split(self ^ peer);
    if (self < peer) {
      send(peer, i);
      recv(peer, i);
    } else {
      recv(peer, i);
      send(peer, i);
    }
  }
}

/// One in-flight unit of the store-and-forward recursive exchange.
struct RexItem {
  NodeId origin;
  NodeId dst;
  std::vector<std::byte> payload;
};

/// Store-and-forward needs the address information on the wire: each
/// data-form item carries an 8-byte (origin, dst) header, so REX's data
/// messages are (n+8)*N/2 bytes where the paper's n*N/2 counts payload
/// only. The phantom form (used by all timing benches) counts payload
/// only, matching the paper's accounting exactly.
constexpr std::int64_t kRexHeaderBytes = 2 * sizeof(std::int32_t);

void recursive_exchange_impl(Node& node, const Blocks& blocks) {
  const std::int32_t n = node.nprocs();
  if (blocks.phantom()) {
    // Complete-exchange invariant (§3.3): every node's bag holds N items
    // throughout, and exactly half move at every step, so each message is
    // n*N/2 bytes — the paper's formula. No per-item tracking needed.
    // Pack before sending, unpack after receiving.
    const std::int64_t message_bytes = blocks.bytes * (n / 2);
    rex_skeleton(
        node, [](std::int32_t) {},
        [&](NodeId peer, std::int32_t i) {
          node.compute_copy_bytes(message_bytes);
          node.send_block(peer, message_bytes, i);
        },
        [&](NodeId peer, std::int32_t i) {
          (void)node.receive_block(peer, i);
          node.compute_copy_bytes(message_bytes);
        });
    return;
  }

  // The bag: everything currently stored here, keyed by final destination.
  const NodeId self = node.self();
  std::vector<RexItem> bag;
  bag.reserve(static_cast<std::size_t>(n));
  for (NodeId d = 0; d < n; ++d) {
    if (d == self) continue;
    RexItem item{self, d,
                 std::move((*blocks.out)[static_cast<std::size_t>(d)])};
    bag.push_back(std::move(item));
  }

  // Items whose destination lies in the partner's half move this step.
  std::vector<RexItem> move;
  auto split = [&](std::int32_t bit) {
    std::vector<RexItem> keep;
    move.clear();
    for (RexItem& item : bag) {
      if ((item.dst & bit) != (self & bit)) {
        move.push_back(std::move(item));
      } else {
        keep.push_back(std::move(item));
      }
    }
    bag = std::move(keep);
    // Stable wire order so the receiver can deserialize.
    std::sort(move.begin(), move.end(), [](const RexItem& a, const RexItem& b) {
      return std::tie(a.origin, a.dst) < std::tie(b.origin, b.dst);
    });
  };
  auto pack_and_send = [&](NodeId peer, std::int32_t i) {
    const std::int64_t out_bytes = static_cast<std::int64_t>(move.size()) *
                                   (blocks.bytes + kRexHeaderBytes);
    // Reshuffle cost (§3.3): gather the moving items into one buffer.
    node.compute_copy_bytes(out_bytes);
    std::vector<std::byte> buffer;
    buffer.reserve(static_cast<std::size_t>(out_bytes));
    for (const RexItem& item : move) {
      std::int32_t header[2] = {item.origin, item.dst};
      const auto* raw = reinterpret_cast<const std::byte*>(header);
      buffer.insert(buffer.end(), raw, raw + sizeof header);
      buffer.insert(buffer.end(), item.payload.begin(), item.payload.end());
    }
    node.send_block_data(peer, std::move(buffer), i);
  };
  auto recv_and_unpack = [&](NodeId peer, std::int32_t i) {
    const machine::Message msg = node.receive_block(peer, i);
    node.compute_copy_bytes(msg.size);
    std::size_t offset = 0;
    while (offset < msg.data.size()) {
      std::int32_t header[2];
      std::memcpy(header, msg.data.data() + offset, sizeof header);
      offset += sizeof header;
      RexItem item{header[0], header[1], {}};
      item.payload.assign(
          msg.data.begin() + static_cast<std::ptrdiff_t>(offset),
          msg.data.begin() + static_cast<std::ptrdiff_t>(
                                 offset + static_cast<std::size_t>(blocks.bytes)));
      offset += static_cast<std::size_t>(blocks.bytes);
      bag.push_back(std::move(item));
    }
  };
  rex_skeleton(node, split, pack_and_send, recv_and_unpack);

  for (RexItem& item : bag) {
    CM5_CHECK_MSG(item.dst == self, "REX item ended at the wrong node");
    (*blocks.in)[static_cast<std::size_t>(item.origin)] =
        std::move(item.payload);
  }
}

void run_exchange(Node& node, ExchangeAlgorithm algorithm,
                  const Blocks& blocks) {
  switch (algorithm) {
    case ExchangeAlgorithm::Linear:
      linear_exchange_impl(node, blocks);
      return;
    case ExchangeAlgorithm::Pairwise:
      xor_exchange_impl(node, blocks, /*balanced=*/false);
      return;
    case ExchangeAlgorithm::Recursive:
      recursive_exchange_impl(node, blocks);
      return;
    case ExchangeAlgorithm::Balanced:
      xor_exchange_impl(node, blocks, /*balanced=*/true);
      return;
  }
  CM5_CHECK_MSG(false, "unknown exchange algorithm");
}

}  // namespace

const char* exchange_name(ExchangeAlgorithm algorithm) {
  switch (algorithm) {
    case ExchangeAlgorithm::Linear:
      return "Linear";
    case ExchangeAlgorithm::Pairwise:
      return "Pairwise";
    case ExchangeAlgorithm::Recursive:
      return "Recursive";
    case ExchangeAlgorithm::Balanced:
      return "Balanced";
  }
  return "?";
}

void run_linear_exchange(Node& node, std::int64_t bytes) {
  linear_exchange_impl(node, Blocks{bytes, nullptr, nullptr});
}

void run_pairwise_exchange(Node& node, std::int64_t bytes) {
  xor_exchange_impl(node, Blocks{bytes, nullptr, nullptr}, /*balanced=*/false);
}

void run_balanced_exchange(Node& node, std::int64_t bytes) {
  xor_exchange_impl(node, Blocks{bytes, nullptr, nullptr}, /*balanced=*/true);
}

void run_recursive_exchange(Node& node, std::int64_t bytes) {
  recursive_exchange_impl(node, Blocks{bytes, nullptr, nullptr});
}

void complete_exchange(Node& node, ExchangeAlgorithm algorithm,
                       std::int64_t bytes) {
  run_exchange(node, algorithm, Blocks{bytes, nullptr, nullptr});
}

namespace {

void xor_exchange_swap_impl(Node& node, std::int64_t bytes, bool balanced) {
  const std::int32_t n = node.nprocs();
  (void)exact_log2(n, "pairwise/balanced exchange need a power-of-two machine");
  for (std::int32_t j = 1; j < n; ++j) {
    (void)node.swap_block(xor_peer(node.self(), n, j, balanced), bytes, j);
  }
}

}  // namespace

void run_pairwise_exchange_swap(Node& node, std::int64_t bytes) {
  xor_exchange_swap_impl(node, bytes, /*balanced=*/false);
}

void run_balanced_exchange_swap(Node& node, std::int64_t bytes) {
  xor_exchange_swap_impl(node, bytes, /*balanced=*/true);
}

void run_recursive_exchange_swap(Node& node, std::int64_t bytes) {
  const std::int32_t n = node.nprocs();
  const std::int32_t steps =
      exact_log2(n, "recursive exchange needs a power-of-two machine");
  const std::int64_t message_bytes = bytes * (n / 2);
  for (std::int32_t i = 0; i < steps; ++i) {
    node.compute_copy_bytes(message_bytes);  // pack
    (void)node.swap_block(rex_peer(node.self(), n, i), message_bytes, i);
    node.compute_copy_bytes(message_bytes);  // unpack
  }
}

void run_linear_exchange_async(Node& node, std::int64_t bytes) {
  const std::int32_t n = node.nprocs();
  const NodeId self = node.self();
  for (NodeId target = 0; target < n; ++target) {
    if (target == self) {
      for (NodeId src = 0; src < n; ++src) {
        if (src != self) (void)node.receive_block(src, target);
      }
    } else {
      node.send_async(target, bytes, target);
    }
  }
  node.wait_sends();
}

void all_to_all(Node& node, ExchangeAlgorithm algorithm,
                std::vector<std::vector<std::byte>>& blocks) {
  const std::int32_t n = node.nprocs();
  CM5_CHECK_MSG(static_cast<std::int32_t>(blocks.size()) == n,
                "need one block per node");
  std::int64_t bytes = -1;
  for (NodeId d = 0; d < n; ++d) {
    if (d == node.self()) continue;
    const auto size =
        static_cast<std::int64_t>(blocks[static_cast<std::size_t>(d)].size());
    if (bytes == -1) {
      bytes = size;
    } else {
      CM5_CHECK_MSG(bytes == size,
                    "all_to_all requires equal-size blocks (complete exchange)");
    }
  }
  if (bytes < 0) bytes = 0;  // single-node machine

  // Sends move each block out of `blocks`; receives land in `incoming`
  // (REX takes its bag from `blocks` and delivers into `incoming` too).
  // blocks[self] takes part in neither and is left as the caller set it.
  std::vector<std::vector<std::byte>> incoming(static_cast<std::size_t>(n));
  run_exchange(node, algorithm, Blocks{bytes, &blocks, &incoming});
  for (NodeId d = 0; d < n; ++d) {
    if (d != node.self()) {
      blocks[static_cast<std::size_t>(d)] =
          std::move(incoming[static_cast<std::size_t>(d)]);
    }
  }
}

}  // namespace cm5::sched
