#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "cm5/net/topology.hpp"
#include "cm5/sim/trace.hpp"
#include "cm5/util/time.hpp"

/// \file metrics_internal.hpp
/// Helpers shared by the batch analyzer (metrics.cpp) and the streaming
/// consumers (metrics_stream.cpp). Both paths must agree byte for byte
/// — the differential fuzz in tests/integration enforces it — so the
/// event classification and message-key machinery live here exactly
/// once.

namespace cm5::sim::metrics_internal {

using Kind = TraceEvent::Kind;

/// Kinds emitted by the node's own thread at its current clock. Only
/// these are guaranteed time-monotonic per node; network-side kinds
/// (transfers, faults, GlobalOpComplete) are processed in global virtual
/// time and may interleave behind a node that ran ahead.
inline bool is_node_action(Kind kind) {
  switch (kind) {
    case Kind::Compute:
    case Kind::SendPosted:
    case Kind::RecvPosted:
    case Kind::SwapPosted:
    case Kind::GlobalOpEnter:
    case Kind::WaitTimeout:
    case Kind::NodeDone:
      return true;
    default:
      return false;
  }
}

inline bool is_fault(Kind kind) {
  switch (kind) {
    case Kind::FaultDrop:
    case Kind::FaultCorrupt:
    case Kind::FaultDelay:
    case Kind::FaultDegrade:
    case Kind::FaultKill:
    case Kind::FaultSlow:
      return true;
    default:
      return false;
  }
}

inline bool in_range(net::NodeId node, std::int32_t nprocs) {
  return node >= 0 && node < nprocs;
}

/// Message identity for rendezvous matching: (src, dst, tag).
using MsgKey = std::tuple<net::NodeId, net::NodeId, std::int32_t>;

struct MsgCounts {
  std::int64_t posted = 0;
  std::int64_t started = 0;
  std::int64_t completed = 0;
  std::int64_t bytes_posted = 0;
  std::int64_t bytes_started = 0;
  std::int64_t bytes_completed = 0;
};
// One MsgCounts exists per distinct message key in every validator, so it
// must stay plain counters: an allocating member would cost every key.
static_assert(std::is_trivially_destructible_v<MsgCounts>);

/// 64-bit mix (splitmix64 finalizer) for composing hash keys.
inline std::size_t hash_mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

struct MsgKeyHash {
  std::size_t operator()(const MsgKey& k) const noexcept {
    const auto [src, dst, tag] = k;
    return hash_mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         src))
                     << 32) |
                    static_cast<std::uint32_t>(dst)) ^
           hash_mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(
               tag)));
  }
};

struct Int32Hash {
  std::size_t operator()(std::int32_t v) const noexcept {
    return hash_mix(static_cast<std::uint32_t>(v));
  }
};

struct Int32PairHash {
  std::size_t operator()(
      const std::pair<std::int32_t, std::int32_t>& p) const noexcept {
    return hash_mix(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.first))
         << 32) |
        static_cast<std::uint32_t>(p.second));
  }
};

/// Open-addressing hash map (linear probing, power-of-two capacity) for
/// the streaming consumers' per-key tables. The slots are one vector, so
/// only a doubling allocates and a warm table allocates nothing. erase()
/// shifts later probes back instead of leaving tombstones.
template <class K, class V, class Hash>
class FlatMap {
 public:
  using Slot = std::pair<K, V>;

  std::size_t size() const noexcept { return size_; }

  Slot* find(const K& key) noexcept {
    if (size_ == 0) return nullptr;
    const std::size_t i = probe(key);
    return used_[i] ? &slots_[i] : nullptr;
  }

  /// The value for `key`, value-initialized on first use.
  V& operator[](const K& key) {
    if (4 * (size_ + 1) > 3 * slots_.size()) grow();
    const std::size_t i = probe(key);
    if (!used_[i]) {
      used_[i] = 1;
      slots_[i].first = key;
      ++size_;
    }
    return slots_[i].second;
  }

  /// Removes a slot returned by find().
  void erase(Slot* slot) {
    auto hole = static_cast<std::size_t>(slot - slots_.data());
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; used_[j]; j = (j + 1) & mask) {
      // Slot j moves back into the hole unless its home is in (hole, j].
      if (((j - Hash{}(slots_[j].first)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    used_[hole] = 0;
    slots_[hole] = Slot{};  // a free slot holds a value-initialized entry
    --size_;
  }

  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) f(slots_[i]);
    }
  }

 private:
  /// The slot holding `key`, or the free slot that ends its probe run.
  std::size_t probe(const K& key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Hash{}(key) & mask;
    while (used_[i] && !(slots_[i].first == key)) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    const std::size_t capacity = slots_.empty() ? 16 : 2 * slots_.size();
    FlatMap old = std::move(*this);
    slots_ = std::vector<Slot>(capacity);
    used_.assign(capacity, 0);
    size_ = 0;
    old.for_each(
        [this](const Slot& slot) { (*this)[slot.first] = slot.second; });
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
};

}  // namespace cm5::sim::metrics_internal
