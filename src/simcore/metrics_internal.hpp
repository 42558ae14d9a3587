#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>

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

struct Int32PairHash {
  std::size_t operator()(
      const std::pair<std::int32_t, std::int32_t>& p) const noexcept {
    return hash_mix(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.first))
         << 32) |
        static_cast<std::uint32_t>(p.second));
  }
};

}  // namespace cm5::sim::metrics_internal
