#include "cm5/sched/builders.hpp"

#include <algorithm>
#include <vector>

#include "cm5/util/check.hpp"
#include "exact_log2.hpp"

namespace cm5::sched {

CommSchedule build_linear(const CommPattern& pattern) {
  const std::int32_t n = pattern.nprocs();
  CommSchedule schedule(n);
  for (NodeId target = 0; target < n; ++target) {
    const std::int32_t step = schedule.add_step();
    for (NodeId src = 0; src < n; ++src) {
      if (src == target) continue;
      const std::int64_t bytes = pattern.at(src, target);
      if (bytes > 0) schedule.add_send(step, src, target, bytes);
    }
  }
  return schedule;
}

namespace {

/// Shared core of pairwise and balanced: pair physical processors
/// phys(v) and phys(v ^ j) for virtual numbers v, over steps j = 1..N-1.
template <typename VirtualToPhysical>
CommSchedule build_xor_pairing(const CommPattern& pattern,
                               VirtualToPhysical&& phys) {
  const std::int32_t n = pattern.nprocs();
  (void)exact_log2(n, "XOR pairing requires a power-of-two processor count");
  CommSchedule schedule(n);
  for (std::int32_t j = 1; j < n; ++j) {
    const std::int32_t step = schedule.add_step();
    for (std::int32_t v = 0; v < n; ++v) {
      const std::int32_t w = v ^ j;
      if (v >= w) continue;  // handle each pair once
      const NodeId a = phys(v);
      const NodeId b = phys(w);
      const std::int64_t ab = pattern.at(a, b);
      const std::int64_t ba = pattern.at(b, a);
      if (ab > 0 && ba > 0) {
        schedule.add_exchange(step, a, b, ab, ba);
      } else if (ab > 0) {
        schedule.add_send(step, a, b, ab);
      } else if (ba > 0) {
        schedule.add_send(step, b, a, ba);
      }
    }
  }
  return schedule;
}

}  // namespace

CommSchedule build_pairwise(const CommPattern& pattern) {
  return build_xor_pairing(pattern, [](std::int32_t v) { return v; });
}

CommSchedule build_balanced(const CommPattern& pattern) {
  const std::int32_t n = pattern.nprocs();
  // Paper §3.4: virtual = physical + 1 (mod N), i.e. physical =
  // virtual - 1, wrapping -1 to N-1. XOR pairing on virtual numbers
  // staggers every virtual cluster across two physical clusters.
  return build_xor_pairing(
      pattern, [n](std::int32_t v) { return (v - 1 + n) % n; });
}

CommSchedule build_greedy(const CommPattern& pattern) {
  const std::int32_t n = pattern.nprocs();
  CommSchedule schedule(n);

  // pending[i] = remaining destinations of processor i, ascending.
  std::vector<std::vector<NodeId>> pending(static_cast<std::size_t>(n));
  std::int64_t remaining = 0;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (i != j && pattern.at(i, j) > 0) {
        pending[static_cast<std::size_t>(i)].push_back(j);
        ++remaining;
      }
    }
  }
  auto has_pending = [&](NodeId src, NodeId dst) {
    const auto& dests = pending[static_cast<std::size_t>(src)];
    return std::find(dests.begin(), dests.end(), dst) != dests.end();
  };
  auto erase_pending = [&](NodeId src, NodeId dst) {
    auto& dests = pending[static_cast<std::size_t>(src)];
    dests.erase(std::find(dests.begin(), dests.end(), dst));
    --remaining;
  };

  // Figure 12: iterate until every message is scheduled. Each step every
  // processor has one send slot and one receive slot (the data network is
  // full duplex); an exchange uses both slots on both ends.
  while (remaining > 0) {
    const std::int32_t step = schedule.add_step();
    std::vector<bool> send_used(static_cast<std::size_t>(n), false);
    std::vector<bool> recv_used(static_cast<std::size_t>(n), false);
    bool progress = false;
    for (NodeId i = 0; i < n; ++i) {
      if (send_used[static_cast<std::size_t>(i)]) continue;
      // "P_i selects the next available P_j among the processors it has
      // to send to": the smallest pending destination whose receive slot
      // is free this step.
      const auto dests = pending[static_cast<std::size_t>(i)];  // copy:
      // erase_pending mutates the underlying vector mid-scan.
      for (NodeId j : dests) {
        if (recv_used[static_cast<std::size_t>(j)]) continue;
        if (has_pending(j, i) && !send_used[static_cast<std::size_t>(j)] &&
            !recv_used[static_cast<std::size_t>(i)]) {
          // "If P_j also sends to P_i then do an exchange."
          schedule.add_exchange(step, i, j, pattern.at(i, j),
                                pattern.at(j, i));
          erase_pending(i, j);
          erase_pending(j, i);
          send_used[static_cast<std::size_t>(i)] = true;
          recv_used[static_cast<std::size_t>(i)] = true;
          send_used[static_cast<std::size_t>(j)] = true;
          recv_used[static_cast<std::size_t>(j)] = true;
        } else {
          schedule.add_send(step, i, j, pattern.at(i, j));
          erase_pending(i, j);
          send_used[static_cast<std::size_t>(i)] = true;
          recv_used[static_cast<std::size_t>(j)] = true;
        }
        progress = true;
        break;
      }
    }
    CM5_CHECK_MSG(progress, "greedy scheduler made no progress");
  }
  return schedule;
}

CommSchedule build_schedule(Scheduler scheduler, const CommPattern& pattern) {
  switch (scheduler) {
    case Scheduler::Linear:
      return build_linear(pattern);
    case Scheduler::Pairwise:
      return build_pairwise(pattern);
    case Scheduler::Balanced:
      return build_balanced(pattern);
    case Scheduler::Greedy:
      return build_greedy(pattern);
  }
  CM5_CHECK_MSG(false, "unknown scheduler");
  return CommSchedule(pattern.nprocs());  // unreachable
}

const char* scheduler_name(Scheduler scheduler) {
  switch (scheduler) {
    case Scheduler::Linear:
      return "Linear";
    case Scheduler::Pairwise:
      return "Pairwise";
    case Scheduler::Balanced:
      return "Balanced";
    case Scheduler::Greedy:
      return "Greedy";
  }
  return "?";
}

}  // namespace cm5::sched
