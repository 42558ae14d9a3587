#include "cm5/runtime/gather.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>

#include "cm5/sched/broadcast.hpp"
#include "cm5/sched/collectives.hpp"
#include "cm5/sched/executor.hpp"
#include "cm5/util/check.hpp"

namespace cm5::runtime {
namespace {

/// All nodes learn every node's fixed-size byte row. Recursive-doubling
/// all-gather on power-of-two machines; on other sizes, gather-to-0 by
/// linear receives plus a linear broadcast (both work for any N).
std::vector<std::vector<std::byte>> allgather_rows(
    Node& node, std::span<const std::byte> mine) {
  const std::int32_t n = node.nprocs();
  if (std::has_single_bit(static_cast<std::uint32_t>(n))) {
    return sched::all_gather_data(node, mine);
  }

  std::vector<std::vector<std::byte>> rows(static_cast<std::size_t>(n));
  rows[static_cast<std::size_t>(node.self())].assign(mine.begin(), mine.end());
  // Everyone ships its row to node 0...
  if (node.self() == 0) {
    for (NodeId src = 1; src < n; ++src) {
      const machine::Message msg = node.receive_block(src, /*tag=*/9001);
      rows[static_cast<std::size_t>(src)] = msg.data;
    }
  } else {
    node.send_block_data(0, mine, /*tag=*/9001);
  }
  // ...and node 0 rebroadcasts the concatenation.
  std::vector<std::byte> all;
  if (node.self() == 0) {
    for (const auto& row : rows) {
      all.insert(all.end(), row.begin(), row.end());
    }
  }
  all = sched::linear_broadcast_data(node, 0, all);
  CM5_CHECK(all.size() % static_cast<std::size_t>(n) == 0);
  const std::size_t row_bytes = all.size() / static_cast<std::size_t>(n);
  for (NodeId p = 0; p < n; ++p) {
    rows[static_cast<std::size_t>(p)].assign(
        all.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(p) * row_bytes),
        all.begin() + static_cast<std::ptrdiff_t>((static_cast<std::size_t>(p) + 1) * row_bytes));
  }
  return rows;
}

std::vector<std::byte> pack_i64(std::span<const std::int64_t> values) {
  std::vector<std::byte> out(values.size_bytes());
  std::memcpy(out.data(), values.data(), values.size_bytes());
  return out;
}

std::vector<std::int64_t> unpack_i64(std::span<const std::byte> bytes) {
  CM5_CHECK(bytes.size() % sizeof(std::int64_t) == 0);
  std::vector<std::int64_t> out(bytes.size() / sizeof(std::int64_t));
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

}  // namespace

BlockDistribution::BlockDistribution(std::int64_t global, std::int32_t procs)
    : global_size(global), nprocs(procs) {
  CM5_CHECK(global >= procs && procs >= 1);
}

NodeId BlockDistribution::owner(std::int64_t g) const {
  CM5_CHECK(g >= 0 && g < global_size);
  // Inverse of first(): leading (global_size % nprocs) blocks have one
  // extra element.
  const std::int64_t base = global_size / nprocs;
  const std::int64_t extra = global_size % nprocs;
  const std::int64_t fat_span = (base + 1) * extra;
  if (g < fat_span) return static_cast<NodeId>(g / (base + 1));
  return static_cast<NodeId>(extra + (g - fat_span) / base);
}

std::int64_t BlockDistribution::first(NodeId p) const {
  CM5_CHECK(p >= 0 && p < nprocs);
  const std::int64_t base = global_size / nprocs;
  const std::int64_t extra = global_size % nprocs;
  return static_cast<std::int64_t>(p) * base + std::min<std::int64_t>(p, extra);
}

std::int64_t BlockDistribution::local_size(NodeId p) const {
  CM5_CHECK(p >= 0 && p < nprocs);
  const std::int64_t base = global_size / nprocs;
  return base + (p < global_size % nprocs ? 1 : 0);
}

std::int64_t BlockDistribution::local_offset(std::int64_t g) const {
  return g - first(owner(g));
}

GatherPlan::GatherPlan(Node& node, const BlockDistribution& distribution,
                       std::span<const std::int64_t> needed,
                       sched::Scheduler scheduler)
    : distribution_(distribution),
      data_pattern_(node.nprocs()),
      data_schedule_(node.nprocs()),
      scatter_schedule_(node.nprocs()) {
  const std::int32_t n = node.nprocs();
  CM5_CHECK(distribution.nprocs == n);
  const NodeId self = node.self();

  // --- local classification --------------------------------------------
  // Per remote owner: sorted unique globals -> positions needing them.
  std::vector<std::map<std::int64_t, std::vector<std::size_t>>> wanted(
      static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < needed.size(); ++i) {
    const std::int64_t g = needed[i];
    const NodeId owner = distribution.owner(g);
    if (owner == self) {
      local_positions_.emplace_back(i, distribution.local_offset(g));
    } else {
      wanted[static_cast<std::size_t>(owner)][g].push_back(i);
    }
  }
  recv_positions_.assign(static_cast<std::size_t>(n), {});
  std::vector<std::vector<std::int64_t>> request_lists(
      static_cast<std::size_t>(n));
  for (NodeId p = 0; p < n; ++p) {
    for (auto& [g, positions] : wanted[static_cast<std::size_t>(p)]) {
      request_lists[static_cast<std::size_t>(p)].push_back(g);
      recv_positions_[static_cast<std::size_t>(p)].push_back(
          std::move(positions));
      ++remote_elements_;
    }
  }

  // --- inspector phase 1: counts travel to everyone ----------------------
  std::vector<std::int64_t> my_counts(static_cast<std::size_t>(n), 0);
  for (NodeId p = 0; p < n; ++p) {
    my_counts[static_cast<std::size_t>(p)] = static_cast<std::int64_t>(
        request_lists[static_cast<std::size_t>(p)].size());
  }
  const auto rows = allgather_rows(node, pack_i64(my_counts));
  // counts[i][j]: node i requests this many elements from node j.
  std::vector<std::vector<std::int64_t>> counts;
  counts.reserve(static_cast<std::size_t>(n));
  for (const auto& row : rows) counts.push_back(unpack_i64(row));

  // --- inspector phase 2: request lists travel to the owners -------------
  sched::CommPattern request_pattern(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      const std::int64_t c = counts[static_cast<std::size_t>(i)]
                                   [static_cast<std::size_t>(j)];
      if (c > 0) {
        request_pattern.set(i, j, c * static_cast<std::int64_t>(sizeof(std::int64_t)));
        data_pattern_.set(j, i, c * static_cast<std::int64_t>(sizeof(double)));
      }
    }
  }

  // scatter_add sends back one double per requested index, as many bytes
  // as the index: the request pattern is its pattern, and so is the schedule.
  static_assert(sizeof(double) == sizeof(std::int64_t));
  send_offsets_.assign(static_cast<std::size_t>(n), {});
  scatter_schedule_ = sched::build_schedule(scheduler, request_pattern);
  sched::DataPlan request_plan;
  request_plan.out = [&](NodeId peer) {
    return pack_i64(request_lists[static_cast<std::size_t>(peer)]);
  };
  request_plan.in = [&](NodeId peer, const machine::Message& msg) {
    for (const std::int64_t g : unpack_i64(msg.data)) {
      CM5_CHECK_MSG(distribution_.owner(g) == self,
                    "request for an element this node does not own");
      send_offsets_[static_cast<std::size_t>(peer)].push_back(
          distribution_.local_offset(g));
    }
  };
  sched::execute_schedule(node, scatter_schedule_, {}, &request_plan);

  data_schedule_ = sched::build_schedule(scheduler, data_pattern_);
}

void GatherPlan::gather(Node& node, std::span<const double> local_owned,
                        std::span<double> out) const {
  CM5_CHECK(local_owned.size() ==
            static_cast<std::size_t>(distribution_.local_size(node.self())));
  sched::DataPlan plan;
  plan.out = [&](NodeId peer) {
    const auto& offsets = send_offsets_[static_cast<std::size_t>(peer)];
    std::vector<std::byte> payload(offsets.size() * sizeof(double));
    for (std::size_t k = 0; k < offsets.size(); ++k) {
      std::memcpy(payload.data() + k * sizeof(double),
                  &local_owned[static_cast<std::size_t>(offsets[k])],
                  sizeof(double));
    }
    return payload;
  };
  plan.in = [&](NodeId peer, const machine::Message& msg) {
    const auto& positions = recv_positions_[static_cast<std::size_t>(peer)];
    CM5_CHECK(msg.data.size() == positions.size() * sizeof(double));
    for (std::size_t k = 0; k < positions.size(); ++k) {
      double value;
      std::memcpy(&value, msg.data.data() + k * sizeof(double), sizeof(double));
      for (const std::size_t pos : positions[k]) out[pos] = value;
    }
  };
  sched::execute_schedule(node, data_schedule_, {}, &plan);
  for (const auto& [pos, offset] : local_positions_) {
    out[pos] = local_owned[static_cast<std::size_t>(offset)];
  }
}

void GatherPlan::scatter_add(Node& node,
                             std::span<const double> contributions,
                             std::span<double> local_owned) const {
  CM5_CHECK(local_owned.size() ==
            static_cast<std::size_t>(distribution_.local_size(node.self())));
  // Combine per unique remote element before communicating ("aggregation"
  // in PARTI terms): one value per entry of the gather's request list.
  const std::int32_t n = node.nprocs();
  std::vector<std::vector<double>> combined(static_cast<std::size_t>(n));
  for (NodeId p = 0; p < n; ++p) {
    const auto& positions = recv_positions_[static_cast<std::size_t>(p)];
    auto& sums = combined[static_cast<std::size_t>(p)];
    sums.assign(positions.size(), 0.0);
    for (std::size_t k = 0; k < positions.size(); ++k) {
      for (const std::size_t pos : positions[k]) sums[k] += contributions[pos];
    }
  }

  sched::DataPlan plan;
  plan.out = [&](NodeId peer) {
    const auto& sums = combined[static_cast<std::size_t>(peer)];
    std::vector<std::byte> payload(sums.size() * sizeof(double));
    std::memcpy(payload.data(), sums.data(), payload.size());
    return payload;
  };
  plan.in = [&](NodeId peer, const machine::Message& msg) {
    const auto& offsets = send_offsets_[static_cast<std::size_t>(peer)];
    CM5_CHECK(msg.data.size() == offsets.size() * sizeof(double));
    for (std::size_t k = 0; k < offsets.size(); ++k) {
      double value;
      std::memcpy(&value, msg.data.data() + k * sizeof(double), sizeof(double));
      local_owned[static_cast<std::size_t>(offsets[k])] += value;
    }
  };
  sched::execute_schedule(node, scatter_schedule_, {}, &plan);

  for (const auto& [pos, offset] : local_positions_) {
    local_owned[static_cast<std::size_t>(offset)] += contributions[pos];
  }
}

}  // namespace cm5::runtime
