#include "cm5/mesh/halo.hpp"

#include <algorithm>
#include <cstring>
#include <set>

#include "cm5/sched/executor.hpp"
#include "cm5/util/check.hpp"

namespace cm5::mesh {

HaloPlan::HaloPlan(std::int32_t nparts,
                   std::vector<std::vector<std::vector<std::int32_t>>> lists)
    : nparts_(nparts), lists_(std::move(lists)) {
  CM5_CHECK(nparts_ >= 1);
  CM5_CHECK(lists_.size() == static_cast<std::size_t>(nparts_));
  for (const auto& row : lists_) {
    CM5_CHECK(row.size() == static_cast<std::size_t>(nparts_));
    for (const auto& list : row) {
      CM5_CHECK_MSG(std::is_sorted(list.begin(), list.end()),
                    "halo lists must be sorted");
    }
  }
}

std::span<const std::int32_t> HaloPlan::shared(PartId owner,
                                               PartId reader) const {
  CM5_CHECK(owner >= 0 && owner < nparts_ && reader >= 0 && reader < nparts_);
  return lists_[static_cast<std::size_t>(owner)][static_cast<std::size_t>(reader)];
}

sched::CommPattern HaloPlan::pattern(std::int64_t bytes_per_entity) const {
  CM5_CHECK(bytes_per_entity >= 1);
  sched::CommPattern p(nparts_);
  for (PartId owner = 0; owner < nparts_; ++owner) {
    for (PartId reader = 0; reader < nparts_; ++reader) {
      if (owner == reader) continue;
      const auto count = static_cast<std::int64_t>(shared(owner, reader).size());
      if (count > 0) p.set(owner, reader, count * bytes_per_entity);
    }
  }
  return p;
}

std::int64_t HaloPlan::ghosts_of(PartId reader) const {
  std::int64_t total = 0;
  for (PartId owner = 0; owner < nparts_; ++owner) {
    if (owner != reader) {
      total += static_cast<std::int64_t>(shared(owner, reader).size());
    }
  }
  return total;
}

void HaloPlan::exchange_bytes(machine::Node& node,
                              const sched::CommSchedule& schedule,
                              std::span<std::byte> values,
                              std::size_t entity_bytes) const {
  const PartId self = node.self();
  auto entity = [&](std::int32_t id) {
    return values.data() + static_cast<std::size_t>(id) * entity_bytes;
  };
  sched::DataPlan plan;
  plan.out = [&](machine::NodeId peer) {
    const auto ids = shared(self, peer);
    std::vector<std::byte> payload(ids.size() * entity_bytes);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      std::memcpy(payload.data() + k * entity_bytes, entity(ids[k]),
                  entity_bytes);
    }
    return payload;
  };
  plan.in = [&](machine::NodeId peer, const machine::Message& msg) {
    const auto ids = shared(peer, self);
    CM5_CHECK(msg.data.size() == ids.size() * entity_bytes);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      std::memcpy(entity(ids[k]), msg.data.data() + k * entity_bytes,
                  entity_bytes);
    }
  };
  sched::execute_schedule(node, schedule, {}, &plan);
}

namespace {

std::vector<std::vector<std::vector<std::int32_t>>> empty_lists(
    std::int32_t nparts) {
  return std::vector<std::vector<std::vector<std::int32_t>>>(
      static_cast<std::size_t>(nparts),
      std::vector<std::vector<std::int32_t>>(static_cast<std::size_t>(nparts)));
}

}  // namespace

HaloPlan build_vertex_halo(const TriMesh& mesh,
                           std::span<const PartId> vertex_part,
                           std::int32_t nparts) {
  CM5_CHECK(vertex_part.size() == static_cast<std::size_t>(mesh.num_vertices()));
  // shared_sets[owner][reader]
  std::vector<std::vector<std::set<std::int32_t>>> shared(
      static_cast<std::size_t>(nparts),
      std::vector<std::set<std::int32_t>>(static_cast<std::size_t>(nparts)));
  for (VertexId v = 0; v < mesh.num_vertices(); ++v) {
    const PartId owner = vertex_part[static_cast<std::size_t>(v)];
    for (VertexId u : mesh.vertex_neighbors(v)) {
      const PartId reader = vertex_part[static_cast<std::size_t>(u)];
      if (reader != owner) {
        shared[static_cast<std::size_t>(owner)][static_cast<std::size_t>(reader)]
            .insert(v);
      }
    }
  }
  auto lists = empty_lists(nparts);
  for (std::size_t o = 0; o < shared.size(); ++o) {
    for (std::size_t r = 0; r < shared[o].size(); ++r) {
      lists[o][r].assign(shared[o][r].begin(), shared[o][r].end());
    }
  }
  return HaloPlan(nparts, std::move(lists));
}

HaloPlan build_cell_halo(const TriMesh& mesh, std::span<const PartId> cell_part,
                         std::int32_t nparts) {
  CM5_CHECK(cell_part.size() == static_cast<std::size_t>(mesh.num_triangles()));
  std::vector<std::vector<std::set<std::int32_t>>> shared(
      static_cast<std::size_t>(nparts),
      std::vector<std::set<std::int32_t>>(static_cast<std::size_t>(nparts)));
  for (TriId t = 0; t < mesh.num_triangles(); ++t) {
    const PartId owner = cell_part[static_cast<std::size_t>(t)];
    for (TriId n : mesh.tri_neighbors(t)) {
      if (n < 0) continue;  // boundary edge
      const PartId reader = cell_part[static_cast<std::size_t>(n)];
      if (reader != owner) {
        shared[static_cast<std::size_t>(owner)][static_cast<std::size_t>(reader)]
            .insert(t);
      }
    }
  }
  auto lists = empty_lists(nparts);
  for (std::size_t o = 0; o < shared.size(); ++o) {
    for (std::size_t r = 0; r < shared[o].size(); ++r) {
      lists[o][r].assign(shared[o][r].begin(), shared[o][r].end());
    }
  }
  return HaloPlan(nparts, std::move(lists));
}

}  // namespace cm5::mesh
