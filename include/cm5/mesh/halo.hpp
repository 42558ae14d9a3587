#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/mesh/mesh.hpp"
#include "cm5/mesh/partition.hpp"
#include "cm5/sched/pattern.hpp"
#include "cm5/sched/schedule.hpp"

/// \file halo.hpp
/// Halo (ghost) exchange plans derived from a partitioned mesh — the
/// bridge between the mesh substrate and the paper's Table 12: "the
/// communication patterns in these problems can be captured and
/// scheduled at runtime".

namespace cm5::mesh {

/// The exchange plan of one partitioned computation: for every ordered
/// pair of parts (p, q), the list of entity ids (vertices or cells) that
/// p owns and q reads. Both sides keep the lists sorted by global id so
/// sender and receiver agree on the serialization order.
class HaloPlan {
 public:
  HaloPlan(std::int32_t nparts, std::vector<std::vector<std::vector<std::int32_t>>> lists);

  std::int32_t nparts() const noexcept { return nparts_; }

  /// Entities owned by `owner` whose values `reader` needs.
  std::span<const std::int32_t> shared(PartId owner, PartId reader) const;

  /// The communication pattern of one exchange: bytes[i][j] =
  /// bytes_per_entity * |shared(i, j)| — entry (i, j) is what processor
  /// i must *send* to processor j.
  sched::CommPattern pattern(std::int64_t bytes_per_entity) const;

  /// Total ghost entities received by `reader`.
  std::int64_t ghosts_of(PartId reader) const;

  /// One ghost refresh, run by every node: executes `schedule` (built
  /// for pattern(sizeof(T))) with real payloads, sending each reader the
  /// entries of `values` it needs from this node and storing the ghost
  /// entries that arrive. `values` is indexed by entity id.
  template <typename T>
  void exchange(machine::Node& node, const sched::CommSchedule& schedule,
                std::span<T> values) const {
    static_assert(std::is_trivially_copyable_v<T>);
    exchange_bytes(node, schedule, std::as_writable_bytes(values), sizeof(T));
  }

 private:
  void exchange_bytes(machine::Node& node, const sched::CommSchedule& schedule,
                      std::span<std::byte> values,
                      std::size_t entity_bytes) const;

  std::int32_t nparts_;
  // lists_[owner][reader] = sorted shared ids.
  std::vector<std::vector<std::vector<std::int32_t>>> lists_;
};

/// Vertex-based halo (nodal solvers like CG): reader part q needs owned
/// vertex v of part p whenever some vertex of q is adjacent to v.
HaloPlan build_vertex_halo(const TriMesh& mesh,
                           std::span<const PartId> vertex_part,
                           std::int32_t nparts);

/// Cell-based halo (cell-centred solvers like the Euler code): reader q
/// needs owned cell t of part p whenever a cell of q shares an edge
/// with t.
HaloPlan build_cell_halo(const TriMesh& mesh,
                         std::span<const PartId> cell_part,
                         std::int32_t nparts);

}  // namespace cm5::mesh
