#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/builders.hpp"
#include "cm5/sched/pattern.hpp"
#include "cm5/sched/schedule.hpp"

/// \file gather.hpp
/// A PARTI-style inspector/executor runtime — the research context this
/// paper lives in (its ref [13], Ponnusamy/Saltz/Das/Koelbel/Choudhary,
/// "A Runtime Data Mapping Scheme for Irregular Problems", and the
/// acknowledgment to Joel Saltz). Irregular codes access distributed
/// arrays through indirection (`x(ia(i))`); the *inspector* runs once,
/// translating each node's needed global indices into a communication
/// pattern and a schedule built by one of the paper's algorithms; the
/// *executor* then performs the gather/scatter every iteration. "The
/// communication schedule needs to be created only once and can be used
/// thereafter ... for as many iterations as required" (paper §4.5).

namespace cm5::runtime {

using machine::Node;
using machine::NodeId;

/// Block distribution of a global array over the machine's nodes:
/// node p owns the contiguous range [first(p), first(p) + local_size(p)).
/// Remainder elements go to the leading nodes, so sizes differ by at
/// most one.
struct BlockDistribution {
  std::int64_t global_size = 0;
  std::int32_t nprocs = 0;

  BlockDistribution(std::int64_t global, std::int32_t procs);

  NodeId owner(std::int64_t global_index) const;
  std::int64_t first(NodeId p) const;
  std::int64_t local_size(NodeId p) const;
  /// Offset of `global_index` within its owner's block.
  std::int64_t local_offset(std::int64_t global_index) const;
};

/// The inspector's output: everything needed to execute gathers and
/// scatter-adds for one fixed set of requested indices.
///
/// Construction is collective (every node calls it with its own `needed`
/// list, in the same program order). The inspector itself communicates:
/// per-destination request counts travel by all-gather, the request
/// index lists by a greedy-scheduled exchange — the runtime uses the
/// paper's own machinery to set itself up.
class GatherPlan {
 public:
  GatherPlan(Node& node, const BlockDistribution& distribution,
             std::span<const std::int64_t> needed,
             sched::Scheduler scheduler);

  /// Executor: gathers the values of the requested indices.
  /// `local_owned` is this node's block (size local_size(self));
  /// `out[i]` receives the value at `needed[i]` (duplicates allowed in
  /// `needed`; each position is filled). Collective.
  void gather(Node& node, std::span<const double> local_owned,
              std::span<double> out) const;

  /// Executor, reversed: adds `contributions[i]` into the owner's
  /// element `needed[i]` (duplicate indices accumulate). Off-node
  /// contributions are combined locally before sending. Collective.
  void scatter_add(Node& node, std::span<const double> contributions,
                   std::span<double> local_owned) const;

  /// The data-phase communication pattern (owner -> requester bytes) —
  /// what the paper's Table 12 would time for this workload.
  const sched::CommPattern& pattern() const noexcept { return data_pattern_; }

  /// Distinct off-node elements this node fetches per gather.
  std::int64_t remote_elements() const noexcept { return remote_elements_; }

 private:
  BlockDistribution distribution_;
  sched::CommPattern data_pattern_;
  sched::CommSchedule data_schedule_;
  // The request exchange's schedule; scatter_add's pattern is the same.
  sched::CommSchedule scatter_schedule_;

  // Per peer p: sorted global indices this node must *send* values for
  // (p requested them), and the local offsets to read from.
  std::vector<std::vector<std::int64_t>> send_offsets_;
  // Per peer p: positions in `needed`/`out` filled by p's reply, in the
  // order p serializes them (sorted by global index).
  std::vector<std::vector<std::vector<std::size_t>>> recv_positions_;
  // Positions served locally: (position, local offset).
  std::vector<std::pair<std::size_t, std::int64_t>> local_positions_;
  std::int64_t remote_elements_ = 0;
};

}  // namespace cm5::runtime
