#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cm5/net/topology.hpp"

/// \file maxmin.hpp
/// Max-min fair bandwidth allocation (progressive filling): the reference
/// solve that FluidNetwork's production solver must match bit for bit.
///
/// Given a set of flows, each traversing a set of capacitated links,
/// max-min fairness gives every flow the largest rate such that no flow
/// can be increased without decreasing a flow of equal or smaller rate.
/// This is the standard fluid abstraction of a network whose switches
/// serve competing traffic fairly — a good match for the CM-5 data
/// network, whose random packet routing equalizes progress between
/// competing messages.

namespace cm5::net {

/// One flow's routing: the directed links it occupies.
struct FlowRoute {
  std::span<const LinkId> links;
};

/// Computes max-min fair rates (bytes/second) for `flows` over links with
/// the given capacities.
///
/// Algorithm: progressive filling. Repeatedly find the most constrained
/// unsaturated link (minimum residual capacity per unfrozen flow), freeze
/// all its flows at the resulting fair share, subtract, and continue.
/// Complexity O(L * F) in the worst case; both are small here (a run has
/// at most num_nodes concurrent flows, each over O(log N) links).
///
/// Flows that traverse no links (empty route) get an infinite rate
/// represented as std::numeric_limits<double>::infinity().
std::vector<double> solve_max_min(std::span<const FlowRoute> flows,
                                  std::span<const double> link_capacity);

}  // namespace cm5::net
