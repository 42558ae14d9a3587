#pragma once

#include <map>
#include <string>
#include <vector>

#include "cm5/net/fluid_network.hpp"
#include "cm5/net/topology.hpp"
#include "cm5/util/time.hpp"

/// \file reference_network.hpp
/// The solver differential: one production FluidNetwork plus a test-side
/// record of each live flow's route and each link's capacity scale, so
/// that after any operation the network's rates and link loads can be
/// compared with the reference solve_max_min over the same flows.

namespace cm5::test {

class ReferencedNetwork {
 public:
  explicit ReferencedNetwork(const net::FatTreeTopology& topo);

  net::FlowId start_flow(util::SimTime t, net::NodeId src, net::NodeId dst,
                         double wire_bytes);
  void set_link_capacity_scale(util::SimTime t, net::LinkId link,
                               double scale);
  std::vector<net::FlowId> advance_to(util::SimTime t);

  net::FluidNetwork& network() { return net_; }
  std::size_t live_flows() const { return routes_.size(); }

  /// Empty if every live flow's flow_rate equals solve_max_min over the
  /// live flows in FlowId order, and every link's load equals the
  /// reference rates of its flows summed in FlowId order, bit for bit;
  /// otherwise the first mismatch. With no live flow nothing is compared:
  /// loads are only read after a solve, and nothing solves an idle
  /// network.
  std::string mismatch();

 private:
  const net::FatTreeTopology& topo_;
  net::FluidNetwork net_;
  std::map<net::FlowId, std::vector<net::LinkId>> routes_;
  std::vector<double> scale_;  // per link
};

}  // namespace cm5::test
