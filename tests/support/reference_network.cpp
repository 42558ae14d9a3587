#include "reference_network.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>

#include "maxmin.hpp"

namespace cm5::test {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string differ(const char* what, std::int64_t index, double got,
                   double want) {
  char text[160];
  std::snprintf(text, sizeof text, "%s %lld: %.17g, reference %.17g", what,
                static_cast<long long>(index), got, want);
  return text;
}

}  // namespace

ReferencedNetwork::ReferencedNetwork(const net::FatTreeTopology& topo)
    : topo_(topo),
      net_(topo),
      scale_(static_cast<std::size_t>(topo.num_links()), 1.0) {}

net::FlowId ReferencedNetwork::start_flow(util::SimTime t, net::NodeId src,
                                          net::NodeId dst,
                                          double wire_bytes) {
  const net::FlowId id = net_.start_flow(t, src, dst, wire_bytes);
  const auto route = topo_.route(src, dst);
  routes_.emplace(id, std::vector<net::LinkId>(route.begin(), route.end()));
  return id;
}

void ReferencedNetwork::set_link_capacity_scale(util::SimTime t,
                                                net::LinkId link,
                                                double scale) {
  net_.set_link_capacity_scale(t, link, scale);
  scale_[static_cast<std::size_t>(link)] = scale;
}

std::vector<net::FlowId> ReferencedNetwork::advance_to(util::SimTime t) {
  const std::span<const net::FlowId> done = net_.advance_to(t);
  for (const net::FlowId id : done) routes_.erase(id);
  return {done.begin(), done.end()};
}

std::string ReferencedNetwork::mismatch() {
  if (routes_.empty()) return {};
  std::vector<net::FlowRoute> flows;
  flows.reserve(routes_.size());
  for (const auto& [id, links] : routes_) flows.push_back({links});
  std::vector<double> caps(scale_.size());
  for (std::size_t l = 0; l < caps.size(); ++l) {
    caps[l] = topo_.link(static_cast<net::LinkId>(l)).capacity * scale_[l];
  }
  const std::vector<double> rates = net::solve_max_min(flows, caps);

  std::vector<double> load(caps.size(), 0.0);
  std::size_t i = 0;
  for (const auto& [id, links] : routes_) {
    const double got = net_.flow_rate(id);
    if (!same_bits(got, rates[i])) {
      return differ("rate of flow", id, got, rates[i]);
    }
    for (const net::LinkId l : links) {
      load[static_cast<std::size_t>(l)] += rates[i];
    }
    ++i;
  }
  for (std::size_t l = 0; l < load.size(); ++l) {
    const double got = net_.link_load(static_cast<net::LinkId>(l));
    if (!same_bits(got, load[l])) {
      return differ("load of link", static_cast<std::int64_t>(l), got,
                    load[l]);
    }
  }
  return {};
}

}  // namespace cm5::test
