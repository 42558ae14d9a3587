#include "maxmin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cm5/util/rng.hpp"

namespace cm5::net {
namespace {

std::vector<double> solve(const std::vector<std::vector<LinkId>>& flows,
                          const std::vector<double>& caps) {
  std::vector<FlowRoute> routes;
  routes.reserve(flows.size());
  for (const auto& f : flows) routes.push_back(FlowRoute{f});
  return solve_max_min(routes, caps);
}

TEST(MaxMinTest, SingleFlowGetsFullCapacity) {
  const auto r = solve({{0, 1}}, {10.0, 20.0});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_DOUBLE_EQ(r[0], 10.0);
}

TEST(MaxMinTest, TwoFlowsShareBottleneck) {
  const auto r = solve({{0}, {0}}, {10.0});
  EXPECT_DOUBLE_EQ(r[0], 5.0);
  EXPECT_DOUBLE_EQ(r[1], 5.0);
}

TEST(MaxMinTest, ClassicThreeFlowExample) {
  // Link 0 (cap 10) carries flows A and B; link 1 (cap 8) carries B and C.
  // Progressive filling: link 1 binds at 4 (B, C frozen at 4); A then gets
  // the rest of link 0: 6.
  const auto r = solve({{0}, {0, 1}, {1}}, {10.0, 8.0});
  EXPECT_DOUBLE_EQ(r[1], 4.0);
  EXPECT_DOUBLE_EQ(r[2], 4.0);
  EXPECT_DOUBLE_EQ(r[0], 6.0);
}

TEST(MaxMinTest, EmptyRouteGetsInfiniteRate) {
  const auto r = solve({{}}, {10.0});
  EXPECT_TRUE(std::isinf(r[0]));
}

TEST(MaxMinTest, NoFlows) {
  const auto r = solve({}, {10.0});
  EXPECT_TRUE(r.empty());
}

TEST(MaxMinTest, UnequalPathsThroughSharedBottleneck) {
  // Four flows over one cap-20 link; two also cross a cap-4 link.
  // The cap-4 pair freezes at 2 each; the others split the remainder:
  // (20 - 4) / 2 = 8.
  const auto r = solve({{0}, {0}, {0, 1}, {0, 1}}, {20.0, 4.0});
  EXPECT_DOUBLE_EQ(r[2], 2.0);
  EXPECT_DOUBLE_EQ(r[3], 2.0);
  EXPECT_DOUBLE_EQ(r[0], 8.0);
  EXPECT_DOUBLE_EQ(r[1], 8.0);
}

TEST(MaxMinTest, ZeroCapacityLinkBlocksItsFlows) {
  const auto r = solve({{0}, {1}}, {0.0, 5.0});
  EXPECT_DOUBLE_EQ(r[0], 0.0);
  EXPECT_DOUBLE_EQ(r[1], 5.0);
}

// --- property-style checks over random instances ---------------------------

struct RandomInstance {
  std::vector<std::vector<LinkId>> flows;
  std::vector<double> caps;
};

RandomInstance make_random(std::uint64_t seed, std::size_t num_links,
                           std::size_t num_flows) {
  util::Rng rng(seed);
  RandomInstance inst;
  inst.caps.resize(num_links);
  for (auto& c : inst.caps) c = 1.0 + rng.next_double() * 99.0;
  inst.flows.resize(num_flows);
  for (auto& f : inst.flows) {
    const auto path_len = static_cast<std::size_t>(rng.next_in(1, 4));
    while (f.size() < path_len) {
      const auto l = static_cast<LinkId>(rng.next_below(num_links));
      if (std::find(f.begin(), f.end(), l) == f.end()) f.push_back(l);
    }
  }
  return inst;
}

class MaxMinPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinPropertyTest, RatesAreFeasible) {
  const RandomInstance inst = make_random(GetParam(), 12, 30);
  const auto rates = solve(inst.flows, inst.caps);
  std::vector<double> load(inst.caps.size(), 0.0);
  for (std::size_t f = 0; f < inst.flows.size(); ++f) {
    EXPECT_GE(rates[f], 0.0);
    for (LinkId l : inst.flows[f]) load[static_cast<std::size_t>(l)] += rates[f];
  }
  for (std::size_t l = 0; l < inst.caps.size(); ++l) {
    EXPECT_LE(load[l], inst.caps[l] * (1.0 + 1e-9));
  }
}

TEST_P(MaxMinPropertyTest, EveryFlowHasASaturatedBottleneck) {
  // Max-min optimality: each flow crosses at least one link whose capacity
  // is (nearly) fully used — otherwise its rate could be raised.
  const RandomInstance inst = make_random(GetParam(), 10, 25);
  const auto rates = solve(inst.flows, inst.caps);
  std::vector<double> load(inst.caps.size(), 0.0);
  for (std::size_t f = 0; f < inst.flows.size(); ++f) {
    for (LinkId l : inst.flows[f]) load[static_cast<std::size_t>(l)] += rates[f];
  }
  for (std::size_t f = 0; f < inst.flows.size(); ++f) {
    bool saturated = false;
    for (LinkId l : inst.flows[f]) {
      if (load[static_cast<std::size_t>(l)] >=
          inst.caps[static_cast<std::size_t>(l)] * (1.0 - 1e-6)) {
        saturated = true;
        break;
      }
    }
    EXPECT_TRUE(saturated) << "flow " << f << " could be increased";
  }
}

TEST_P(MaxMinPropertyTest, PermutingFlowsPermutesRates) {
  const RandomInstance inst = make_random(GetParam(), 8, 16);
  const auto rates = solve(inst.flows, inst.caps);
  auto reversed = inst.flows;
  std::reverse(reversed.begin(), reversed.end());
  const auto rev_rates = solve(reversed, inst.caps);
  for (std::size_t f = 0; f < inst.flows.size(); ++f) {
    EXPECT_NEAR(rates[f], rev_rates[inst.flows.size() - 1 - f], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace cm5::net
