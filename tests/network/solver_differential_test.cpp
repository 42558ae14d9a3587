#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cm5/net/fluid_network.hpp"
#include "cm5/net/topology.hpp"
#include "cm5/util/rng.hpp"

/// Bit-exactness of the production rate solver against the reference. A
/// production FluidNetwork and a SolverMode::kOracle twin (the seed
/// solve_max_min) are driven through identical operations; after every
/// operation each live flow's rate and the next event time must be equal
/// to the bit, and so must the link busy time accumulated so far. The
/// scenarios hold hundreds of flows on large machines with churn, link
/// faults, near-ties inside the freeze tolerance and links reused after
/// their flows retired.
///
/// The suite and test names are those of the component-restricted
/// re-solve these scenarios were first written for. That path is gone;
/// "takes the fallback" and "between restricted solves" now name the
/// scenario, and each test checks only agreement with the oracle.

namespace {

using namespace cm5;
using net::FlowId;
using net::FluidNetwork;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

class Twin {
 public:
  explicit Twin(const net::FatTreeTopology& topo) : inc_(topo), ora_(topo) {
    ora_.set_solver_mode(FluidNetwork::SolverMode::kOracle);
  }

  FlowId start(util::SimTime t, net::NodeId src, net::NodeId dst,
               double bytes) {
    const FlowId a = inc_.start_flow(t, src, dst, bytes);
    const FlowId b = ora_.start_flow(t, src, dst, bytes);
    EXPECT_EQ(a, b);
    live_.push_back(a);
    return a;
  }

  void set_scale(util::SimTime t, net::LinkId link, double scale) {
    inc_.set_link_capacity_scale(t, link, scale);
    ora_.set_link_capacity_scale(t, link, scale);
  }

  /// Advances both networks to their common next event; false if every
  /// active flow is blocked.
  bool advance(util::SimTime& t) {
    const auto ev = inc_.next_event();
    EXPECT_EQ(ev, ora_.next_event());
    if (!ev.has_value()) return false;
    t = *ev;
    const std::vector<FlowId> done = inc_.advance_to(t);
    EXPECT_EQ(done, ora_.advance_to(t));
    for (const FlowId id : done) {
      live_.erase(std::find(live_.begin(), live_.end(), id));
    }
    return true;
  }

  /// Every live flow's rate and the next event time, bitwise, and the
  /// per-link busy time accumulated so far.
  void expect_identical(const std::string& where) {
    for (const FlowId id : live_) {
      ASSERT_EQ(bits(inc_.flow_rate(id)), bits(ora_.flow_rate(id)))
          << where << " flow " << id;
    }
    ASSERT_EQ(inc_.next_event(), ora_.next_event()) << where;
    ASSERT_EQ(inc_.stats().link_busy_seconds, ora_.stats().link_busy_seconds)
        << where;
  }

  std::size_t active() const { return live_.size(); }
  double busy_seconds(net::LinkId link) const {
    return inc_.stats().link_busy_seconds[static_cast<std::size_t>(link)];
  }

 private:
  FluidNetwork inc_;
  FluidNetwork ora_;
  std::vector<FlowId> live_;  // ids are identical in both networks
};

/// REX-partner churn: every flow runs from a node to its partner at a
/// random exchange stage (src ^ 2^k), one start or one advance (retiring
/// the flows that complete) per operation, holding the active set
/// between 520 and 560 flows once ramped up. With `faults`, about one
/// operation in eight instead rescales a link on a live flow's route to
/// degraded, dead or healthy capacity. At 1024 nodes the flows share
/// links densely and nearly every solve holds a near-tie; at 4096 nodes
/// they split into many small sharing components.
void rex_churn(std::int32_t nprocs, bool faults, std::uint64_t seed) {
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(nprocs));
  std::int32_t lg = 0;
  while ((1 << lg) < nprocs) ++lg;
  Twin twin(topo);
  util::Rng rng(seed);
  util::SimTime t = 0;
  std::vector<net::LinkId> rescaled;
  constexpr std::size_t kLow = 520;
  constexpr std::size_t kHigh = 560;
  for (int op = 0; op < 900; ++op) {
    const std::string where = "N=" + std::to_string(nprocs) + " op " +
                              std::to_string(op);
    if (faults && twin.active() >= kLow && rng.next_below(8) == 0) {
      const auto src = static_cast<net::NodeId>(
          rng.next_below(static_cast<std::uint64_t>(nprocs)));
      const auto route = topo.route(
          src, src ^ (1 << static_cast<std::int32_t>(
                          rng.next_below(static_cast<std::uint64_t>(lg)))));
      const net::LinkId link = route[rng.next_below(route.size())];
      const double scales[] = {0.0, 0.25, 0.5, 1.0};
      twin.set_scale(t, link, scales[rng.next_below(4)]);
      rescaled.push_back(link);
    } else if (twin.active() < kLow ||
               (twin.active() < kHigh && rng.next_below(2) == 0)) {
      const auto src = static_cast<net::NodeId>(
          rng.next_below(static_cast<std::uint64_t>(nprocs)));
      const auto stage = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(lg)));
      twin.start(t, src, src ^ (1 << stage),
                 static_cast<double>(rng.next_in(64, 65536)));
    } else if (!twin.advance(t)) {
      // Every flow is stalled on a dead link: heal the network.
      for (const net::LinkId l : rescaled) twin.set_scale(t, l, 1.0);
      rescaled.clear();
    }
    twin.expect_identical(where);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RestrictedSolve, RexChurnMatchesOracleBitwise1024) {
  rex_churn(1024, /*faults=*/false, 101);
}

TEST(RestrictedSolve, RexChurnMatchesOracleBitwise4096) {
  rex_churn(4096, /*faults=*/false, 202);
}

TEST(RestrictedSolve, RexChurnWithLinkFaultsMatchesOracleBitwise1024) {
  rex_churn(1024, /*faults=*/true, 303);
}

TEST(RestrictedSolve, RexChurnWithLinkFaultsMatchesOracleBitwise4096) {
  rex_churn(4096, /*faults=*/true, 404);
}

/// Starts `count` flows from node `src` round-robin over the 256 nodes
/// from dst0: the source's injection link is the fan's only tight link,
/// so it runs at 20 MB/s / count with no near-tie inside it.
void start_fan(Twin& twin, net::NodeId src, net::NodeId dst0,
               std::int32_t count, double bytes) {
  for (std::int32_t i = 0; i < count; ++i) {
    twin.start(0, src, dst0 + i % 256, bytes);
  }
}

constexpr double kHuge = 1e12;  // bytes; never completes within a test

TEST(RestrictedSolve, NearTieWithAnUntouchedRateTakesTheFallback) {
  // Four link-disjoint fans of 256 flows on a 1024-node machine, each out
  // of one node into another 256-node subtree, all at exactly 78125 B/s.
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(1024));
  Twin twin(topo);
  start_fan(twin, 0, 256, 256, kHuge);    // A
  start_fan(twin, 256, 0, 256, kHuge);    // C
  start_fan(twin, 512, 768, 256, 1e6);    // B: the first to complete
  start_fan(twin, 768, 512, 256, kHuge);  // D
  twin.expect_identical("initial");
  const net::LinkId b_inject = topo.inject_link(512);

  // Halving B's injection moves B far from every other rate.
  twin.set_scale(0, b_inject, 0.5);
  twin.expect_identical("B halved");

  // Restoring it to 1 - 1e-13 puts B's new share strictly inside the
  // freeze tolerance of the rate A, C and D hold, and the reference
  // freezes them at B's share. B's rate rises, so its projections must be
  // refreshed: B completes first.
  twin.set_scale(0, b_inject, 1.0 - 1e-13);
  twin.expect_identical("near tie");

  // A change in A alone while the fans are coupled.
  twin.start(0, 0, 300, kHuge);
  twin.expect_identical("after near tie");

  // Healing B removes the near-tie; then another change in A alone.
  twin.set_scale(0, b_inject, 1.0);
  twin.expect_identical("healed");
  twin.start(0, 0, 301, kHuge);
  twin.expect_identical("after heal");
}

TEST(RestrictedSolve, NearTieInsideTheDirtiedSetTakesTheFallback) {
  // Fans at distinct rates: A 100 000, B 66 667, C 157 480 and D, with
  // its injection scaled by 1 + 1e-13, 156 250 B/s. One more flow in D
  // and two more in C, started together, change both in one solve and
  // leave them a relative 1e-13 apart, which the freeze tolerance
  // couples. A later change to C alone must leave D where the reference
  // puts it.
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(1024));
  Twin twin(topo);
  start_fan(twin, 0, 256, 200, kHuge);    // A
  start_fan(twin, 512, 768, 300, kHuge);  // B
  start_fan(twin, 256, 0, 127, kHuge);    // C
  start_fan(twin, 768, 512, 128, kHuge);  // D
  twin.expect_identical("initial");

  twin.set_scale(0, topo.inject_link(768), 1.0 + 1e-13);
  twin.expect_identical("D scaled");

  twin.start(0, 256, 100, kHuge);
  twin.start(0, 256, 101, kHuge);
  twin.start(0, 768, 600, kHuge);
  twin.expect_identical("C and D near-tied");

  twin.set_scale(0, topo.inject_link(256), 0.5);
  twin.expect_identical("C halved");
}

TEST(RestrictedSolve, LinkReusedBetweenRestrictedSolvesCountsBusyOnce) {
  // A link whose flows all retired stays in the live-link list until the
  // next solve sweeps it; a flow starting on it again before then must
  // not list it twice, or its busy time would be counted twice.
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(1024));
  Twin twin(topo);
  start_fan(twin, 0, 256, 256, kHuge);
  start_fan(twin, 256, 0, 256, kHuge);
  start_fan(twin, 512, 768, 256, kHuge);
  start_fan(twin, 768, 512, 256, kHuge);
  twin.expect_identical("initial");
  util::SimTime t = 0;
  for (int round = 0; round < 2; ++round) {
    twin.start(t, 1, 2, 1000.0);  // shares node 2's ejection with a fan
    twin.expect_identical("short flow started");
    ASSERT_TRUE(twin.advance(t));  // only the short flow completes
    twin.expect_identical("short flow retired");
  }
  // Restart the short flow right after it retires, before any solve
  // sweeps its links, so node 1's injection is still listed. Both twins
  // share that bookkeeping, so bound the busy time directly: the link
  // carries only the short flows, one at a time and back to back, at just
  // under its capacity, and listed twice it would count more busy time
  // than has passed.
  twin.start(t, 1, 2, 1000.0);
  twin.expect_identical("short flow started");
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(twin.advance(t));
    twin.start(t, 1, 2, 1000.0);
    twin.expect_identical("short flow restarted");
  }
  ASSERT_TRUE(twin.advance(t));
  twin.expect_identical("last short flow retired");
  EXPECT_LE(twin.busy_seconds(topo.inject_link(1)), util::to_seconds(t));
  EXPECT_GT(twin.busy_seconds(topo.inject_link(1)),
            0.9 * util::to_seconds(t));
}

}  // namespace
