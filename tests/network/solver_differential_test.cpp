#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cm5/net/fluid_network.hpp"
#include "cm5/net/topology.hpp"
#include "cm5/util/rng.hpp"
#include "reference_network.hpp"

/// Bit-exactness of the production rate solver against the reference
/// solve_max_min (tests/support). A production FluidNetwork is driven
/// through the operations below; after every operation each live flow's
/// rate and each link's load must equal the reference's to the bit. The
/// scenarios hold hundreds of flows on large machines with churn, link
/// faults, near-ties inside the freeze tolerance and links reused after
/// their flows retired.

namespace {

using namespace cm5;

/// Advances to the next event; false if every active flow is blocked.
bool advance(test::ReferencedNetwork& ref, util::SimTime& t) {
  const auto ev = ref.network().next_event();
  if (!ev.has_value()) return false;
  t = *ev;
  ref.advance_to(t);
  return true;
}

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
  test::ReferencedNetwork ref(topo);
  util::Rng rng(seed);
  util::SimTime t = 0;
  std::vector<net::LinkId> rescaled;
  constexpr std::size_t kLow = 520;
  constexpr std::size_t kHigh = 560;
  for (int op = 0; op < 900; ++op) {
    const std::string where = "N=" + std::to_string(nprocs) + " op " +
                              std::to_string(op);
    if (faults && ref.live_flows() >= kLow && rng.next_below(8) == 0) {
      const auto src = static_cast<net::NodeId>(
          rng.next_below(static_cast<std::uint64_t>(nprocs)));
      const auto route = topo.route(
          src, src ^ (1 << static_cast<std::int32_t>(
                          rng.next_below(static_cast<std::uint64_t>(lg)))));
      const net::LinkId link = route[rng.next_below(route.size())];
      const double scales[] = {0.0, 0.25, 0.5, 1.0};
      ref.set_link_capacity_scale(t, link, scales[rng.next_below(4)]);
      rescaled.push_back(link);
    } else if (ref.live_flows() < kLow ||
               (ref.live_flows() < kHigh && rng.next_below(2) == 0)) {
      const auto src = static_cast<net::NodeId>(
          rng.next_below(static_cast<std::uint64_t>(nprocs)));
      const auto stage = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(lg)));
      ref.start_flow(t, src, src ^ (1 << stage),
                     static_cast<double>(rng.next_in(64, 65536)));
    } else if (!advance(ref, t)) {
      // Every flow is stalled on a dead link: heal the network.
      for (const net::LinkId l : rescaled) {
        ref.set_link_capacity_scale(t, l, 1.0);
      }
      rescaled.clear();
    }
    ASSERT_EQ(ref.mismatch(), "") << where;
  }
}

TEST(SolverDifferential, RexChurnMatchesOracleBitwise1024) {
  rex_churn(1024, /*faults=*/false, 101);
}

TEST(SolverDifferential, RexChurnMatchesOracleBitwise4096) {
  rex_churn(4096, /*faults=*/false, 202);
}

TEST(SolverDifferential, RexChurnWithLinkFaultsMatchesOracleBitwise1024) {
  rex_churn(1024, /*faults=*/true, 303);
}

TEST(SolverDifferential, RexChurnWithLinkFaultsMatchesOracleBitwise4096) {
  rex_churn(4096, /*faults=*/true, 404);
}

/// Starts `count` flows from node `src` round-robin over the 256 nodes
/// from dst0: the source's injection link is the fan's only tight link,
/// so it runs at 20 MB/s / count with no near-tie inside it.
void start_fan(test::ReferencedNetwork& ref, net::NodeId src,
               net::NodeId dst0, std::int32_t count, double bytes) {
  for (std::int32_t i = 0; i < count; ++i) {
    ref.start_flow(0, src, dst0 + i % 256, bytes);
  }
}

constexpr double kHuge = 1e12;  // bytes; never completes within a test

TEST(SolverDifferential, NearTieWithAnUntouchedRateTakesTheFallback) {
  // Four link-disjoint fans of 256 flows on a 1024-node machine, each out
  // of one node into another 256-node subtree, all at exactly 78125 B/s.
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(1024));
  test::ReferencedNetwork ref(topo);
  start_fan(ref, 0, 256, 256, kHuge);    // A
  start_fan(ref, 256, 0, 256, kHuge);    // C
  start_fan(ref, 512, 768, 256, 1e6);    // B: the first to complete
  start_fan(ref, 768, 512, 256, kHuge);  // D
  ASSERT_EQ(ref.mismatch(), "") << "initial";
  const net::LinkId b_inject = topo.inject_link(512);

  // Halving B's injection moves B far from every other rate.
  ref.set_link_capacity_scale(0, b_inject, 0.5);
  ASSERT_EQ(ref.mismatch(), "") << "B halved";

  // Restoring it to 1 - 1e-13 puts B's new share strictly inside the
  // freeze tolerance of the rate A, C and D hold, and the reference
  // freezes them at B's share. B's rate rises, so its projections must be
  // refreshed: B completes first.
  ref.set_link_capacity_scale(0, b_inject, 1.0 - 1e-13);
  ASSERT_EQ(ref.mismatch(), "") << "near tie";

  // A change in A alone while the fans are coupled.
  ref.start_flow(0, 0, 300, kHuge);
  ASSERT_EQ(ref.mismatch(), "") << "after near tie";

  // Healing B removes the near-tie; then another change in A alone.
  ref.set_link_capacity_scale(0, b_inject, 1.0);
  ASSERT_EQ(ref.mismatch(), "") << "healed";
  ref.start_flow(0, 0, 301, kHuge);
  ASSERT_EQ(ref.mismatch(), "") << "after heal";
}

TEST(SolverDifferential, NearTieInsideTheDirtiedSetTakesTheFallback) {
  // Fans at distinct rates: A 100 000, B 66 667, C 157 480 and D, with
  // its injection scaled by 1 + 1e-13, 156 250 B/s. One more flow in D
  // and two more in C, started together, change both in one solve and
  // leave them a relative 1e-13 apart, which the freeze tolerance
  // couples. A later change to C alone must leave D where the reference
  // puts it.
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(1024));
  test::ReferencedNetwork ref(topo);
  start_fan(ref, 0, 256, 200, kHuge);    // A
  start_fan(ref, 512, 768, 300, kHuge);  // B
  start_fan(ref, 256, 0, 127, kHuge);    // C
  start_fan(ref, 768, 512, 128, kHuge);  // D
  ASSERT_EQ(ref.mismatch(), "") << "initial";

  ref.set_link_capacity_scale(0, topo.inject_link(768), 1.0 + 1e-13);
  ASSERT_EQ(ref.mismatch(), "") << "D scaled";

  ref.start_flow(0, 256, 100, kHuge);
  ref.start_flow(0, 256, 101, kHuge);
  ref.start_flow(0, 768, 600, kHuge);
  ASSERT_EQ(ref.mismatch(), "") << "C and D near-tied";

  ref.set_link_capacity_scale(0, topo.inject_link(256), 0.5);
  ASSERT_EQ(ref.mismatch(), "") << "C halved";
}

TEST(SolverDifferential, LinkReusedBetweenRestrictedSolvesCountsBusyOnce) {
  // A link whose flows all retired stays in the live-link list until the
  // next solve sweeps it; a flow starting on it again before then must
  // not list it twice, or its busy time would be counted twice.
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(1024));
  test::ReferencedNetwork ref(topo);
  start_fan(ref, 0, 256, 256, kHuge);
  start_fan(ref, 256, 0, 256, kHuge);
  start_fan(ref, 512, 768, 256, kHuge);
  start_fan(ref, 768, 512, 256, kHuge);
  ASSERT_EQ(ref.mismatch(), "") << "initial";
  util::SimTime t = 0;
  for (int round = 0; round < 2; ++round) {
    ref.start_flow(t, 1, 2, 1000.0);  // shares node 2's ejection with a fan
    ASSERT_EQ(ref.mismatch(), "") << "short flow started";
    ASSERT_TRUE(advance(ref, t));  // only the short flow completes
    ASSERT_EQ(ref.mismatch(), "") << "short flow retired";
  }
  // Restart the short flow right after it retires, before any solve
  // sweeps its links, so node 1's injection is still listed. The link
  // loads hide that bookkeeping, so bound the busy time directly: the link
  // carries only the short flows, one at a time and back to back, at just
  // under its capacity, and listed twice it would count more busy time
  // than has passed.
  ref.start_flow(t, 1, 2, 1000.0);
  ASSERT_EQ(ref.mismatch(), "") << "short flow started";
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(advance(ref, t));
    ref.start_flow(t, 1, 2, 1000.0);
    ASSERT_EQ(ref.mismatch(), "") << "short flow restarted";
  }
  ASSERT_TRUE(advance(ref, t));
  ASSERT_EQ(ref.mismatch(), "") << "last short flow retired";
  const double busy = ref.network().stats().link_busy_seconds[
      static_cast<std::size_t>(topo.inject_link(1))];
  EXPECT_LE(busy, util::to_seconds(t));
  EXPECT_GT(busy, 0.9 * util::to_seconds(t));
}

}  // namespace
