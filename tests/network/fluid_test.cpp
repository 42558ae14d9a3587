#include "cm5/net/fluid_network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cm5/util/check.hpp"
#include "cm5/util/time.hpp"

namespace cm5::net {
namespace {

using util::from_us;
using util::SimTime;

TEST(FluidTest, SingleFlowFullRate) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  // 20000 wire bytes at 20 MB/s = 1 ms (nodes 0->1, same cluster).
  net.start_flow(0, 0, 1, 20000.0);
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(1));
  const auto done = net.advance_to(*t);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(FluidTest, CrossRootFlowLimitedByThinning) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  // A single cross-root flow is limited by its own node link (20 MB/s),
  // not the aggregate thinning: subtree uplinks are 40/80 MB/s.
  net.start_flow(0, 0, 31, 20000.0);
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(1));
}

TEST(FluidTest, SixteenCrossRootFlowsGetFiveMBps) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  // All 16 nodes of the left 16-subtree send across the root: the level-2
  // uplink (80 MB/s) is the bottleneck -> 5 MB/s per flow.
  for (NodeId n = 0; n < 16; ++n) {
    net.start_flow(0, n, static_cast<NodeId>(n + 16), 5000.0);
  }
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(1));  // 5000 B at 5 MB/s
  const auto done = net.advance_to(*t);
  EXPECT_EQ(done.size(), 16u);
}

TEST(FluidTest, WithinClusterPairsKeepFullBandwidth) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  // Disjoint in-cluster pairs do not contend.
  net.start_flow(0, 0, 1, 20000.0);
  net.start_flow(0, 2, 3, 20000.0);
  net.start_flow(0, 4, 5, 20000.0);
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(1));
}

TEST(FluidTest, LateFlowSlowsEarlierFlow) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  // Flow A: 0 -> 1 (20 MB/s alone), 40000 bytes -> would finish at 2 ms.
  net.start_flow(0, 0, 1, 40000.0);
  // At 1 ms, flow B starts 2 -> 1, sharing node 1's eject link.
  // A has 20000 bytes left; both now get 10 MB/s.
  const auto completions = net.advance_to(util::from_ms(1));
  EXPECT_TRUE(completions.empty());
  net.start_flow(util::from_ms(1), 2, 1, 20000.0);
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  // A finishes at 1 ms + 20000 B / 10 MB/s = 3 ms. B finishes at the same
  // time (same remaining bytes, same rate).
  EXPECT_EQ(*t, util::from_ms(3));
  const auto done = net.advance_to(*t);
  EXPECT_EQ(done.size(), 2u);
}

TEST(FluidTest, EarlyFinisherFreesBandwidth) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  // Two flows into node 1 share its eject link at 10 MB/s each.
  net.start_flow(0, 0, 1, 10000.0);  // done after 1 ms at 10 MB/s
  net.start_flow(0, 2, 1, 30000.0);
  auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(1));
  auto done = net.advance_to(*t);
  ASSERT_EQ(done.size(), 1u);
  // Remaining flow: 20000 bytes left, now at 20 MB/s -> 1 more ms.
  t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(2));
  done = net.advance_to(*t);
  EXPECT_EQ(done.size(), 1u);
}

TEST(FluidTest, SameInstantCompletionsComeBackInFlowIdOrderAfterReuse) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  // Disjoint in-cluster pairs, 20 MB/s each. Flows 0 and 1 finish at
  // 1 ms; flows 3 and 4 start then, on the storage 0 and 1 freed, and
  // finish at 3 ms together with flow 2.
  ASSERT_EQ(net.start_flow(0, 0, 1, 20000.0), 0);
  ASSERT_EQ(net.start_flow(0, 2, 3, 20000.0), 1);
  ASSERT_EQ(net.start_flow(0, 4, 5, 60000.0), 2);
  EXPECT_EQ(net.advance_to(util::from_ms(1)), (std::vector<FlowId>{0, 1}));
  ASSERT_EQ(net.start_flow(util::from_ms(1), 0, 1, 40000.0), 3);
  ASSERT_EQ(net.start_flow(util::from_ms(1), 2, 3, 40000.0), 4);
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(3));
  EXPECT_EQ(net.advance_to(*t), (std::vector<FlowId>{2, 3, 4}));
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(FluidTest, ZeroByteFlowCompletesImmediately) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  net.start_flow(from_us(5), 0, 1, 0.0);
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, from_us(5));
  EXPECT_EQ(net.advance_to(*t).size(), 1u);
}

TEST(FluidTest, IdleNetworkHasNoEvents) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  EXPECT_FALSE(net.next_event().has_value());
}

TEST(FluidTest, TimeMustNotGoBackwards) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  net.start_flow(from_us(10), 0, 1, 100.0);
  EXPECT_THROW(net.start_flow(from_us(5), 2, 3, 100.0), util::CheckError);
  EXPECT_THROW(net.advance_to(from_us(5)), util::CheckError);
}

TEST(FluidTest, SelfFlowRejected) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  EXPECT_THROW(net.start_flow(0, 3, 3, 100.0), util::CheckError);
}

TEST(FluidTest, StatsAccumulateByLevel) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  net.start_flow(0, 0, 1, 1000.0);    // node links only
  net.start_flow(0, 0, 31, 1000.0);   // crosses levels 1 and 2
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  net.advance_to(*t);
  while (net.active_flows() > 0) {
    const auto e = net.next_event();
    ASSERT_TRUE(e.has_value());
    net.advance_to(*e);
  }
  const NetworkStats& s = net.stats();
  EXPECT_EQ(s.flows_started, 2);
  EXPECT_EQ(s.flows_completed, 2);
  // Level 0: each flow crosses inject+eject = 2000 B per flow.
  EXPECT_DOUBLE_EQ(s.bytes_by_level[0], 4000.0);
  // Level 1: only the cross-root flow, up+down = 2000 B.
  EXPECT_DOUBLE_EQ(s.bytes_by_level[1], 2000.0);
  EXPECT_DOUBLE_EQ(s.bytes_by_level[2], 2000.0);
}

TEST(FluidTest, StalledLinkAccruesNoBusyTime) {
  // Regression: a link driven to capacity scale 0 used to divide by its
  // zero capacity in the busy-time integral, polluting link_busy_seconds
  // with NaN/inf. A stalled link carries no fluid, so it must accrue
  // exactly nothing while stalled — and the flow must resume cleanly when
  // the link is restored.
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  const LinkId inject = topo.inject_link(0);
  net.start_flow(0, 0, 1, 20000.0);  // 1 ms at 20 MB/s when healthy
  // Stall the flow's inject link at t=0; let 1 ms of stalled time pass.
  net.set_link_capacity_scale(0, inject, 0.0);
  EXPECT_FALSE(net.next_event().has_value());  // blocked, no completion
  EXPECT_TRUE(net.advance_to(util::from_ms(1)).empty());
  const double busy_stalled =
      net.stats().link_busy_seconds[static_cast<std::size_t>(inject)];
  EXPECT_EQ(busy_stalled, 0.0);  // also catches NaN
  // Restore: the flow finishes 1 ms later, and the busy integral resumes.
  net.set_link_capacity_scale(util::from_ms(1), inject, 1.0);
  const auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(2));
  EXPECT_EQ(net.advance_to(*t).size(), 1u);
  const double busy =
      net.stats().link_busy_seconds[static_cast<std::size_t>(inject)];
  EXPECT_NEAR(busy, 1e-3, 1e-12);  // 1 ms at full load, none while stalled
}

TEST(FluidTest, DegradedLinkSlowsAndRestores) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  net.start_flow(0, 0, 1, 20000.0);
  // Halve the inject link: 10 MB/s -> projected completion moves to 2 ms.
  net.set_link_capacity_scale(0, topo.inject_link(0), 0.5);
  auto t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_ms(2));
  // Restore at 1 ms (10000 bytes left): the next event must follow the
  // restored rate to 1 ms + 10000 B / 20 MB/s = 1.5 ms, not the stale 2 ms.
  net.advance_to(util::from_ms(1));
  net.set_link_capacity_scale(util::from_ms(1), topo.inject_link(0), 1.0);
  t = net.next_event();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, util::from_us(1500));
  EXPECT_EQ(net.advance_to(*t).size(), 1u);
}

TEST(FluidTest, OracleModeMatchesIncrementalExactly) {
  // The kOracle whole-network solver and the default incremental solver
  // must agree bit-for-bit on a contended scenario with a mid-run fault.
  auto drive = [](FluidNetwork::SolverMode mode) {
    FatTreeTopology topo(FatTreeConfig::cm5(32));
    FluidNetwork net(topo);
    net.set_solver_mode(mode);
    for (NodeId n = 0; n < 16; ++n) {
      net.start_flow(0, n, static_cast<NodeId>(n + 16), 5000.0);
    }
    net.set_link_capacity_scale(from_us(100), net.topology().up_link(1, 0),
                                0.25);
    std::vector<SimTime> completions;
    while (const auto t = net.next_event()) {
      for (const FlowId id : net.advance_to(*t)) {
        (void)id;
        completions.push_back(*t);
      }
    }
    return completions;
  };
  const auto inc = drive(FluidNetwork::SolverMode::kIncremental);
  const auto ora = drive(FluidNetwork::SolverMode::kOracle);
  EXPECT_EQ(inc, ora);
}

TEST(FluidTest, SolverModeSwitchRequiresIdleNetwork) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  net.start_flow(0, 0, 1, 100.0);
  EXPECT_THROW(net.set_solver_mode(FluidNetwork::SolverMode::kOracle),
               util::CheckError);
  while (const auto t = net.next_event()) net.advance_to(*t);
  net.set_solver_mode(FluidNetwork::SolverMode::kOracle);
  EXPECT_EQ(net.solver_mode(), FluidNetwork::SolverMode::kOracle);
}

TEST(FluidTest, FlowRateReflectsSharing) {
  FatTreeTopology topo(FatTreeConfig::cm5(32));
  FluidNetwork net(topo);
  const FlowId a = net.start_flow(0, 0, 1, 20000.0);
  EXPECT_DOUBLE_EQ(net.flow_rate(a), 20e6);
  const FlowId b = net.start_flow(0, 2, 1, 20000.0);
  EXPECT_DOUBLE_EQ(net.flow_rate(a), 10e6);  // shares node 1's eject link
  EXPECT_DOUBLE_EQ(net.flow_rate(b), 10e6);
}

TEST(FluidTest, ManyFlowsConservation) {
  // Total bytes delivered equals total bytes injected on a busy network.
  FatTreeTopology topo(FatTreeConfig::cm5(64));
  FluidNetwork net(topo);
  double injected = 0.0;
  for (NodeId n = 0; n < 64; ++n) {
    const NodeId dst = static_cast<NodeId>((n + 17) % 64);
    const double bytes = 100.0 * (n + 1);
    net.start_flow(0, n, dst, bytes);
    injected += bytes;
  }
  std::size_t completed = 0;
  while (const auto t = net.next_event()) {
    completed += net.advance_to(*t).size();
  }
  EXPECT_EQ(completed, 64u);
  EXPECT_EQ(net.stats().flows_completed, 64);
  EXPECT_DOUBLE_EQ(net.stats().bytes_by_level[0], 2.0 * injected);
}

}  // namespace
}  // namespace cm5::net
