#include "cm5/sim/fault.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "cm5/net/topology.hpp"
#include "cm5/sim/kernel.hpp"
#include "cm5/sim/trace.hpp"
#include "cm5/util/time.hpp"

namespace cm5::sim {
namespace {

using util::from_us;
using util::SimTime;

net::FatTreeTopology make_topo(std::int32_t n) {
  return net::FatTreeTopology(net::FatTreeConfig::cm5(n));
}

// ---------------------------------------------------------------------------
// FaultPlan unit behaviour
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, DecideIsPureAndRespectsExemptions) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_prob = 0.5;
  plan.corrupt_prob = 0.5;
  plan.min_fault_bytes = 100;
  plan.control_tag_floor = 1000;

  const FaultDecision a = plan.decide(7, 200, 3);
  const FaultDecision b = plan.decide(7, 200, 3);
  EXPECT_EQ(a.drop, b.drop);
  EXPECT_EQ(a.corrupt, b.corrupt);
  EXPECT_EQ(a.extra_delay, b.extra_delay);
  // A dropped message is never also corrupted.
  EXPECT_FALSE(a.drop && a.corrupt);

  // Small messages and control tags are exempt.
  for (std::int64_t seq = 0; seq < 64; ++seq) {
    const FaultDecision small = plan.decide(seq, 99, 3);
    EXPECT_FALSE(small.drop || small.corrupt || small.extra_delay > 0);
    const FaultDecision control = plan.decide(seq, 200, 1000);
    EXPECT_FALSE(control.drop || control.corrupt || control.extra_delay > 0);
  }

  // With probability 0.5 and many sequence numbers, both outcomes occur.
  int drops = 0;
  for (std::int64_t seq = 0; seq < 256; ++seq) {
    if (plan.decide(seq, 200, 3).drop) ++drops;
  }
  EXPECT_GT(drops, 64);
  EXPECT_LT(drops, 192);
}

TEST(FaultPlanTest, ValidateRejectsBadPlans) {
  FaultPlan plan;
  plan.drop_prob = 1.5;
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan = {};
  plan.deaths.push_back({9, from_us(1)});
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan = {};
  plan.degrades.push_back({0, from_us(1), -0.5});
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan = {};
  plan.targeted_drops.push_back({0, 0, 0});  // self-loop
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan = {};
  plan.drop_prob = 0.3;
  EXPECT_NO_THROW(plan.validate(4));
}

TEST(FaultPlanTest, ValidateRejectsBadCorrelatedFaults) {
  FaultPlan plan;
  plan.burst.p_enter = 1.5;
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan = {};
  plan.burst.loss_bad = -0.1;
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan = {};
  plan.partitions.push_back({0, 0, 0, from_us(1)});  // level < 1
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan = {};
  plan.partitions.push_back({1, 0, from_us(5), from_us(1)});  // end < start
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan = {};
  plan.flaps.push_back({0, 0, 0, 0.5, 0});  // period <= 0
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan = {};
  plan.flaps.push_back({7, 0, from_us(10), 0.5, 0});  // node out of range
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan = {};
  plan.slowdowns.push_back({0, 0, util::kTimeNever, 0.5});  // speeds it up
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan = {};
  plan.slowdowns.push_back({0, from_us(5), from_us(1), 2.0});  // end < start
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan = {};
  plan.burst = {0.05, 0.3, 0.0, 0.9};
  plan.partitions.push_back({1, 0, 0, from_us(100)});
  plan.flaps.push_back({1, 0, from_us(10), 0.5, 3});
  plan.slowdowns.push_back({2, 0, util::kTimeNever, 4.0});
  EXPECT_NO_THROW(plan.validate(4));
}

TEST(FaultPlanTest, KernelRejectsPartitionOutsideTopology) {
  // 16 nodes at arity 4 -> 2 switch levels; only level-1 cuts have a
  // parent link to sever, and only subtrees 0..3 exist.
  auto topo = make_topo(16);
  ASSERT_EQ(topo.levels(), 2);
  {
    Kernel kernel(topo);
    FaultPlan plan;
    plan.partitions.push_back({2, 0, 0, from_us(1)});
    EXPECT_THROW(kernel.set_fault_plan(plan), std::invalid_argument);
  }
  {
    Kernel kernel(topo);
    FaultPlan plan;
    plan.partitions.push_back({1, 4, 0, from_us(1)});  // 4 * 4 >= 16
    EXPECT_THROW(kernel.set_fault_plan(plan), std::invalid_argument);
  }
  {
    Kernel kernel(topo);
    FaultPlan plan;
    plan.partitions.push_back({1, 3, 0, from_us(1)});
    EXPECT_NO_THROW(kernel.set_fault_plan(plan));
  }
}

TEST(FaultPlanTest, BurstChainIsDeterministicAndBursty) {
  FaultPlan plan;
  plan.seed = 77;
  plan.burst.p_enter = 0.05;
  plan.burst.p_exit = 0.3;
  plan.burst.loss_bad = 1.0;  // loss_good stays 0: drops only in bursts

  auto roll = [&](net::NodeId src) {
    std::vector<bool> drops;
    bool in_bad = false;
    for (std::int64_t nth = 0; nth < 4096; ++nth) {
      drops.push_back(plan.burst_step(src, nth, in_bad));
    }
    return drops;
  };
  const std::vector<bool> a = roll(0);
  EXPECT_EQ(a, roll(0));   // pure function of (plan, src, ordinal)
  EXPECT_NE(a, roll(1));   // each source carries an independent chain

  // Burstiness: the stationary bad-state fraction is p_enter /
  // (p_enter + p_exit) ~ 0.14, but after a drop the chain stays bad
  // with probability 1 - p_exit = 0.7 and drops again for sure. The
  // conditional drop-after-drop rate must dwarf the marginal rate.
  int drops = 0, follow_ups = 0, repeat_drops = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i]) ++drops;
    if (i > 0 && a[i - 1]) {
      ++follow_ups;
      if (a[i]) ++repeat_drops;
    }
  }
  ASSERT_GT(drops, 100);      // the process actually fires
  EXPECT_LT(drops, 4096 / 2); // ... but is not a constant drop
  const double marginal = static_cast<double>(drops) / 4096.0;
  const double conditional =
      static_cast<double>(repeat_drops) / static_cast<double>(follow_ups);
  EXPECT_GT(conditional, 2.0 * marginal);
}

TEST(FaultPlanTest, PartitionBlocksOnlyCrossTrafficInWindow) {
  FaultPlan plan;
  plan.partitions.push_back({1, 0, from_us(10), from_us(20)});
  const std::int32_t arity = 4;  // level-1 subtree 0 = nodes 0..3
  EXPECT_TRUE(plan.partition_blocks(0, 5, from_us(10), arity));
  EXPECT_TRUE(plan.partition_blocks(5, 0, from_us(15), arity));   // symmetric
  EXPECT_FALSE(plan.partition_blocks(0, 3, from_us(15), arity));  // inside
  EXPECT_FALSE(plan.partition_blocks(5, 9, from_us(15), arity));  // outside
  EXPECT_FALSE(plan.partition_blocks(0, 5, from_us(9), arity));   // early
  EXPECT_FALSE(plan.partition_blocks(0, 5, from_us(20), arity));  // healed
}

TEST(FaultPlanTest, FlapFollowsDutyCycleForConfiguredCycles) {
  FaultPlan plan;
  // Node 2: from 100 us, 100 us period, down for the first half, twice.
  plan.flaps.push_back({2, from_us(100), from_us(100), 0.5, 2});
  EXPECT_FALSE(plan.flap_blocks(2, 0, from_us(50)));    // before start
  EXPECT_TRUE(plan.flap_blocks(2, 0, from_us(100)));    // cycle 1 down
  EXPECT_TRUE(plan.flap_blocks(0, 2, from_us(149)));    // either endpoint
  EXPECT_FALSE(plan.flap_blocks(2, 0, from_us(150)));   // cycle 1 up
  EXPECT_TRUE(plan.flap_blocks(2, 0, from_us(210)));    // cycle 2 down
  EXPECT_FALSE(plan.flap_blocks(2, 0, from_us(275)));   // cycle 2 up
  EXPECT_FALSE(plan.flap_blocks(2, 0, from_us(310)));   // flapping over
  EXPECT_FALSE(plan.flap_blocks(0, 1, from_us(120)));   // unrelated pair
}

// ---------------------------------------------------------------------------
// Timed waits (no faults involved)
// ---------------------------------------------------------------------------

TEST(TimedWaitTest, ReceiveTimeoutExpiresAtExactDeadline) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) {
    if (h.id() == 1) {
      const auto m = h.post_receive_timeout(0, 5, from_us(30));
      EXPECT_FALSE(m.has_value());
      EXPECT_EQ(h.now(), from_us(30));  // resumes exactly at the deadline
    }
  });
  EXPECT_EQ(r.finish_time[1], from_us(30));
}

TEST(TimedWaitTest, ReceiveTimeoutDeliversWhenMessageArrivesInTime) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send(1, 5, 64, 2000, 0, {});
    } else if (h.id() == 1) {
      const auto m = h.post_receive_timeout(0, 5, from_us(500));
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->src, 0);
      EXPECT_EQ(m->size, 64);
      EXPECT_EQ(h.now(), from_us(100));  // 2000 B at 20 MB/s
    }
  });
}

TEST(TimedWaitTest, ReceiveAfterTimeoutStillMatchesTheMessage) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.advance(from_us(50));  // sender shows up after the deadline
      h.post_send(1, 5, 64, 2000, 0, {});
    } else if (h.id() == 1) {
      EXPECT_FALSE(h.post_receive_timeout(0, 5, from_us(10)).has_value());
      const Message m = h.post_receive(0, 5);  // second attempt succeeds
      EXPECT_EQ(m.size, 64);
    }
  });
}

// (time, node) of every WaitTimeout, in trace order.
std::vector<std::pair<SimTime, NodeId>> wait_timeouts(
    const TraceRecorder& rec) {
  std::vector<std::pair<SimTime, NodeId>> out;
  for (const TraceEvent& e : rec.events()) {
    if (e.kind == TraceEvent::Kind::WaitTimeout) {
      out.emplace_back(e.time, e.node);
    }
  }
  return out;
}

TEST(TimedWaitTest, HealthyTransferInFlightAtDeadlineDeliversAfterIt) {
  // The receive matches at 0 and the 2000 B transfer takes 100 us, so it
  // is still on the wire at the 40 us deadline. A healthy transfer has
  // committed the delivery: no timeout, the node resumes at 100 us.
  auto topo = make_topo(4);
  Kernel kernel(topo);
  TraceRecorder rec;
  kernel.set_trace(rec.sink());
  const RunResult r = kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send(1, 5, 64, 2000, 0, {});
    } else if (h.id() == 1) {
      const auto m = h.post_receive_timeout(0, 5, from_us(40));
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->size, 64);
      EXPECT_EQ(h.now(), from_us(100));
    }
  });
  EXPECT_TRUE(wait_timeouts(rec).empty());
  EXPECT_EQ(r.finish_time[1], from_us(100));
}

TEST(TimedWaitTest, TryBarrierSucceedsWhenAllArrive) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) {
    h.advance(from_us(10 * h.id()));
    EXPECT_TRUE(h.try_barrier(from_us(100), from_us(4)));
  });
  // All release together: max arrival 30 us + 4 us duration.
  for (SimTime t : r.finish_time) EXPECT_EQ(t, from_us(34));
}

TEST(TimedWaitTest, TryBarrierTimesOutOnStragglerThenSucceedsOnRetry) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  std::vector<int> false_returns(4, 0);
  kernel.run([&](NodeHandle& h) {
    if (h.id() == 0) h.advance(from_us(1000));  // straggler
    while (!h.try_barrier(from_us(100), from_us(4))) {
      ++false_returns[static_cast<std::size_t>(h.id())];
    }
  });
  EXPECT_EQ(false_returns[0], 0);  // straggler never times out
  for (std::size_t i = 1; i < 4; ++i) EXPECT_GT(false_returns[i], 0);
}

// ---------------------------------------------------------------------------
// Drops
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, TargetedDropLosesExactlyThatMessage) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  FaultPlan plan;
  plan.targeted_drops.push_back({0, 1, 0});  // first 0->1 transfer
  kernel.set_fault_plan(plan);

  TraceRecorder rec;
  kernel.set_trace(rec.sink());
  kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send(1, 5, 64, 2000, 0, {});  // dropped in flight
      h.post_send(1, 5, 65, 2000, 0, {});  // delivered
    } else if (h.id() == 1) {
      // The timed receive survives the dropped first copy and matches
      // the second send.
      const auto m = h.post_receive_timeout(0, 5, from_us(10000));
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->size, 65);
    }
  });
  EXPECT_EQ(rec.count(TraceEvent::Kind::FaultDrop), 1);
}

TEST(FaultInjectionTest, DroppedMessageTimesOutTheReceiver) {
  // The doomed transfer is still on the wire (until 100 us) when the
  // 40 us deadline passes: the receiver times out exactly then, and the
  // drop itself lands later without waking anyone.
  auto topo = make_topo(4);
  Kernel kernel(topo);
  FaultPlan plan;
  plan.targeted_drops.push_back({0, 1, 0});
  kernel.set_fault_plan(plan);
  TraceRecorder rec;
  kernel.set_trace(rec.sink());

  const RunResult r = kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send(1, 5, 64, 2000, 0, {});  // sender completes regardless
    } else if (h.id() == 1) {
      EXPECT_FALSE(h.post_receive_timeout(0, 5, from_us(40)).has_value());
    }
  });
  EXPECT_EQ(r.finish_time[1], from_us(40));
  const std::vector<std::pair<SimTime, NodeId>> expected{{from_us(40), 1}};
  EXPECT_EQ(wait_timeouts(rec), expected);
  EXPECT_EQ(rec.count(TraceEvent::Kind::FaultDrop), 1);
}

TEST(FaultInjectionTest, SuccessiveTimedReceivesEachExpireOnTheirOwnDrop) {
  // Two async sends queue at node 1. The first timed receive consumes
  // the first copy (dropped, on the wire until 160 us) and times out at
  // 40 us. The second consumes the second copy (also dropped, on the wire
  // until 200 us) and times out at its own deadline, 180 us: the first
  // copy's drop landing at 160 us must not wake it.
  auto topo = make_topo(4);
  Kernel kernel(topo);
  FaultPlan plan;
  plan.targeted_drops.push_back({0, 1, 0});
  plan.targeted_drops.push_back({0, 1, 1});
  kernel.set_fault_plan(plan);
  TraceRecorder rec;
  kernel.set_trace(rec.sink());
  kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send_async(1, 5, 64, 2000, 0, {});
      h.post_send_async(1, 5, 65, 2000, 0, {});
    } else if (h.id() == 1) {
      EXPECT_FALSE(h.post_receive_timeout(0, 5, from_us(40)).has_value());
      EXPECT_EQ(h.now(), from_us(40));
      EXPECT_FALSE(h.post_receive_timeout(0, 5, from_us(140)).has_value());
      EXPECT_EQ(h.now(), from_us(180));
    }
  });
  const std::vector<std::pair<SimTime, NodeId>> expected{{from_us(40), 1},
                                                         {from_us(180), 1}};
  EXPECT_EQ(wait_timeouts(rec), expected);
  EXPECT_EQ(rec.count(TraceEvent::Kind::FaultDrop), 2);
}

TEST(FaultInjectionTest, DropReArmOntoQueuedSendKeepsTheOriginalDeadline) {
  // The first copy is dropped at 100 us and the receive re-arms onto the
  // queued second copy, which would land at 200 us. The 150 us deadline
  // set at the original post still governs: a dropped second copy times
  // the receiver out at 150 us, a healthy one delivers at 200 us.
  for (const bool drop_second : {true, false}) {
    SCOPED_TRACE(drop_second ? "second copy dropped" : "second copy healthy");
    auto topo = make_topo(4);
    Kernel kernel(topo);
    FaultPlan plan;
    plan.targeted_drops.push_back({0, 1, 0});
    if (drop_second) plan.targeted_drops.push_back({0, 1, 1});
    kernel.set_fault_plan(plan);
    TraceRecorder rec;
    kernel.set_trace(rec.sink());
    kernel.run([&](NodeHandle& h) {
      if (h.id() == 0) {
        h.post_send_async(1, 5, 64, 2000, 0, {});
        h.advance(from_us(10));  // queued before the first copy lands
        h.post_send_async(1, 5, 65, 2000, 0, {});
      } else if (h.id() == 1) {
        const auto m = h.post_receive_timeout(0, 5, from_us(150));
        EXPECT_EQ(m.has_value(), !drop_second);
        if (m) {
          EXPECT_EQ(m->size, 65);
        }
        EXPECT_EQ(h.now(), from_us(drop_second ? 150 : 200));
      }
    });
    std::vector<std::pair<SimTime, NodeId>> expected;
    if (drop_second) expected.emplace_back(from_us(150), 1);
    EXPECT_EQ(wait_timeouts(rec), expected);
  }
}

// ---------------------------------------------------------------------------
// Corruption / delay / degradation
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, CorruptionSetsFlagAndFlipsPayloadByte) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  FaultPlan plan;
  plan.corrupt_prob = 1.0;
  kernel.set_fault_plan(plan);

  kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send(1, 5, 4, 20, 0,
                  {std::byte{0xAA}, std::byte{0xBB}, std::byte{0xCC},
                   std::byte{0xDD}});
    } else if (h.id() == 1) {
      const Message m = h.post_receive(0, 5);
      EXPECT_TRUE(m.corrupted);
      EXPECT_EQ(m.data[0], std::byte{0xAB});  // low bit flipped
      EXPECT_EQ(m.data[1], std::byte{0xBB});  // rest intact
    }
  });
}

TEST(FaultInjectionTest, DelayFaultAddsExactLatency) {
  auto run_once = [](bool with_delay) {
    auto topo = make_topo(4);
    Kernel kernel(topo);
    if (with_delay) {
      FaultPlan plan;
      plan.delay_prob = 1.0;
      plan.delay = from_us(50);
      kernel.set_fault_plan(plan);
    }
    return kernel
        .run([](NodeHandle& h) {
          if (h.id() == 0) {
            h.post_send(1, 5, 64, 2000, from_us(5), {});
          } else if (h.id() == 1) {
            (void)h.post_receive(0, 5);
          }
        })
        .makespan;
  };
  EXPECT_EQ(run_once(true), run_once(false) + from_us(50));
}

TEST(FaultInjectionTest, DegradeHalvesInjectBandwidth) {
  auto run_once = [](double factor) {
    auto topo = make_topo(4);
    Kernel kernel(topo);
    FaultPlan plan;
    plan.degrades.push_back({0, 0, factor});
    kernel.set_fault_plan(plan);
    return kernel
        .run([](NodeHandle& h) {
          if (h.id() == 0) {
            h.post_send(1, 5, 64, 2000, 0, {});
          } else if (h.id() == 1) {
            (void)h.post_receive(0, 5);
          }
        })
        .makespan;
  };
  // 2000 B at 20 MB/s = 100 us healthy; half capacity doubles it.
  EXPECT_EQ(run_once(1.0), from_us(100));
  EXPECT_EQ(run_once(0.5), from_us(200));
}

// ---------------------------------------------------------------------------
// Fail-stop
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, KilledNodeStopsAndPeersObserveFailure) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  FaultPlan plan;
  plan.deaths.push_back({1, from_us(10)});
  kernel.set_fault_plan(plan);

  TraceRecorder rec;
  kernel.set_trace(rec.sink());
  bool node1_survived_past_death = false;
  const RunResult r = kernel.run([&](NodeHandle& h) {
    if (h.id() == 1) {
      h.advance(from_us(100));  // killed at 10 us, mid-compute
      node1_survived_past_death = true;
    } else if (h.id() == 0) {
      h.advance(from_us(20));
      // Blocking send to a dead node fails immediately.
      EXPECT_THROW(h.post_send(1, 5, 64, 2000, 0, {}), PeerFailedError);
      // Untimed receive from a dead node fails too.
      EXPECT_THROW((void)h.post_receive(1, 5), PeerFailedError);
      // A timed receive reports death as an ordinary timeout.
      EXPECT_FALSE(h.post_receive_timeout(1, 5, from_us(30)).has_value());
      // Swaps with a dead peer fail.
      EXPECT_THROW((void)h.post_swap(1, 5, 64, 2000, 0, {}), PeerFailedError);
    }
  });
  EXPECT_FALSE(node1_survived_past_death);
  EXPECT_EQ(rec.count(TraceEvent::Kind::FaultKill), 1);
  // Direct execution charges compute eagerly, so the kill lands at the
  // node's next kernel interaction — after the whole advance().
  EXPECT_EQ(r.finish_time[1], from_us(100));
}

TEST(FaultInjectionTest, DeathReleasesBlockedPeersAndGlobalOps) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  FaultPlan plan;
  plan.deaths.push_back({2, from_us(50)});
  kernel.set_fault_plan(plan);

  const RunResult r = kernel.run([](NodeHandle& h) {
    if (h.id() == 2) {
      h.advance(from_us(1000));  // dies at 50 us instead
      return;
    }
    if (h.id() == 0) {
      // Already blocked sending to node 2 when it dies.
      EXPECT_THROW(h.post_send(2, 5, 64, 2000, 0, {}), PeerFailedError);
    }
    // Survivors complete a global op without the dead node.
    (void)h.global_op({}, from_us(4));
  });
  // The global op completes among the three survivors after the death.
  for (NodeId n : {0, 1, 3}) {
    EXPECT_GE(r.finish_time[static_cast<std::size_t>(n)], from_us(50));
    EXPECT_LT(r.finish_time[static_cast<std::size_t>(n)], from_us(1000));
  }
}

TEST(FaultInjectionTest, AsyncSendToDeadNodeIsDroppedSilently) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  FaultPlan plan;
  plan.deaths.push_back({1, from_us(1)});
  kernel.set_fault_plan(plan);

  TraceRecorder rec;
  kernel.set_trace(rec.sink());
  kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.advance(from_us(10));
      h.post_send_async(1, 5, 64, 2000, 0, {});
      h.wait_async_sends();  // must not hang on the dropped send
    } else if (h.id() == 1) {
      h.advance(from_us(100));
    }
  });
  EXPECT_EQ(rec.count(TraceEvent::Kind::FaultDrop), 1);
}

SimTime first_drop_time(const TraceRecorder& rec) {
  for (const TraceEvent& e : rec.events()) {
    if (e.kind == TraceEvent::Kind::FaultDrop) return e.time;
  }
  return -1;
}

TEST(FaultInjectionTest, DroppedAsyncSendDrainsTheSenderAtTheDrop) {
  // The async copy is dropped when it lands (100 us); that completion,
  // not a delivery, is what releases the sender's wait_async_sends.
  auto topo = make_topo(4);
  Kernel kernel(topo);
  FaultPlan plan;
  plan.targeted_drops.push_back({0, 1, 0});
  kernel.set_fault_plan(plan);
  TraceRecorder rec;
  kernel.set_trace(rec.sink());
  SimTime drained_at = -1;
  kernel.run([&](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send_async(1, 5, 64, 2000, 0, {});
      h.wait_async_sends();
      drained_at = h.now();
    } else if (h.id() == 1) {
      EXPECT_FALSE(h.post_receive_timeout(0, 5, from_us(150)).has_value());
    }
  });
  EXPECT_EQ(rec.count(TraceEvent::Kind::FaultDrop), 1);
  EXPECT_EQ(drained_at, first_drop_time(rec));
  EXPECT_EQ(drained_at, from_us(100));
}

TEST(FaultInjectionTest, AsyncSendQueuedAtDyingReceiverDrainsAtTheDeath) {
  // Node 1 never posts a receive: the async send sits in its queue until
  // node 1 dies at 50 us, which loses the send and releases the sender.
  auto topo = make_topo(4);
  Kernel kernel(topo);
  FaultPlan plan;
  plan.deaths.push_back({1, from_us(50)});
  kernel.set_fault_plan(plan);
  TraceRecorder rec;
  kernel.set_trace(rec.sink());
  SimTime drained_at = -1;
  kernel.run([&](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send_async(1, 5, 64, 2000, 0, {});
      h.wait_async_sends();
      drained_at = h.now();
    } else if (h.id() == 1) {
      h.advance(from_us(1000));  // dies at 50 us instead
    }
  });
  EXPECT_EQ(rec.count(TraceEvent::Kind::FaultDrop), 1);
  EXPECT_EQ(drained_at, from_us(50));
}

TEST(FaultInjectionTest, WildcardReceiveReArmsOntoAnotherSourcesQueuedSend) {
  // Node 1's wildcard receive matches node 0's copy, which is dropped at
  // 100 us. Meanwhile node 2's send (posted at 10 us) queued at node 1;
  // the re-armed receive, still (ANY, ANY), takes it at 100 us and it
  // lands at 200 us.
  auto topo = make_topo(4);
  Kernel kernel(topo);
  FaultPlan plan;
  plan.targeted_drops.push_back({0, 1, 0});
  kernel.set_fault_plan(plan);
  TraceRecorder rec;
  kernel.set_trace(rec.sink());
  kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send(1, 5, 64, 2000, 0, {});  // dropped in flight
    } else if (h.id() == 1) {
      const auto m = h.post_receive_timeout(kAnyNode, kAnyTag, from_us(1000));
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->src, 2);
      EXPECT_EQ(m->tag, 7);
      EXPECT_EQ(m->size, 65);
      EXPECT_EQ(h.now(), from_us(200));
    } else if (h.id() == 2) {
      h.advance(from_us(10));
      h.post_send(1, 7, 65, 2000, 0, {});
    }
  });
  EXPECT_EQ(rec.count(TraceEvent::Kind::FaultDrop), 1);
  EXPECT_TRUE(wait_timeouts(rec).empty());
}

// ---------------------------------------------------------------------------
// Correlated faults in the kernel
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, BurstLossDecidesInCurrentStateThenTransitions) {
  // A degenerate chain (enter for sure, never exit, lose everything in
  // the bad state) pins the semantics: the first eligible message from a
  // source is decided in the good state and delivered, the transition
  // then applies, and every later message from that source is dropped.
  auto topo = make_topo(4);
  Kernel kernel(topo);
  FaultPlan plan;
  plan.burst = {1.0, 0.0, 0.0, 1.0};
  kernel.set_fault_plan(plan);

  TraceRecorder rec;
  kernel.set_trace(rec.sink());
  kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      for (int i = 0; i < 4; ++i) h.post_send(1, i, 64, 2000, 0, {});
    } else if (h.id() == 1) {
      ASSERT_TRUE(h.post_receive_timeout(0, 0, from_us(500)).has_value());
      for (int i = 1; i < 4; ++i) {
        EXPECT_FALSE(h.post_receive_timeout(0, i, from_us(500)).has_value());
      }
    }
  });
  EXPECT_EQ(rec.count(TraceEvent::Kind::FaultDrop), 3);
}

TEST(FaultInjectionTest, PartitionDropsCrossSubtreeTrafficAndHeals) {
  // Cut subtree 0 (nodes 0..3) off for the first 500 us. Within-subtree
  // traffic and the control network keep working; cross-subtree traffic
  // resumes once the partition heals.
  auto topo = make_topo(16);
  Kernel kernel(topo);
  FaultPlan plan;
  plan.partitions.push_back({1, 0, 0, from_us(500)});
  kernel.set_fault_plan(plan);

  TraceRecorder rec;
  kernel.set_trace(rec.sink());
  kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send(1, 5, 64, 2000, 0, {});  // within the cut subtree
      h.post_send(4, 6, 64, 2000, 0, {});  // crosses the cut: dropped
      h.advance(from_us(600));             // wait out the partition
      h.post_send(4, 7, 64, 2000, 0, {});  // healed: delivered
    } else if (h.id() == 1) {
      ASSERT_TRUE(h.post_receive_timeout(0, 5, from_us(400)).has_value());
    } else if (h.id() == 4) {
      EXPECT_FALSE(h.post_receive_timeout(0, 6, from_us(400)).has_value());
      const Message m = h.post_receive(0, 7);
      EXPECT_EQ(m.size, 64);
    }
    // The CM-5 control network is physically separate: global ops
    // complete across the cut (the run would hang here otherwise).
    (void)h.global_op({}, from_us(4));
  });
  EXPECT_EQ(rec.count(TraceEvent::Kind::FaultDrop), 1);
}

TEST(FaultInjectionTest, FlappingLinkDropsWhileDownDeliversWhileUp) {
  // Node 1's links are down for the first 200 us of each 400 us cycle.
  // A transfer entering the network during the down phase is dropped;
  // one entering during the up phase is delivered.
  auto topo = make_topo(4);
  Kernel kernel(topo);
  FaultPlan plan;
  plan.flaps.push_back({1, 0, from_us(400), 0.5, 0});
  kernel.set_fault_plan(plan);

  TraceRecorder rec;
  kernel.set_trace(rec.sink());
  kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.advance(from_us(100));  // down phase
      h.post_send(1, 5, 64, 2000, 0, {});
      h.advance(from_us(150));  // now ~250 us: up phase
      h.post_send(1, 6, 64, 2000, 0, {});
    } else if (h.id() == 1) {
      EXPECT_FALSE(h.post_receive_timeout(0, 5, from_us(200)).has_value());
      ASSERT_TRUE(h.post_receive_timeout(0, 6, from_us(500)).has_value());
    }
  });
  EXPECT_EQ(rec.count(TraceEvent::Kind::FaultDrop), 1);
}

TEST(FaultInjectionTest, GraySlowdownScalesComputeAndHeals) {
  // Node 0 parks in a receive until node 1 shows up at 200 us — so the
  // slow window's start/end fire from the event loop while it waits —
  // then charges 50 us of compute.
  auto run_once = [](std::vector<FaultPlan::NodeSlowdown> slowdowns,
                     TraceRecorder* rec) {
    auto topo = make_topo(4);
    Kernel kernel(topo);
    FaultPlan plan;
    plan.slowdowns = std::move(slowdowns);
    kernel.set_fault_plan(plan);
    if (rec != nullptr) kernel.set_trace(rec->sink());
    return kernel
        .run([](NodeHandle& h) {
          if (h.id() == 1) {
            h.advance(from_us(200));
            h.post_send(0, 5, 64, 2000, 0, {});
          } else if (h.id() == 0) {
            (void)h.post_receive(1, 5);
            h.advance(from_us(50));
          }
        })
        .finish_time[0];
  };
  const SimTime healthy = run_once({}, nullptr);

  // Slowed for good: the 50 us compute phase doubles.
  TraceRecorder slow_rec;
  EXPECT_EQ(run_once({{0, 0, util::kTimeNever, 2.0}}, &slow_rec),
            healthy + from_us(50));
  EXPECT_EQ(slow_rec.count(TraceEvent::Kind::FaultSlow), 1);

  // Healed at 100 us, before the compute phase: timing is bit-identical
  // to the healthy run, and both the slow and heal edges were traced.
  TraceRecorder heal_rec;
  EXPECT_EQ(run_once({{0, 0, from_us(100), 2.0}}, &heal_rec), healthy);
  EXPECT_EQ(heal_rec.count(TraceEvent::Kind::FaultSlow), 2);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

std::vector<std::tuple<int, SimTime, NodeId, NodeId, std::int64_t, int>>
fault_events(const TraceRecorder& rec) {
  std::vector<std::tuple<int, SimTime, NodeId, NodeId, std::int64_t, int>> out;
  for (const TraceEvent& e : rec.events()) {
    if (e.kind >= TraceEvent::Kind::FaultDrop) {
      out.emplace_back(static_cast<int>(e.kind), e.time, e.node, e.peer,
                       e.bytes, e.tag);
    }
  }
  return out;
}

TEST(FaultInjectionTest, FixedSeedIsBitForBitReproducible) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.drop_prob = 0.1;
  plan.corrupt_prob = 0.1;
  plan.delay_prob = 0.2;
  plan.delay = from_us(13);
  plan.degrades.push_back({3, from_us(40), 0.5});
  plan.burst = {0.05, 0.3, 0.0, 0.8};
  plan.partitions.push_back({1, 0, from_us(100), from_us(200)});
  plan.flaps.push_back({2, from_us(50), from_us(100), 0.4, 0});
  plan.slowdowns.push_back({5, from_us(20), from_us(300), 2.0});

  auto run_once = [&](RunResult& result, TraceRecorder& rec) {
    auto topo = make_topo(8);
    Kernel kernel(topo);
    kernel.set_fault_plan(plan);
    kernel.set_trace(rec.sink());
    result = kernel.run([](NodeHandle& h) {
      // All-to-all ring with timed receives: every node sends to the next
      // and listens from the previous, retrying once on timeout.
      const NodeId next = (h.id() + 1) % h.nprocs();
      const NodeId prev = (h.id() + h.nprocs() - 1) % h.nprocs();
      for (int round = 0; round < 4; ++round) {
        h.post_send_async(next, round, 256, 300, from_us(2), {});
        if (!h.post_receive_timeout(prev, round, from_us(400))) {
          (void)h.post_receive_timeout(prev, round, from_us(400));
        }
      }
      (void)h.global_op({}, from_us(4));
    });
  };

  RunResult r1, r2;
  TraceRecorder t1, t2;
  run_once(r1, t1);
  run_once(r2, t2);

  ASSERT_EQ(r1.finish_time.size(), r2.finish_time.size());
  EXPECT_EQ(r1.finish_time, r2.finish_time);
  EXPECT_EQ(r1.makespan, r2.makespan);
  const auto f1 = fault_events(t1);
  const auto f2 = fault_events(t2);
  EXPECT_FALSE(f1.empty());  // the plan actually injected something
  EXPECT_EQ(f1, f2);
}

TEST(FaultInjectionTest, EmptyPlanLeavesTimingUnchanged) {
  auto run_once = [](bool with_empty_plan) {
    auto topo = make_topo(8);
    Kernel kernel(topo);
    if (with_empty_plan) kernel.set_fault_plan(FaultPlan{});
    return kernel
        .run([](NodeHandle& h) {
          const NodeId next = (h.id() + 1) % h.nprocs();
          const NodeId prev = (h.id() + h.nprocs() - 1) % h.nprocs();
          h.post_send_async(next, 0, 256, 300, from_us(2), {});
          (void)h.post_receive(prev, 0);
          (void)h.global_op({}, from_us(4));
        })
        .makespan;
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

}  // namespace
}  // namespace cm5::sim
