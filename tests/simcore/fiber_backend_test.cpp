#include "cm5/sim/exec_backend.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "cm5/net/topology.hpp"
#include "cm5/sim/kernel.hpp"
#include "cm5/util/time.hpp"

/// \file fiber_backend_test.cpp
/// Stress and edge-case tests for the fiber execution backend: partition
/// sizes far beyond what thread-per-node could launch comfortably, the
/// timed-wait primitives on fibers, failure unwinding and kernel reuse.

namespace cm5::sim {
namespace {

using util::from_us;

net::FatTreeTopology make_topo(std::int32_t n) {
  return net::FatTreeTopology(net::FatTreeConfig::cm5(n));
}

TEST(FiberBackendTest, ToStringNamesAreStable) {
  // benchmark/src records this string as its config.backend.
  EXPECT_STREQ(to_string(default_execution_model()), "fibers");
}

TEST(FiberBackendTest, FourThousandNodeBarrierAndRingSmoke) {
  // 4096 node programs on one OS thread: each computes, crosses two
  // barriers and runs one full ring exchange (odd/even phased so the
  // rendezvous sends cannot deadlock). Thread-per-node at this size
  // would need 4096 OS threads; fibers need 4096 mmap'd stacks.
  const std::int32_t n = 4096;
  auto topo = make_topo(n);
  Kernel kernel(topo);
  const RunResult r = kernel.run([n](NodeHandle& h) {
    h.advance(from_us(static_cast<std::int64_t>(h.id() % 7) + 1));
    h.global_op({}, from_us(4));
    const net::NodeId next = (h.id() + 1) % n;
    const net::NodeId prev = (h.id() + n - 1) % n;
    if (h.id() % 2 == 0) {
      h.post_send(next, 7, 64, 80, from_us(5), {});
      (void)h.post_receive(prev, 7);
    } else {
      (void)h.post_receive(prev, 7);
      h.post_send(next, 7, 64, 80, from_us(5), {});
    }
    h.global_op({}, from_us(4));
  });
  EXPECT_EQ(r.finish_time.size(), static_cast<std::size_t>(n));
  // Every node leaves the final barrier at the same instant.
  for (std::int32_t i = 1; i < n; ++i) {
    EXPECT_EQ(r.finish_time[static_cast<std::size_t>(i)], r.finish_time[0]);
  }
  EXPECT_EQ(r.node_counters[0].sends, 1);
  EXPECT_EQ(r.node_counters[0].receives, 1);
  EXPECT_GT(r.context_switches, static_cast<std::int64_t>(n));
}

TEST(FiberBackendTest, ReceiveTimeoutExpiresExactlyOnFibers) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      // Nothing ever arrives with this tag: resume exactly at deadline.
      EXPECT_FALSE(h.post_receive_timeout(1, 42, from_us(30)).has_value());
      EXPECT_EQ(h.now(), from_us(30));
      // A second timed receive that IS satisfied before its deadline.
      const auto msg = h.post_receive_timeout(kAnyNode, 7, from_us(1000));
      ASSERT_TRUE(msg.has_value());
      EXPECT_EQ(msg->src, 1);
    } else if (h.id() == 1) {
      h.advance(from_us(100));
      h.post_send(0, 7, 16, 20, from_us(5), {});
    }
  });
  EXPECT_GT(r.makespan, from_us(100));
}

TEST(FiberBackendTest, ZeroTimeoutReceiveExpiresImmediately) {
  auto topo = make_topo(2);
  Kernel kernel(topo);
  kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      EXPECT_FALSE(h.post_receive_timeout(1, 5, 0).has_value());
      EXPECT_EQ(h.now(), 0);
    }
  });
}

TEST(FiberBackendTest, TryBarrierTimesOutAndLaterSucceedsOnFibers) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      // Node 0 arrives alone: the timed barrier must expire at its
      // deadline and withdraw the arrival.
      EXPECT_FALSE(h.try_barrier(from_us(20), from_us(4)));
      EXPECT_EQ(h.now(), from_us(20));
    } else {
      h.advance(from_us(100));
    }
    // Everyone (including the withdrawn node) then completes a barrier.
    EXPECT_TRUE(h.try_barrier(from_us(1000), from_us(4)));
  });
}

TEST(FiberBackendTest, FailStopUnwindWorksOnFibers) {
  // A node death mid-run must unwind every fiber cleanly: the killed
  // node's next kernel call throws, rendezvous peers get PeerFailedError,
  // survivors complete their barrier without the dead node.
  auto topo = make_topo(4);
  Kernel kernel(topo);
  FaultPlan plan;
  plan.deaths.push_back({2, from_us(50)});
  kernel.set_fault_plan(plan);
  const RunResult r = kernel.run([](NodeHandle& h) {
    h.advance(from_us(10));
    if (h.id() == 2) {
      // Dies at t=50 while blocked on a receive that never comes.
      (void)h.post_receive_timeout(3, 99, from_us(10000));
      ADD_FAILURE() << "killed node resumed past its death";
    }
    h.global_op({}, from_us(4));
  });
  EXPECT_EQ(r.finish_time[0], r.finish_time[1]);
  EXPECT_EQ(r.finish_time[0], r.finish_time[3]);
}

TEST(FiberBackendTest, ProgramExceptionPropagatesFromFiber) {
  auto topo = make_topo(8);
  Kernel kernel(topo);
  EXPECT_THROW(kernel.run([](NodeHandle& h) {
                 h.advance(from_us(static_cast<std::int64_t>(h.id()) + 1));
                 if (h.id() == 5) throw std::runtime_error("boom");
                 h.global_op({}, from_us(4));
               }),
               std::runtime_error);
  // The kernel must be reusable after the failed run.
  const RunResult r = kernel.run([](NodeHandle& h) { h.advance(from_us(1)); });
  EXPECT_EQ(r.makespan, from_us(1));
}

TEST(FiberBackendTest, DeadlockIsReportedOnFibers) {
  auto topo = make_topo(2);
  Kernel kernel(topo);
  EXPECT_THROW(kernel.run([](NodeHandle& h) {
                 // Both nodes receive from each other; nobody sends.
                 (void)h.post_receive(1 - h.id(), 0);
               }),
               DeadlockError);
}

TEST(FiberBackendTest, BackToBackRunsReuseTheKernel) {
  auto topo = make_topo(16);
  Kernel kernel(topo);
  util::SimTime last = 0;
  for (int round = 0; round < 5; ++round) {
    const RunResult r = kernel.run([round](NodeHandle& h) {
      h.advance(from_us(round + 1));
      h.global_op({}, from_us(4));
    });
    EXPECT_GT(r.makespan, 0);
    if (round > 0) {
      EXPECT_NE(r.makespan, last);
    }
    last = r.makespan;
  }
}

}  // namespace
}  // namespace cm5::sim
