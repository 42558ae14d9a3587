#include "cm5/sim/kernel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <vector>

#include "cm5/net/topology.hpp"
#include "cm5/util/check.hpp"
#include "cm5/util/time.hpp"

namespace cm5::sim {
namespace {

using util::from_us;
using util::SimTime;

net::FatTreeTopology make_topo(std::int32_t n) {
  return net::FatTreeTopology(net::FatTreeConfig::cm5(n));
}

std::vector<std::byte> bytes_of(std::int64_t v) {
  std::vector<std::byte> out(sizeof v);
  std::memcpy(out.data(), &v, sizeof v);
  return out;
}

std::int64_t value_of(std::span<const std::byte> data) {
  std::int64_t v = 0;
  CM5_CHECK(data.size() == sizeof v);
  std::memcpy(&v, data.data(), sizeof v);
  return v;
}

TEST(KernelTest, EmptyProgramFinishesAtTimeZero) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle&) {});
  EXPECT_EQ(r.makespan, 0);
  ASSERT_EQ(r.finish_time.size(), 4u);
  for (SimTime t : r.finish_time) EXPECT_EQ(t, 0);
}

TEST(KernelTest, AdvanceChargesTime) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) {
    h.advance(from_us(10 * (h.id() + 1)));
  });
  EXPECT_EQ(r.finish_time[0], from_us(10));
  EXPECT_EQ(r.finish_time[3], from_us(40));
  EXPECT_EQ(r.makespan, from_us(40));
  EXPECT_EQ(r.node_counters[2].compute_time, from_us(30));
}

TEST(KernelTest, BlockingSendRendezvousTiming) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  // Node 0 sends 2000 wire bytes to node 1 with 5 us latency.
  // Transfer starts at t=0 (both ready), enters network at 5 us, moves
  // 2000 B at 20 MB/s = 100 us. Both finish at 105 us.
  const RunResult r = kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send(1, 0, 1600, 2000, from_us(5), {});
    } else if (h.id() == 1) {
      const Message m = h.post_receive(0, kAnyTag);
      EXPECT_EQ(m.src, 0);
      EXPECT_EQ(m.size, 1600);
    }
  });
  EXPECT_EQ(r.finish_time[0], from_us(105));
  EXPECT_EQ(r.finish_time[1], from_us(105));
}

TEST(KernelTest, LateReceiverDelaysRendezvous) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send(1, 0, 0, 2000, 0, {});
    } else if (h.id() == 1) {
      h.advance(from_us(500));  // receiver busy until 500 us
      (void)h.post_receive(0, kAnyTag);
    }
  });
  // Transfer starts at 500 us, takes 100 us.
  EXPECT_EQ(r.finish_time[0], from_us(600));
  EXPECT_EQ(r.finish_time[1], from_us(600));
}

TEST(KernelTest, LateSenderDelaysRendezvous) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.advance(from_us(300));
      h.post_send(1, 0, 0, 2000, 0, {});
    } else if (h.id() == 1) {
      (void)h.post_receive(0, kAnyTag);
    }
  });
  EXPECT_EQ(r.finish_time[0], from_us(400));
  EXPECT_EQ(r.finish_time[1], from_us(400));
}

TEST(KernelTest, PayloadIsDeliveredIntact) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  kernel.run([](NodeHandle& h) {
    if (h.id() == 2) {
      h.post_send(3, 7, 8, 20, 0, bytes_of(0x1234567890LL));
    } else if (h.id() == 3) {
      const Message m = h.post_receive(2, 7);
      EXPECT_EQ(m.tag, 7);
      EXPECT_EQ(value_of(m.data), 0x1234567890LL);
    }
  });
}

TEST(KernelTest, TagFilteringMatchesCorrectMessage) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send(1, /*tag=*/5, 8, 20, 0, bytes_of(55));
    } else if (h.id() == 2) {
      h.post_send(1, /*tag=*/9, 8, 20, 0, bytes_of(99));
    } else if (h.id() == 1) {
      const Message m9 = h.post_receive(kAnyNode, 9);
      EXPECT_EQ(value_of(m9.data), 99);
      const Message m5 = h.post_receive(kAnyNode, 5);
      EXPECT_EQ(value_of(m5.data), 55);
    }
  });
}

TEST(KernelTest, SendsToOneReceiverSerialize) {
  // The paper's LEX pathology: all senders target one receiver; blocking
  // rendezvous serializes them at the receiver.
  auto topo = make_topo(4);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      for (std::int32_t src = 1; src < 4; ++src) {
        (void)h.post_receive(src, kAnyTag);
      }
    } else {
      h.post_send(0, 0, 0, 20000, 0, {});  // 1 ms at 20 MB/s
    }
  });
  // Three transfers, serialized on node 0's eject link: 3 ms total.
  EXPECT_EQ(r.finish_time[0], util::from_ms(3));
}

TEST(KernelTest, DisjointPairsProceedConcurrently) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) {
    // 0<->1 and 2<->3 simultaneously; no shared links.
    const NodeId peer = h.id() ^ 1;
    if (h.id() < peer) {
      (void)h.post_receive(peer, kAnyTag);
      h.post_send(peer, 0, 0, 20000, 0, {});
    } else {
      h.post_send(peer, 0, 0, 20000, 0, {});
      (void)h.post_receive(peer, kAnyTag);
    }
  });
  // Two serialized 1 ms transfers per pair (ordered send/recv), pairs in
  // parallel: 2 ms.
  EXPECT_EQ(r.makespan, util::from_ms(2));
}

TEST(KernelTest, AsyncSendDoesNotBlockSender) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send_async(1, 0, 0, 20000, 0, {});
      h.advance(from_us(1));  // sender proceeds immediately
    } else if (h.id() == 1) {
      h.advance(from_us(5000));
      (void)h.post_receive(0, kAnyTag);
    }
  });
  EXPECT_EQ(r.finish_time[0], from_us(1));
  EXPECT_EQ(r.finish_time[1], from_us(6000));
}

TEST(KernelTest, WaitAsyncSendsBlocksUntilDrained) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send_async(1, 0, 0, 20000, 0, {});
      h.wait_async_sends();
    } else if (h.id() == 1) {
      h.advance(from_us(5000));
      (void)h.post_receive(0, kAnyTag);
    }
  });
  EXPECT_EQ(r.finish_time[0], from_us(6000));
}

TEST(KernelTest, WaitAsyncSendsWithNothingInFlightReturnsImmediately) {
  auto topo = make_topo(2);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) { h.wait_async_sends(); });
  EXPECT_EQ(r.makespan, 0);
}

TEST(KernelTest, GlobalOpSynchronizesAllNodes) {
  auto topo = make_topo(8);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) {
    h.advance(from_us(10 * (h.id() + 1)));  // staggered arrivals, max 80 us
    const auto result = h.global_op(bytes_of(h.id()), from_us(4));
    // Concatenation of all contributions in node order.
    EXPECT_EQ(result.size(), 8 * sizeof(std::int64_t));
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      sum += value_of(std::span(result).subspan(i * sizeof(std::int64_t),
                                                sizeof(std::int64_t)));
    }
    EXPECT_EQ(sum, 28);
  });
  for (SimTime t : r.finish_time) EXPECT_EQ(t, from_us(84));
}

TEST(KernelTest, ConsecutiveGlobalOpsKeepOrder) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  kernel.run([](NodeHandle& h) {
    for (std::int64_t round = 0; round < 5; ++round) {
      const auto result = h.global_op(bytes_of(round * 10 + h.id()), 0);
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(value_of(std::span(result).subspan(
                      static_cast<std::size_t>(i) * sizeof(std::int64_t),
                      sizeof(std::int64_t))),
                  round * 10 + i);
      }
    }
  });
}

// global_op's result is a view into one buffer the kernel shares between
// nodes. It must hold this node's result until this node's next global
// op, even while faster nodes already entered that op; a view passed back
// as the next contribution is copied before the buffer is rewritten.
TEST(KernelTest, GlobalOpResultStaysValidUntilTheNodesNextGlobalOp) {
  auto topo = make_topo(8);
  Kernel kernel(topo);
  const auto element = [](std::span<const std::byte> all, std::size_t i) {
    constexpr std::size_t kWord = sizeof(std::int64_t);
    return value_of(all.subspan(i * kWord, kWord));
  };
  kernel.run([&](NodeHandle& h) {
    h.advance(from_us(10 * (h.id() + 1)));  // node 7 arrives last
    const std::span<const std::byte> first =
        h.global_op(bytes_of(h.id()), from_us(4));
    h.advance(from_us(10 * (8 - h.id())));  // node 0 re-enters last
    ASSERT_EQ(first.size(), 8 * sizeof(std::int64_t));
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(element(first, i), static_cast<std::int64_t>(i));
    }
    const std::span<const std::byte> second =
        h.global_op(bytes_of(100 + 2 * h.id()), from_us(4));
    ASSERT_EQ(second.size(), 8 * sizeof(std::int64_t));
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(element(second, i), 100 + 2 * static_cast<std::int64_t>(i));
    }
    // Each node hands back its own slot of the second result.
    const std::span<const std::byte> third = h.global_op(
        second.subspan(static_cast<std::size_t>(h.id()) * sizeof(std::int64_t),
                       sizeof(std::int64_t)),
        0);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(element(third, i), 100 + 2 * static_cast<std::int64_t>(i));
    }
  });
}

TEST(KernelTest, DeadlockIsDetectedAndReported) {
  auto topo = make_topo(2);
  Kernel kernel(topo);
  EXPECT_THROW(kernel.run([](NodeHandle& h) {
                 // Both nodes receive; nobody sends.
                 (void)h.post_receive(kAnyNode, kAnyTag);
               }),
               DeadlockError);
}

TEST(KernelTest, DeadlockReportNamesBlockedNodes) {
  auto topo = make_topo(2);
  Kernel kernel(topo);
  try {
    kernel.run([](NodeHandle& h) {
      if (h.id() == 0) (void)h.post_receive(1, kAnyTag);
      // node 1 exits; node 0 waits forever.
    });
    FAIL() << "expected deadlock";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("node 0"), std::string::npos);
    EXPECT_NE(msg.find("receive_block"), std::string::npos);
    EXPECT_NE(msg.find("done"), std::string::npos);
  }
}

TEST(KernelTest, MismatchedGlobalOpDeadlocks) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  EXPECT_THROW(kernel.run([](NodeHandle& h) {
                 if (h.id() == 0) {
                   (void)h.post_receive(kAnyNode, kAnyTag);
                 } else {
                   (void)h.global_op({}, 0);
                 }
               }),
               DeadlockError);
}

TEST(KernelTest, NodeErrorPropagatesToCaller) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  EXPECT_THROW(kernel.run([](NodeHandle& h) {
                 if (h.id() == 2) throw std::runtime_error("node 2 exploded");
                 // Other nodes would block forever; abort must release them.
                 (void)h.post_receive(kAnyNode, kAnyTag);
               }),
               std::runtime_error);
}

TEST(KernelTest, SendToSelfRejected) {
  auto topo = make_topo(2);
  Kernel kernel(topo);
  EXPECT_THROW(kernel.run([](NodeHandle& h) {
                 if (h.id() == 0) h.post_send(0, 0, 0, 20, 0, {});
               }),
               util::CheckError);
}

TEST(KernelTest, ExecutionIsSerializedAndOrderedByVirtualTime) {
  // Record the order in which nodes pass their advance() calls; it must be
  // sorted by virtual time regardless of thread scheduling.
  auto topo = make_topo(8);
  Kernel kernel(topo);
  std::mutex m;
  std::vector<std::pair<SimTime, NodeId>> order;
  kernel.run([&](NodeHandle& h) {
    for (int step = 0; step < 5; ++step) {
      h.advance(from_us(7 + h.id()));
      std::lock_guard lock(m);
      order.emplace_back(h.now(), h.id());
    }
  });
  // now() after advance reflects the post-advance clock; the sequence of
  // clocks at execution points must be non-decreasing.
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1].first, order[i].first)
        << "virtual time went backwards at step " << i;
  }
}

TEST(KernelTest, DeterministicAcrossRepeatedRuns) {
  auto topo = make_topo(16);
  auto program = [](NodeHandle& h) {
    // A little of everything: staggered compute, an all-to-one, a global.
    h.advance(from_us(h.id() % 3));
    if (h.id() == 0) {
      for (std::int32_t s = 1; s < 16; ++s) {
        (void)h.post_receive(kAnyNode, kAnyTag);
      }
    } else {
      h.post_send(0, 0, 64, 80, from_us(1), {});
    }
    (void)h.global_op({}, from_us(4));
  };
  Kernel k1(topo), k2(topo);
  const RunResult a = k1.run(program);
  const RunResult b = k2.run(program);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.network.rate_solves, b.network.rate_solves);
}

TEST(KernelTest, FlowStartsAtOneInstantCostOneRateSolve) {
  // Every node sends to its pair partner (id ^ 1) at time 0 with a 5 us
  // latency, so all 16 flows start at 5 us, after every node has posted.
  // Partners share a leaf switch, so every flow has its own injection and
  // ejection link and runs at full link rate; pair k sends (k + 1) ms
  // worth of bytes, so the pairs complete in 8 separate batches. The
  // kernel solves the rates once for the 16 starts, then once after each
  // batch but the last, which leaves no flow to solve for.
  constexpr std::int32_t kNodes = 16;
  constexpr std::int64_t kBatches = kNodes / 2;
  auto topo = make_topo(kNodes);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) {
    const NodeId peer = h.id() ^ 1;
    const std::int64_t bytes = 20000 * (1 + h.id() / 2);  // 1 ms per 20 kB
    h.post_send_async(peer, 0, bytes, bytes, from_us(5), {});
    (void)h.post_receive(peer, kAnyTag);
  });
  for (NodeId n = 0; n < kNodes; ++n) {
    EXPECT_EQ(r.finish_time[static_cast<std::size_t>(n)],
              from_us(5) + util::from_ms(1 + n / 2));
  }
  EXPECT_EQ(r.network.flows_started, kNodes);
  EXPECT_EQ(r.network.rate_solves, 1 + (kBatches - 1));
}

TEST(KernelTest, CountersTrackTraffic) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) {
    if (h.id() == 0) {
      h.post_send(1, 0, 100, 140, 0, {});
      h.post_send(1, 0, 50, 80, 0, {});
    } else if (h.id() == 1) {
      (void)h.post_receive(0, kAnyTag);
      (void)h.post_receive(0, kAnyTag);
    }
    (void)h.global_op({}, 0);
  });
  EXPECT_EQ(r.node_counters[0].sends, 2);
  EXPECT_EQ(r.node_counters[0].bytes_sent, 150);
  EXPECT_EQ(r.node_counters[1].receives, 2);
  EXPECT_EQ(r.node_counters[0].global_ops, 1);
}

TEST(KernelTest, SingleNodePartitionWorks) {
  auto topo = make_topo(1);
  Kernel kernel(topo);
  const RunResult r = kernel.run([](NodeHandle& h) {
    h.advance(from_us(42));
    const auto result = h.global_op(bytes_of(7), from_us(4));
    EXPECT_EQ(value_of(result), 7);
  });
  EXPECT_EQ(r.makespan, from_us(46));
}

TEST(KernelTest, KernelIsReusableSequentially) {
  auto topo = make_topo(4);
  Kernel kernel(topo);
  const RunResult a = kernel.run([](NodeHandle& h) { h.advance(10); });
  const RunResult b = kernel.run([](NodeHandle& h) { h.advance(20); });
  EXPECT_EQ(a.makespan, 10);
  EXPECT_EQ(b.makespan, 20);
}

TEST(KernelTest, ManyNodesStress) {
  auto topo = make_topo(64);
  Kernel kernel(topo);
  // Ring exchange: each node sends to (id+1) and receives from (id-1).
  const RunResult r = kernel.run([](NodeHandle& h) {
    const std::int32_t n = h.nprocs();
    const NodeId next = static_cast<NodeId>((h.id() + 1) % n);
    const NodeId prev = static_cast<NodeId>((h.id() + n - 1) % n);
    if (h.id() % 2 == 0) {
      h.post_send(next, 0, 160, 200, from_us(1), {});
      (void)h.post_receive(prev, kAnyTag);
    } else {
      (void)h.post_receive(prev, kAnyTag);
      h.post_send(next, 0, 160, 200, from_us(1), {});
    }
  });
  EXPECT_GT(r.makespan, 0);
  EXPECT_EQ(r.network.flows_completed, 64);
}

}  // namespace
}  // namespace cm5::sim
