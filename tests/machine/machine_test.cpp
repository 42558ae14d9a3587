#include "cm5/machine/machine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "cm5/util/check.hpp"
#include "cm5/util/time.hpp"

namespace cm5::machine {
namespace {

template <typename T>
std::vector<std::byte> to_bytes(const std::vector<T>& v) {
  std::vector<std::byte> out(v.size() * sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

template <typename T>
std::vector<T> from_bytes(const std::vector<std::byte>& b) {
  std::vector<T> out(b.size() / sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), b.data(), b.size());
  return out;
}

TEST(MachineTest, DataRoundTrip) {
  Cm5Machine machine(MachineParams::cm5_defaults(4));
  machine.run([](Node& node) {
    if (node.self() == 0) {
      std::vector<double> payload(100);
      std::iota(payload.begin(), payload.end(), 0.5);
      node.send_block_data(3, to_bytes(payload));
    } else if (node.self() == 3) {
      const Message m = node.receive_block(0);
      EXPECT_EQ(m.size, 800);
      const auto values = from_bytes<double>(m.data);
      ASSERT_EQ(values.size(), 100u);
      EXPECT_DOUBLE_EQ(values[0], 0.5);
      EXPECT_DOUBLE_EQ(values[99], 99.5);
    }
  });
}

TEST(MachineTest, PhantomMessageCarriesOnlySize) {
  Cm5Machine machine(MachineParams::cm5_defaults(4));
  machine.run([](Node& node) {
    if (node.self() == 0) {
      node.send_block(1, 1024);
    } else if (node.self() == 1) {
      const Message m = node.receive_block(0);
      EXPECT_EQ(m.size, 1024);
      EXPECT_TRUE(m.is_phantom());
    }
  });
}

TEST(MachineTest, ReduceSumAcrossNodes) {
  Cm5Machine machine(MachineParams::cm5_defaults(16));
  machine.run([](Node& node) {
    const double total = node.reduce_sum(static_cast<double>(node.self()));
    EXPECT_DOUBLE_EQ(total, 120.0);  // 0+1+...+15
    const std::int64_t itotal = node.reduce_sum_i64(2);
    EXPECT_EQ(itotal, 32);
  });
}

TEST(MachineTest, ReduceMaxAcrossNodes) {
  Cm5Machine machine(MachineParams::cm5_defaults(8));
  machine.run([](Node& node) {
    const double m = node.reduce_max(static_cast<double>(100 - node.self()));
    EXPECT_DOUBLE_EQ(m, 100.0);
  });
}

TEST(MachineTest, BroadcastDeliversRootData) {
  Cm5Machine machine(MachineParams::cm5_defaults(8));
  machine.run([](Node& node) {
    std::vector<std::int32_t> data;
    if (node.self() == 3) data = {10, 20, 30};
    const auto result = node.broadcast_data(3, to_bytes(data));
    const auto values = from_bytes<std::int32_t>(result);
    ASSERT_EQ(values.size(), 3u);
    EXPECT_EQ(values[0], 10);
    EXPECT_EQ(values[2], 30);
  });
}

TEST(MachineTest, BroadcastCostGrowsLinearlyWithSize) {
  const MachineParams p = MachineParams::cm5_defaults(32);
  auto bcast_time = [&](std::int64_t bytes) {
    Cm5Machine machine(p);
    return machine.run([&](Node& node) { node.broadcast_phantom(0, bytes); })
        .makespan;
  };
  const auto t1 = bcast_time(1024);
  const auto t2 = bcast_time(2048);
  const auto t4 = bcast_time(4096);
  EXPECT_EQ(t4 - t2, 2 * (t2 - t1));  // doubling size doubles the increment
  EXPECT_GT(t2, t1);
}

TEST(MachineTest, BarrierAlignsClocks) {
  Cm5Machine machine(MachineParams::cm5_defaults(8));
  const auto r = machine.run([](Node& node) {
    node.compute(util::from_us(13 * (node.self() + 1)));
    node.barrier();
  });
  for (auto t : r.finish_time) {
    EXPECT_EQ(t, util::from_us(13 * 8) + machine.params().ctl_latency);
  }
}

TEST(MachineTest, AsyncSendOverlapsCompute) {
  Cm5Machine machine(MachineParams::cm5_defaults(4));
  const auto r = machine.run([](Node& node) {
    if (node.self() == 0) {
      node.send_async(1, 4096);
      node.compute(util::from_ms(10));  // overlap with the transfer
      node.wait_sends();
    } else if (node.self() == 1) {
      (void)node.receive_block(0);
    }
  });
  // The transfer (~0.4 ms) hides inside the 10 ms compute.
  EXPECT_LT(r.finish_time[0], util::from_ms(11));
}

TEST(MachineTest, WireBytesAccountedOnNodeLinks) {
  Cm5Machine machine(MachineParams::cm5_defaults(4));
  const auto r = machine.run([](Node& node) {
    if (node.self() == 0) {
      node.send_block(1, 256);  // 16 packets = 320 wire bytes
    } else if (node.self() == 1) {
      (void)node.receive_block(0);
    }
  });
  EXPECT_DOUBLE_EQ(r.network.bytes_by_level[0], 640.0);  // inject + eject
}

TEST(MachineTest, TagsDisambiguateStreams) {
  Cm5Machine machine(MachineParams::cm5_defaults(2));
  machine.run([](Node& node) {
    if (node.self() == 0) {
      // Async sends: a blocking send with tag 1 would rendezvous-deadlock
      // against a receiver that asks for tag 2 first.
      node.send_async(1, 8, /*tag=*/1);
      node.send_async(1, 16, /*tag=*/2);
      node.wait_sends();
    } else {
      const Message m2 = node.receive_block(0, /*tag=*/2);
      EXPECT_EQ(m2.size, 16);
      const Message m1 = node.receive_block(0, /*tag=*/1);
      EXPECT_EQ(m1.size, 8);
    }
  });
}

TEST(MachineTest, NegativeSizeRejected) {
  Cm5Machine machine(MachineParams::cm5_defaults(2));
  EXPECT_THROW(machine.run([](Node& node) {
                 if (node.self() == 0) node.send_block(1, -1);
                 else (void)node.receive_block(0);
               }),
               util::CheckError);
}

TEST(MachineTest, RunResultHasPerNodeCounters) {
  Cm5Machine machine(MachineParams::cm5_defaults(4));
  const auto r = machine.run([](Node& node) {
    if (node.self() == 0) {
      node.send_block(1, 100);
      node.send_block(2, 200);
    } else if (node.self() == 1 || node.self() == 2) {
      (void)node.receive_block(0);
    }
  });
  EXPECT_EQ(r.node_counters[0].sends, 2);
  EXPECT_EQ(r.node_counters[0].bytes_sent, 300);
  EXPECT_EQ(r.node_counters[1].receives, 1);
  EXPECT_EQ(r.node_counters[3].sends, 0);
}

}  // namespace
}  // namespace cm5::machine
