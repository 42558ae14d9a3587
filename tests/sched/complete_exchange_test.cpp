#include "cm5/sched/complete_exchange.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "cm5/machine/machine.hpp"
#include "cm5/util/time.hpp"

namespace cm5::sched {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;

util::SimDuration exchange_time(std::int32_t nprocs, ExchangeAlgorithm alg,
                                std::int64_t bytes) {
  Cm5Machine machine(MachineParams::cm5_defaults(nprocs));
  return machine.run([&](Node& node) { complete_exchange(node, alg, bytes); })
      .makespan;
}

// --- data correctness for all four algorithms -------------------------------

struct DataCase {
  ExchangeAlgorithm algorithm;
  std::int32_t nprocs;
  std::int64_t bytes;
};

class AllToAllDataTest : public ::testing::TestWithParam<DataCase> {};

TEST_P(AllToAllDataTest, EveryBlockArrivesFromItsSender) {
  const DataCase& c = GetParam();
  Cm5Machine machine(MachineParams::cm5_defaults(c.nprocs));
  machine.run([&](Node& node) {
    // Block for destination d: bytes (self * 251 + d * 7 + k) mod 256.
    // blocks[self] carries a marker of another length; all_to_all must
    // leave it alone (fft2d_distributed reads its own block back).
    std::vector<std::vector<std::byte>> blocks(
        static_cast<std::size_t>(c.nprocs));
    const std::vector<std::byte> marker(
        static_cast<std::size_t>(c.bytes) + 3,
        static_cast<std::byte>(0xA5 ^ node.self()));
    blocks[static_cast<std::size_t>(node.self())] = marker;
    for (NodeId d = 0; d < c.nprocs; ++d) {
      if (d == node.self()) continue;
      auto& block = blocks[static_cast<std::size_t>(d)];
      block.resize(static_cast<std::size_t>(c.bytes));
      for (std::size_t k = 0; k < block.size(); ++k) {
        block[k] = static_cast<std::byte>(
            (node.self() * 251 + d * 7 + static_cast<std::int32_t>(k)) % 256);
      }
    }
    all_to_all(node, c.algorithm, blocks);
    EXPECT_EQ(blocks[static_cast<std::size_t>(node.self())], marker)
        << "node " << node.self() << " lost its own block";
    for (NodeId s = 0; s < c.nprocs; ++s) {
      if (s == node.self()) continue;
      const auto& block = blocks[static_cast<std::size_t>(s)];
      ASSERT_EQ(block.size(), static_cast<std::size_t>(c.bytes));
      for (std::size_t k = 0; k < block.size(); ++k) {
        ASSERT_EQ(block[k],
                  static_cast<std::byte>((s * 251 + node.self() * 7 +
                                          static_cast<std::int32_t>(k)) %
                                         256))
            << "node " << node.self() << " block from " << s << " offset " << k;
      }
    }
  });
}

std::vector<DataCase> data_cases() {
  std::vector<DataCase> cases;
  for (ExchangeAlgorithm alg : kAllExchangeAlgorithms) {
    for (std::int32_t n : {2, 4, 8, 16}) {
      cases.push_back(DataCase{alg, n, 48});
    }
    cases.push_back(DataCase{alg, 8, 1});    // single-byte blocks
    cases.push_back(DataCase{alg, 4, 1000}); // multi-packet blocks
  }
  for (ExchangeAlgorithm alg : kAllExchangeAlgorithms) {
    cases.push_back(DataCase{alg, 1, 48});  // single node: nothing moves
    cases.push_back(DataCase{alg, 8, 0});   // empty blocks
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllToAllDataTest,
                         ::testing::ValuesIn(data_cases()));

// --- structural/timing properties -------------------------------------------

TEST(CompleteExchangeTest, MessageCountsMatchTheory) {
  // LEX/PEX/BEX: N*(N-1) messages. REX: N*lgN combined messages.
  const std::int32_t n = 16;
  auto count_messages = [&](ExchangeAlgorithm alg) {
    Cm5Machine machine(MachineParams::cm5_defaults(n));
    return machine
        .run([&](Node& node) { complete_exchange(node, alg, 64); })
        .network.flows_completed;
  };
  EXPECT_EQ(count_messages(ExchangeAlgorithm::Linear), n * (n - 1));
  EXPECT_EQ(count_messages(ExchangeAlgorithm::Pairwise), n * (n - 1));
  EXPECT_EQ(count_messages(ExchangeAlgorithm::Balanced), n * (n - 1));
  EXPECT_EQ(count_messages(ExchangeAlgorithm::Recursive), n * 4);  // lg 16
}

TEST(CompleteExchangeTest, RexWireTrafficMatchesPaperFormula) {
  // Each REX step sends n*N/2 bytes per node; over lg N steps the node
  // links carry N * lgN * (wire of n*N/2) bytes each way.
  const std::int32_t n = 8;
  const std::int64_t bytes = 160;
  Cm5Machine machine(MachineParams::cm5_defaults(n));
  const auto r = machine.run(
      [&](Node& node) { complete_exchange(node, ExchangeAlgorithm::Recursive, bytes); });
  const std::int64_t per_message_user = bytes * n / 2;
  const std::int64_t per_message_wire =
      machine.params().wire_bytes(per_message_user);
  // level 0 counts inject + eject: 2 crossings per message.
  EXPECT_DOUBLE_EQ(r.network.bytes_by_level[0],
                   static_cast<double>(2 * n * 3 * per_message_wire));
}

TEST(CompleteExchangeTest, LinearIsFarWorstAtModerateSizes) {
  // Fig. 5: LEX is off the chart compared to the other three.
  const auto lex = exchange_time(16, ExchangeAlgorithm::Linear, 256);
  const auto pex = exchange_time(16, ExchangeAlgorithm::Pairwise, 256);
  const auto bex = exchange_time(16, ExchangeAlgorithm::Balanced, 256);
  EXPECT_GT(lex, 3 * pex);
  EXPECT_GT(lex, 3 * bex);
}

TEST(CompleteExchangeTest, RecursiveWinsAtZeroBytes) {
  // Fig. 6: lg N steps beat N-1 steps when latency dominates.
  for (std::int32_t n : {16, 32, 64}) {
    const auto rex = exchange_time(n, ExchangeAlgorithm::Recursive, 0);
    const auto pex = exchange_time(n, ExchangeAlgorithm::Pairwise, 0);
    EXPECT_LT(rex, pex) << "n=" << n;
  }
}

TEST(CompleteExchangeTest, BalancedBeatsPairwiseAtLargeSizes32Nodes) {
  // Fig. 5: at 2048 bytes on 32 nodes, BEX < PEX.
  const auto bex = exchange_time(32, ExchangeAlgorithm::Balanced, 2048);
  const auto pex = exchange_time(32, ExchangeAlgorithm::Pairwise, 2048);
  EXPECT_LT(bex, pex);
}

TEST(CompleteExchangeTest, AsyncLinearBeatsSyncLinear) {
  // §3.1: "If asynchronous communication is allowed, processors need not
  // wait ... to proceed to step i+1."
  const std::int32_t n = 16;
  const std::int64_t bytes = 256;
  Cm5Machine machine(MachineParams::cm5_defaults(n));
  const auto sync = machine
                        .run([&](Node& node) {
                          run_linear_exchange(node, bytes);
                        })
                        .makespan;
  const auto async = machine
                         .run([&](Node& node) {
                           run_linear_exchange_async(node, bytes);
                         })
                         .makespan;
  EXPECT_LT(async, sync);
}

TEST(CompleteExchangeTest, TimesScaleWithMessageSize) {
  for (ExchangeAlgorithm alg : kAllExchangeAlgorithms) {
    const auto small = exchange_time(8, alg, 64);
    const auto large = exchange_time(8, alg, 2048);
    EXPECT_LT(small, large) << exchange_name(alg);
  }
}

TEST(CompleteExchangeTest, NamesAreStable) {
  EXPECT_STREQ(exchange_name(ExchangeAlgorithm::Linear), "Linear");
  EXPECT_STREQ(exchange_name(ExchangeAlgorithm::Pairwise), "Pairwise");
  EXPECT_STREQ(exchange_name(ExchangeAlgorithm::Recursive), "Recursive");
  EXPECT_STREQ(exchange_name(ExchangeAlgorithm::Balanced), "Balanced");
}

}  // namespace
}  // namespace cm5::sched
