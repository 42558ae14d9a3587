#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/broadcast.hpp"
#include "cm5/sched/collectives.hpp"
#include "cm5/sched/complete_exchange.hpp"
#include "cm5/sim/trace.hpp"

/// Every collective with a phantom (timing) form and a data form runs one
/// message sequence: the benches time the phantom form and the
/// correctness tests check the data form, so the two must post the same
/// ordered (kind, peer, tag) sequence on every node. Payload sizes may
/// differ (the data forms carry item headers); the sequence may not.

namespace cm5::sched {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;
using Kind = sim::TraceEvent::Kind;

constexpr std::int32_t kNodes = 16;
constexpr NodeId kRoot = 3;
constexpr std::int64_t kBytes = 64;

struct Post {
  Kind kind;
  NodeId peer;
  std::int32_t tag;
  bool operator==(const Post&) const = default;
};

std::string describe(const Post& p) {
  const char* kind = p.kind == Kind::SendPosted   ? "send"
                     : p.kind == Kind::RecvPosted ? "recv"
                                                  : "swap";
  return std::string(kind) + " peer " + std::to_string(p.peer) + " tag " +
         std::to_string(p.tag);
}

/// Each node's posted sends, receives and swaps, in program order.
std::vector<std::vector<Post>> posts_of(const machine::Program& program) {
  Cm5Machine machine(MachineParams::cm5_defaults(kNodes));
  sim::TraceRecorder recorder;
  (void)machine.run_traced(program, recorder.sink());
  std::vector<std::vector<Post>> posts(kNodes);
  for (const sim::TraceEvent& e : recorder.events()) {
    if (e.kind == Kind::SendPosted || e.kind == Kind::RecvPosted ||
        e.kind == Kind::SwapPosted) {
      posts[static_cast<std::size_t>(e.node)].push_back({e.kind, e.peer, e.tag});
    }
  }
  return posts;
}

void expect_same_sequence(const machine::Program& phantom,
                          const machine::Program& data) {
  const auto timed = posts_of(phantom);
  const auto carried = posts_of(data);
  std::size_t total = 0;
  for (std::size_t node = 0; node < timed.size(); ++node) {
    const auto& a = timed[node];
    const auto& b = carried[node];
    total += a.size();
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      ASSERT_EQ(a[i], b[i]) << "node " << node << " post " << i
                            << ": phantom " << describe(a[i]) << ", data "
                            << describe(b[i]);
    }
    ASSERT_EQ(a.size(), b.size()) << "node " << node;
  }
  EXPECT_GT(total, 0U);
}

std::vector<std::byte> payload() {
  return std::vector<std::byte>(static_cast<std::size_t>(kBytes),
                                std::byte{7});
}

/// One kBytes block per destination (the scatter root's or an
/// all-to-all's outgoing blocks).
std::vector<std::vector<std::byte>> blocks() {
  return std::vector<std::vector<std::byte>>(kNodes, payload());
}

TEST(PayloadFormsTest, LinearBroadcastPostsOneSequence) {
  expect_same_sequence(
      [](Node& node) { run_linear_broadcast(node, kRoot, kBytes); },
      [](Node& node) { (void)linear_broadcast_data(node, kRoot, payload()); });
}

TEST(PayloadFormsTest, RecursiveBroadcastPostsOneSequence) {
  expect_same_sequence(
      [](Node& node) { run_recursive_broadcast(node, kRoot, kBytes); },
      [](Node& node) {
        (void)recursive_broadcast_data(node, kRoot, payload());
      });
}

TEST(PayloadFormsTest, GatherPostsOneSequence) {
  expect_same_sequence(
      [](Node& node) { gather(node, kRoot, kBytes); },
      [](Node& node) { (void)gather_data(node, kRoot, payload()); });
}

TEST(PayloadFormsTest, ScatterPostsOneSequence) {
  expect_same_sequence(
      [](Node& node) { scatter(node, kRoot, kBytes); },
      [](Node& node) {
        (void)scatter_data(node, kRoot,
                           node.self() == kRoot
                               ? blocks()
                               : std::vector<std::vector<std::byte>>{});
      });
}

TEST(PayloadFormsTest, AllGatherPostsOneSequence) {
  expect_same_sequence(
      [](Node& node) { all_gather(node, kBytes); },
      [](Node& node) { (void)all_gather_data(node, payload()); });
}

TEST(PayloadFormsTest, RecursiveExchangePostsOneSequence) {
  expect_same_sequence(
      [](Node& node) { run_recursive_exchange(node, kBytes); },
      [](Node& node) {
        auto mine = blocks();
        all_to_all(node, ExchangeAlgorithm::Recursive, mine);
      });
}

}  // namespace
}  // namespace cm5::sched
