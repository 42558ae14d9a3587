#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/complete_exchange.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/sim/trace.hpp"
#include "cm5/sim/trace_file.hpp"
#include "cm5/util/time.hpp"
#include "batch_analysis.hpp"

/// Streaming trace pipeline tests: the recorder's queries, byte-identical
/// streaming-vs-batch analysis on hand-built traces (valid and
/// violating) and on live runs through Cm5Machine::run_observed, and the
/// CM5TRACE file roundtrip with truncation diagnosis.

namespace cm5::sim {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;
using machine::Node;
using Kind = TraceEvent::Kind;

TraceEvent ev(Kind kind, util::SimTime time, net::NodeId node,
              net::NodeId peer = -1, std::int64_t bytes = 0,
              std::int32_t tag = 0) {
  TraceEvent e;
  e.kind = kind;
  e.time = time;
  e.node = node;
  e.peer = peer;
  e.bytes = bytes;
  e.tag = tag;
  return e;
}

/// Consumer that simply collects the stream.
struct Collect : TraceConsumer {
  std::vector<TraceEvent> events;
  void on_event(const TraceEvent& e) override { events.push_back(e); }
};

bool same_event(const TraceEvent& a, const TraceEvent& b) {
  return a.kind == b.kind && a.time == b.time && a.node == b.node &&
         a.peer == b.peer && a.bytes == b.bytes && a.tag == b.tag;
}

std::vector<TraceEvent> tiny_trace() {
  return {
      ev(Kind::RecvPosted, 0, 1, 0, 0, 5),
      ev(Kind::Compute, 100, 0, -1, 100),
      ev(Kind::SendPosted, 100, 0, 1, 64, 5),
      ev(Kind::TransferStart, 200, 0, 1, 64, 5),
      ev(Kind::TransferComplete, 300, 0, 1, 64, 5),
      ev(Kind::NodeDone, 300, 0),
      ev(Kind::NodeDone, 300, 1),
  };
}

/// A faulty trace exercising the drop lookahead (TransferComplete voided
/// by an immediately following FaultDrop), an unmatched start, and a
/// timed receive whose WaitTimeout ends the receive wait: the gap before
/// node 1's next compute is other wait, not receive wait.
std::vector<TraceEvent> faulty_trace() {
  return {
      ev(Kind::SendPosted, 10, 0, 1, 32, 1),
      ev(Kind::TransferStart, 20, 0, 1, 32, 1),
      ev(Kind::TransferComplete, 90, 0, 1, 32, 1),
      ev(Kind::FaultDrop, 90, 0, 1, 32, 1),
      ev(Kind::SendPosted, 100, 2, 3, 48, 2),
      ev(Kind::RecvPosted, 100, 1, 2, 0, 7),
      ev(Kind::TransferStart, 110, 2, 3, 48, 2),
      ev(Kind::FaultKill, 120, 3),
      ev(Kind::WaitTimeout, 120, 1, 2, 0, 7),
      ev(Kind::Compute, 140, 1, -1, 10),
      ev(Kind::NodeDone, 150, 0),
      ev(Kind::NodeDone, 150, 1),
      ev(Kind::NodeDone, 150, 2),
      ev(Kind::NodeDone, 150, 3),
  };
}

/// A deliberately broken trace: out-of-range node, negative time,
/// completion without a start, duplicate NodeDone.
std::vector<TraceEvent> violating_trace() {
  return {
      ev(Kind::SendPosted, -5, 0, 1, 16, 1),
      ev(Kind::Compute, 10, 9, -1, 4),
      ev(Kind::TransferComplete, 20, 0, 1, 16, 1),
      ev(Kind::NodeDone, 30, 0),
      ev(Kind::NodeDone, 40, 0),
  };
}

// --- recorder ---------------------------------------------------------------

TEST(TraceRecorderStream, ForNodeSeesActorAndPeer) {
  TraceRecorder recorder;
  auto sink = recorder.sink();
  for (const TraceEvent& e : tiny_trace()) sink(e);
  EXPECT_EQ(recorder.total_events(),
            static_cast<std::int64_t>(tiny_trace().size()));
  EXPECT_EQ(recorder.count(Kind::SendPosted), 1);
  EXPECT_EQ(recorder.count(Kind::NodeDone), 2);
  EXPECT_EQ(recorder.count(Kind::FaultDrop), 0);
  const auto node1 = recorder.for_node(1);
  // Node 1 appears as actor (RecvPosted, NodeDone) and as peer of the
  // send/transfer events.
  ASSERT_EQ(node1.size(), 5u);
  EXPECT_EQ(node1.front().kind, Kind::RecvPosted);
  EXPECT_EQ(node1.back().kind, Kind::NodeDone);
  EXPECT_TRUE(recorder.for_node(7).empty());
}

TEST(TraceRecorderStream, KernelSetTraceConsumerOverloadStreams) {
  // A consumer fed from a plain lambda sink handed to run_traced (the
  // wiring Cm5Machine::run_observed uses) sees exactly the stream a
  // recorder stores, event for event.
  Collect streamed;
  TraceRecorder recorder;
  const std::int32_t nprocs = 8;
  const auto program = [](Node& node) {
    sched::complete_exchange(node, sched::ExchangeAlgorithm::Pairwise, 64);
  };
  Cm5Machine recorded(MachineParams::cm5_defaults(nprocs));
  const RunResult a = recorded.run_traced(program, recorder.sink());
  Cm5Machine direct(MachineParams::cm5_defaults(nprocs));
  const RunResult b = direct.run_traced(
      program, [&](const TraceEvent& e) { streamed.on_event(e); });
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(streamed.events.size(), recorder.events().size());
  for (std::size_t i = 0; i < streamed.events.size(); ++i) {
    EXPECT_TRUE(same_event(streamed.events[i], recorder.events()[i]))
        << "event " << i;
  }
}

// --- streaming vs batch on hand-built traces --------------------------------

TEST(StreamingAnalysis, MatchesBatchOnTinyTrace) {
  expect_streaming_matches_batch(tiny_trace(), 2);
}

TEST(StreamingAnalysis, MatchesBatchOnFaultyTrace) {
  expect_streaming_matches_batch(faulty_trace(), 4);
}

TEST(StreamingAnalysis, MatchesBatchOnViolatingTrace) {
  expect_streaming_matches_batch(violating_trace(), 2);
}

TEST(StreamingAnalysis, MatchesBatchOnEmptyTrace) {
  expect_streaming_matches_batch({}, 4);
}

// Several transfers in flight on one (src, dst, tag) key complete in
// FIFO order: each completion pairs with the oldest open start, a key
// that drained opens again, and a start queued behind a partly drained
// key is not lost. Forty other keys sit open meanwhile and close in a
// scrambled order.
TEST(StreamingAnalysis, MatchesBatchWithSeveralTransfersInFlightOnOneKey) {
  std::vector<TraceEvent> events;
  for (int k = 0; k < 6; ++k) {
    events.push_back(ev(Kind::SendPosted, 0, 0, 1, 8, 7));
  }
  for (std::int32_t k = 0; k < 40; ++k) {
    events.push_back(ev(Kind::SendPosted, 0, 2, 3, 4, 100 + k));
    events.push_back(ev(Kind::TransferStart, 1, 2, 3, 4, 100 + k));
  }
  for (const util::SimTime t : {10, 20, 30}) {
    events.push_back(ev(Kind::TransferStart, t, 0, 1, 8, 7));
  }
  for (const util::SimTime t : {40, 50, 60}) {
    events.push_back(ev(Kind::TransferComplete, t, 0, 1, 8, 7));
  }
  // Reopened after draining; then a start queued behind a partly drained
  // key.
  events.push_back(ev(Kind::TransferStart, 70, 0, 1, 8, 7));
  events.push_back(ev(Kind::TransferStart, 75, 0, 1, 8, 7));
  events.push_back(ev(Kind::TransferComplete, 80, 0, 1, 8, 7));
  events.push_back(ev(Kind::TransferStart, 85, 0, 1, 8, 7));
  events.push_back(ev(Kind::TransferComplete, 90, 0, 1, 8, 7));
  events.push_back(ev(Kind::TransferComplete, 95, 0, 1, 8, 7));
  for (std::int32_t k = 0; k < 40; ++k) {
    events.push_back(
        ev(Kind::TransferComplete, 100 + k, 2, 3, 4, 100 + (k * 17) % 40));
  }
  for (net::NodeId n = 0; n < 4; ++n) {
    events.push_back(ev(Kind::NodeDone, 140, n));
  }
  expect_streaming_matches_batch(events, 4);
  const RunMetrics m = analyze(events, 4);
  EXPECT_EQ(m.nodes[0].port_busy, 50 + 25);  // [10, 60] and [70, 95]
  EXPECT_EQ(m.nodes[2].port_busy, 139 - 1);
  EXPECT_TRUE(validate_trace(events, 4).empty());
}

// Port-busy intervals on node 0 that touch, overlap, nest and leave a
// gap, plus a zero-length transfer: the union is closed (touching spans
// coalesce) and the zero-length one adds nothing.
TEST(StreamingAnalysis, MatchesBatchOnTouchingOverlappingNestedPortIntervals) {
  std::vector<TraceEvent> events;
  const auto transfer_start = [&](util::SimTime t, net::NodeId src,
                                  net::NodeId dst, std::int32_t tag) {
    events.push_back(ev(Kind::SendPosted, t, src, dst, 16, tag));
    events.push_back(ev(Kind::TransferStart, t, src, dst, 16, tag));
  };
  const auto transfer_complete = [&](util::SimTime t, net::NodeId src,
                                     net::NodeId dst, std::int32_t tag) {
    events.push_back(ev(Kind::TransferComplete, t, src, dst, 16, tag));
  };
  transfer_start(10, 0, 1, 1);     // [10, 20]
  transfer_complete(20, 0, 1, 1);
  transfer_start(20, 0, 2, 1);     // [20, 30] touches it
  transfer_start(25, 0, 3, 1);     // [25, 40] overlaps that
  transfer_complete(30, 0, 2, 1);
  transfer_complete(40, 0, 3, 1);
  transfer_start(60, 0, 1, 2);     // [60, 100]
  transfer_start(70, 2, 0, 2);     // [70, 80] nested inside it
  transfer_complete(80, 2, 0, 2);
  transfer_start(90, 3, 0, 2);     // [90, 90] zero length
  transfer_complete(90, 3, 0, 2);
  transfer_complete(100, 0, 1, 2);
  transfer_start(100, 1, 0, 3);    // [100, 110] touches the nest
  transfer_complete(110, 1, 0, 3);
  transfer_start(120, 0, 1, 4);    // [120, 130] after a gap
  transfer_complete(130, 0, 1, 4);
  for (net::NodeId n = 0; n < 4; ++n) {
    events.push_back(ev(Kind::NodeDone, 130, n));
  }
  expect_streaming_matches_batch(events, 4);
  const RunMetrics m = analyze(events, 4);
  EXPECT_EQ(m.nodes[0].port_busy, 30 + 50 + 10);
  EXPECT_EQ(m.nodes[3].port_busy, 15);
  EXPECT_TRUE(validate_trace(events, 4).empty());
}

// A violating trace over many distinct keys, inserted out of key order:
// the violation text, built only for reported keys, must list them in
// ascending key order and cap at the same count as the batch path.
TEST(StreamingAnalysis, MatchesBatchOnViolationsAcrossManyKeys) {
  std::vector<TraceEvent> events;
  for (std::int32_t k = 0; k < 70; ++k) {
    const net::NodeId src = (k * 5) % 8;
    const net::NodeId dst = (k * 3 + 1) % 8;
    const std::int32_t tag = 90 - k;
    events.push_back(ev(Kind::SendPosted, k, src, dst, 32, tag));
    if (k % 3 == 0) continue;  // posted, never started
    events.push_back(ev(Kind::TransferStart, k, src, dst, 32 + k % 2, tag));
    if (k % 3 == 1) {  // completed twice
      events.push_back(ev(Kind::TransferComplete, k + 1, src, dst, 32, tag));
      events.push_back(ev(Kind::TransferComplete, k + 2, src, dst, 32, tag));
    }
  }
  for (net::NodeId n = 0; n < 8; ++n) {
    events.push_back(ev(Kind::NodeDone, 80, n));
  }
  expect_streaming_matches_batch(events, 8);
  const std::vector<std::string> violations = validate_trace(events, 8);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.back().rfind("... and ", 0), 0u) << violations.back();
}

/// Appends one post, start and completion on (src, dst, tag).
void transfer(std::vector<TraceEvent>& events, util::SimTime t,
              net::NodeId src, net::NodeId dst, std::int64_t bytes,
              std::int32_t tag) {
  events.push_back(ev(Kind::SendPosted, t, src, dst, bytes, tag));
  events.push_back(ev(Kind::TransferStart, t, src, dst, bytes, tag));
  events.push_back(ev(Kind::TransferComplete, t + 1, src, dst, bytes, tag));
}

bool has_violation(const std::vector<std::string>& violations,
                   const std::string& text) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const std::string& v) {
                       return v.find(text) != std::string::npos;
                     });
}

// Keys that drain, open again and then fail. The validator keeps only
// open keys in its table, so the failure text must add back what each key
// moved while drained and print the same absolute counts as the batch
// reference.
TEST(StreamingAnalysis, MatchesBatchOnKeysThatDrainReopenAndFail) {
  std::vector<TraceEvent> events;
  // 0 -> 1 tag 5 drains twice, then completes once without a start.
  transfer(events, 0, 0, 1, 16, 5);
  transfer(events, 10, 0, 1, 16, 5);
  events.push_back(ev(Kind::TransferComplete, 20, 0, 1, 16, 5));
  // 0 -> 2 tag 5 drains, then delivers fewer bytes than it posted.
  transfer(events, 22, 0, 2, 32, 5);
  events.push_back(ev(Kind::SendPosted, 30, 0, 2, 32, 5));
  events.push_back(ev(Kind::TransferStart, 30, 0, 2, 32, 5));
  events.push_back(ev(Kind::TransferComplete, 31, 0, 2, 24, 5));
  for (net::NodeId n = 0; n < 3; ++n) {
    events.push_back(ev(Kind::NodeDone, 40, n));
  }
  expect_streaming_matches_batch(events, 3);
  const std::vector<std::string> violations = validate_trace(events, 3);
  EXPECT_TRUE(has_violation(violations,
                            "message 0->1 tag 5: counts out of order (posted "
                            "2, started 2, completed 3)"));
  EXPECT_TRUE(has_violation(violations,
                            "message 0->2 tag 5: bytes sent (64) != bytes "
                            "received (56) in a fault-free run"));

  // Under a fault the byte check is conservation: a start that carries
  // more than its post, after the key drained once.
  std::vector<TraceEvent> faulty;
  transfer(faulty, 0, 1, 0, 8, 3);
  faulty.push_back(ev(Kind::SendPosted, 10, 1, 0, 8, 3));
  faulty.push_back(ev(Kind::TransferStart, 10, 1, 0, 12, 3));
  faulty.push_back(ev(Kind::FaultDelay, 10, 1, 0, 12, 3));
  faulty.push_back(ev(Kind::TransferComplete, 11, 1, 0, 12, 3));
  faulty.push_back(ev(Kind::NodeDone, 20, 0));
  faulty.push_back(ev(Kind::NodeDone, 20, 1));
  expect_streaming_matches_batch(faulty, 2);
  EXPECT_TRUE(has_violation(validate_trace(faulty, 2),
                            "message 1->0 tag 3: byte counts not conserved "
                            "(posted 16 B, started 20 B, completed 20 B)"));
}

// A faulty trace that resends a dropped message on the same (src, dst,
// tag), as the resilient executor does: the key drains with the dropped
// copy (post, start, completion voided by a FaultDrop) and opens again
// for the retry, while the receiver's timed-out wait ends in between.
TEST(StreamingAnalysis, MatchesBatchOnRetryOfDroppedMessageOnSameKey) {
  std::vector<TraceEvent> events{
      ev(Kind::RecvPosted, 0, 1, 0, 0, 9),
      ev(Kind::SendPosted, 5, 0, 1, 40, 9),
      ev(Kind::TransferStart, 5, 0, 1, 40, 9),
      ev(Kind::TransferComplete, 45, 0, 1, 40, 9),
      ev(Kind::FaultDrop, 45, 0, 1, 40, 9),
      ev(Kind::RecvPosted, 50, 0, 1, 0, 10),
      ev(Kind::WaitTimeout, 60, 1, 0, 0, 9),
      ev(Kind::WaitTimeout, 70, 0, 1, 0, 10),
      ev(Kind::Compute, 90, 0, -1, 20),
      ev(Kind::RecvPosted, 90, 1, 0, 0, 9),
      ev(Kind::SendPosted, 95, 0, 1, 40, 9),
      ev(Kind::TransferStart, 95, 0, 1, 40, 9),
      ev(Kind::TransferComplete, 135, 0, 1, 40, 9),
      ev(Kind::SendPosted, 135, 1, 0, 2, 10),
      ev(Kind::TransferStart, 140, 1, 0, 2, 10),
      ev(Kind::TransferComplete, 141, 1, 0, 2, 10),
      ev(Kind::NodeDone, 150, 0),
      ev(Kind::NodeDone, 150, 1),
  };
  expect_streaming_matches_batch(events, 2);
  EXPECT_TRUE(validate_trace(events, 2).empty());
  const RunMetrics m = analyze(events, 2);
  EXPECT_EQ(m.transfers_dropped, 1);
  ASSERT_EQ(m.links.size(), 2u);
  EXPECT_EQ(m.links[0].messages, 1);  // 0 -> 1: only the retry arrived
}

// Hot receivers are tracked as posts arrive. In step 7 receiver 3 reaches
// the step's max before receiver 1 ties it; the lower peer still wins. In
// step 8 the lower peer leads and a higher one only ties; in step 9 a
// higher peer overtakes.
TEST(StreamingAnalysis, MatchesBatchWhenAHigherReceiverReachesTheMaxFirst) {
  std::vector<TraceEvent> events;
  const auto post = [&](util::SimTime t, net::NodeId src, net::NodeId dst,
                        std::int32_t tag) {
    events.push_back(ev(Kind::SendPosted, t, src, dst, 8, tag));
  };
  post(0, 0, 3, 7);
  post(1, 2, 3, 7);
  post(2, 0, 1, 7);
  post(3, 2, 1, 7);
  post(4, 0, 2, 8);
  post(5, 3, 2, 8);
  post(6, 0, 3, 8);
  post(7, 1, 3, 8);
  post(8, 1, 0, 9);
  post(9, 2, 3, 9);
  post(10, 1, 3, 9);
  for (net::NodeId n = 0; n < 4; ++n) {
    events.push_back(ev(Kind::NodeDone, 20, n));
  }
  expect_streaming_matches_batch(events, 4);
  const RunMetrics m = analyze(events, 4);
  ASSERT_EQ(m.steps.size(), 3u);
  EXPECT_EQ(m.steps[0].hot_receiver, 1);
  EXPECT_EQ(m.steps[0].max_receiver_messages, 2);
  EXPECT_EQ(m.steps[1].hot_receiver, 2);
  EXPECT_EQ(m.steps[2].hot_receiver, 3);
}

// Links delivered in descending (src, dst) order over 300 nodes, so both
// the src and the dst of the link key span more than one byte, plus two
// endpoints out of range (one negative): the link table must come out in
// the batch reference's ascending (src, dst) order.
TEST(StreamingAnalysis, MatchesBatchOnLinksCompletingInDescendingOrder) {
  const std::int32_t nprocs = 300;
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  for (net::NodeId src = 0; src < nprocs; src += 7) {
    for (std::int32_t k = 0; k < 4; ++k) {
      const net::NodeId dst = (src * 13 + k * 37 + 1) % nprocs;
      if (dst != src) pairs.emplace_back(src, dst);
    }
  }
  pairs.emplace_back(nprocs + 5, 2);
  pairs.emplace_back(4, -1);
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<TraceEvent> events;
  util::SimTime t = 0;
  for (auto it = pairs.rbegin(); it != pairs.rend(); ++it) {
    transfer(events, t, it->first, it->second, 64, 1);
    t += 2;
  }
  for (net::NodeId n = 0; n < nprocs; ++n) {
    events.push_back(ev(Kind::NodeDone, t, n));
  }
  expect_streaming_matches_batch(events, nprocs);
  const RunMetrics m = analyze(events, nprocs);
  ASSERT_EQ(m.links.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(std::make_pair(m.links[i].src, m.links[i].dst), pairs[i]);
  }
}

TEST(StreamingAnalysis, MatchesBatchOnRealRun) {
  const std::int32_t nprocs = 16;
  TraceRecorder recorder;
  Cm5Machine m(MachineParams::cm5_defaults(nprocs));
  const RunResult result = m.run_traced(
      [](Node& node) {
        sched::complete_exchange(node, sched::ExchangeAlgorithm::Recursive,
                                 256);
      },
      recorder.sink());
  expect_streaming_matches_batch(recorder.events(), nprocs, &result);
}

/// Runs `program` on `nprocs` nodes (under `plan`, when given) twice:
/// once through Cm5Machine::run_observed, once recorded into `twin` and
/// analyzed by the batch oracles. The two must agree byte for byte.
machine::ObservedRun expect_observed_matches_batch(
    std::int32_t nprocs, const machine::Program& program,
    TraceRecorder& twin, const FaultPlan* plan = nullptr) {
  Cm5Machine recorded(MachineParams::cm5_defaults(nprocs));
  Cm5Machine observed(MachineParams::cm5_defaults(nprocs));
  if (plan != nullptr) {
    recorded.set_fault_plan(*plan);
    observed.set_fault_plan(*plan);
  }
  const RunResult twin_result = recorded.run_traced(program, twin.sink());
  machine::ObservedRun run = observed.run_observed(program);
  EXPECT_EQ(run.result.makespan, twin_result.makespan);
  expect_matches_batch(run.metrics, run.violations, twin.events(), nprocs,
                       &twin_result);
  return run;
}

TEST(StreamingAnalysis, ConsumerOnRecorderMatchesPostHocAnalysis) {
  // The production wiring: run_observed feeds the consumers as events
  // commit, retains nothing and finalizes against the RunResult.
  TraceRecorder clean;
  const machine::ObservedRun run = expect_observed_matches_batch(
      8,
      [](Node& node) {
        sched::complete_exchange(node, sched::ExchangeAlgorithm::Linear, 128);
      },
      clean);
  EXPECT_TRUE(run.violations.empty());

  // The first 0 -> 1 transfer is dropped in flight: the live stream
  // carries a TransferComplete voided by the FaultDrop right after it,
  // which MetricsBuilder resolves only by running one event behind.
  FaultPlan drop_first;
  drop_first.targeted_drops.push_back({0, 1, 0});
  TraceRecorder faulty;
  expect_observed_matches_batch(
      4,
      [](Node& node) {
        if (node.self() == 0) {
          node.send_block(1, 64, 5);
          node.send_block(1, 64, 5);
        } else if (node.self() == 1) {
          node.receive_timeout(0, 5, util::from_us(10000));
          node.receive_timeout(0, 5, util::from_us(10000));
        }
      },
      faulty, &drop_first);
  EXPECT_EQ(faulty.count(Kind::FaultDrop), 1);
  const std::vector<TraceEvent>& events = faulty.events();
  EXPECT_NE(std::adjacent_find(events.begin(), events.end(),
                               [](const TraceEvent& a, const TraceEvent& b) {
                                 return a.kind == Kind::TransferComplete &&
                                        b.kind == Kind::FaultDrop;
                               }),
            events.end());
}

// --- CM5TRACE file roundtrip ------------------------------------------------

std::string temp_trace_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(TraceFile, RoundtripPreservesEveryEvent) {
  const std::string path = temp_trace_path("roundtrip.cm5trace");
  {
    TraceFileWriter writer(path, 4);
    for (const TraceEvent& e : faulty_trace()) writer.on_event(e);
    writer.finish();
    EXPECT_EQ(writer.count(),
              static_cast<std::int64_t>(faulty_trace().size()));
  }
  EXPECT_TRUE(is_trace_file(path));

  Collect read;
  const TraceFileInfo info = read_trace_file(path, &read);
  EXPECT_EQ(info.version, 1);
  EXPECT_EQ(info.nprocs, 4);
  EXPECT_EQ(info.events, static_cast<std::int64_t>(faulty_trace().size()));
  ASSERT_EQ(read.events.size(), faulty_trace().size());
  for (std::size_t i = 0; i < read.events.size(); ++i) {
    EXPECT_TRUE(same_event(read.events[i], faulty_trace()[i]))
        << "event " << i;
  }
  std::remove(path.c_str());
}

TEST(TraceFile, StreamedAnalysisOfFileMatchesBatch) {
  const std::string path = temp_trace_path("analyzed.cm5trace");
  {
    TraceFileWriter writer(path, 2);
    for (const TraceEvent& e : tiny_trace()) writer.on_event(e);
  }  // destructor finishes
  MetricsBuilder builder(2);
  read_trace_file(path, &builder);
  const RunMetrics streamed = builder.finalize(nullptr);
  const RunMetrics batch = analyze_batch(tiny_trace(), 2);
  EXPECT_EQ(streamed.to_json(true).dump(), batch.to_json(true).dump());
  std::remove(path.c_str());
}

TEST(TraceFile, TruncatedFileIsDiagnosedAsTruncated) {
  const std::string path = temp_trace_path("truncated.cm5trace");
  {
    TraceFileWriter writer(path, 2);
    for (const TraceEvent& e : tiny_trace()) writer.on_event(e);
    writer.finish();
  }
  // Chop the file mid-way: lose the trailer and part of an event line.
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 25), 0);

  try {
    read_trace_file(path, nullptr);
    FAIL() << "expected TraceFileError";
  } catch (const TraceFileError& e) {
    EXPECT_TRUE(e.truncated());
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "diagnosis must name the file: " << e.what();
  }
  std::remove(path.c_str());
}

TEST(TraceFile, MissingTrailerIsTruncated) {
  const std::string path = temp_trace_path("notrailer.cm5trace");
  {
    // Never finish(): simulate a writer that died mid-run. Write via a
    // plain file so the destructor cannot add the trailer.
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "CM5TRACE 1 nprocs=2\n");
    std::fprintf(f, "e 1 100 0 1 64 5\n");
    std::fclose(f);
  }
  try {
    read_trace_file(path, nullptr);
    FAIL() << "expected TraceFileError";
  } catch (const TraceFileError& e) {
    EXPECT_TRUE(e.truncated());
  }
  std::remove(path.c_str());
}

TEST(TraceFile, CountMismatchIsMalformedNotTruncated) {
  const std::string path = temp_trace_path("miscount.cm5trace");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "CM5TRACE 1 nprocs=2\n");
  std::fprintf(f, "e 1 100 0 1 64 5\n");
  std::fprintf(f, "end 7\n");
  std::fclose(f);
  try {
    read_trace_file(path, nullptr);
    FAIL() << "expected TraceFileError";
  } catch (const TraceFileError& e) {
    EXPECT_FALSE(e.truncated());
  }
  std::remove(path.c_str());
}

TEST(TraceFile, NonTraceFileIsSniffedOut) {
  const std::string path = temp_trace_path("notatrace.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "{\"bench\": \"x\"}\n");
  std::fclose(f);
  EXPECT_FALSE(is_trace_file(path));
  EXPECT_FALSE(is_trace_file(temp_trace_path("does-not-exist")));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cm5::sim
