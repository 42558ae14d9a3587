#include "cm5/sim/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/complete_exchange.hpp"
#include "cm5/sim/trace.hpp"
#include "cm5/util/time.hpp"
#include "batch_analysis.hpp"

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

/// A minimal, fully hand-checkable trace: node 0 computes 100 ns, posts
/// a 64 B send to node 1 (tag 5) that completes at t=300; node 1 posts
/// its receive at t=0 and blocks the whole run.
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

TEST(MetricsAnalyze, TinyTraceBreakdown) {
  const RunMetrics m = analyze(tiny_trace(), 2);
  EXPECT_EQ(m.nprocs, 2);
  EXPECT_EQ(m.makespan, 300);
  EXPECT_EQ(m.num_events, 7);
  EXPECT_EQ(m.messages_posted, 1);
  EXPECT_EQ(m.transfers_started, 1);
  EXPECT_EQ(m.transfers_completed, 1);
  EXPECT_EQ(m.transfers_dropped, 0);
  EXPECT_EQ(m.bytes_posted, 64);
  EXPECT_EQ(m.bytes_delivered, 64);

  ASSERT_EQ(m.nodes.size(), 2u);
  const NodeTimeBreakdown& n0 = m.nodes[0];
  EXPECT_EQ(n0.compute, 100);
  EXPECT_EQ(n0.send_wait, 200);  // blocked in the rendezvous 100..300
  EXPECT_EQ(n0.recv_wait, 0);
  EXPECT_EQ(n0.idle_tail, 0);
  EXPECT_EQ(n0.messages_out, 1);
  EXPECT_EQ(n0.bytes_out, 64);
  EXPECT_EQ(n0.port_busy, 100);  // one transfer in flight 200..300

  const NodeTimeBreakdown& n1 = m.nodes[1];
  EXPECT_EQ(n1.recv_wait, 300);  // posted at 0, released at NodeDone
  EXPECT_EQ(n1.compute, 0);
  EXPECT_EQ(n1.messages_in, 1);
  EXPECT_EQ(n1.bytes_in, 64);

  // Step structure recovered from the tag.
  ASSERT_EQ(m.steps.size(), 1u);
  EXPECT_EQ(m.steps[0].tag, 5);
  EXPECT_EQ(m.steps[0].first_post, 100);
  EXPECT_EQ(m.steps[0].last_complete, 300);
  EXPECT_EQ(m.steps[0].messages, 1);
  EXPECT_EQ(m.steps[0].max_receiver_messages, 1);
  EXPECT_EQ(m.steps[0].hot_receiver, 1);

  ASSERT_EQ(m.links.size(), 1u);
  EXPECT_EQ(m.links[0].src, 0);
  EXPECT_EQ(m.links[0].dst, 1);
  EXPECT_EQ(m.links[0].bytes, 64);

  EXPECT_EQ(m.max_pending, 1);
  EXPECT_EQ(m.hot_node, 1);
  EXPECT_TRUE(validate_trace(tiny_trace(), 2).empty());
}

TEST(MetricsAnalyze, TimePartitionIsExactPerNode) {
  // On a real run, compute + waits + idle_tail must tile each node's
  // lifetime exactly — the breakdown is a partition, not an estimate.
  Cm5Machine m(MachineParams::cm5_defaults(8));
  TraceRecorder recorder;
  const RunResult r = m.run_traced(
      [](Node& node) {
        node.compute(util::from_us(10 * (node.self() + 1)));
        sched::run_pairwise_exchange(node, 256);
      },
      recorder.sink());
  const RunMetrics metrics = analyze(recorder, 8, &r);
  EXPECT_EQ(metrics.makespan, r.makespan);
  for (const NodeTimeBreakdown& n : metrics.nodes) {
    EXPECT_EQ(n.compute + n.total_wait() + n.idle_tail, metrics.makespan)
        << "node " << n.node;
    EXPECT_EQ(n.finish + n.idle_tail, metrics.makespan) << "node " << n.node;
  }
  EXPECT_EQ(metrics.messages_posted, 8 * 7);
  EXPECT_EQ(metrics.transfers_completed, 8 * 7);
  EXPECT_EQ(validation_report(recorder.events(), 8, &r), "");
}

TEST(MetricsAnalyze, LinearExchangeSerializesAtHotReceiver) {
  // Paper §3.1 vs §3.2: LEX aims N-1 simultaneous sends at one receiver
  // per step (blocked senders pile up); PEX pairs everyone off.
  constexpr std::int32_t kProcs = 16;
  const auto run = [&](sched::ExchangeAlgorithm alg) {
    Cm5Machine m(MachineParams::cm5_defaults(kProcs));
    TraceRecorder recorder;
    const RunResult r = m.run_traced(
        [alg](Node& node) { sched::complete_exchange(node, alg, 0); },
        recorder.sink());
    EXPECT_EQ(validation_report(recorder.events(), kProcs, &r), "");
    return analyze(recorder, kProcs, &r);
  };

  const RunMetrics lex = run(sched::ExchangeAlgorithm::Linear);
  const RunMetrics pex = run(sched::ExchangeAlgorithm::Pairwise);

  EXPECT_EQ(lex.max_pending, kProcs - 1);
  EXPECT_EQ(lex.max_step_receiver_messages(), kProcs - 1);
  EXPECT_LE(pex.max_pending, 2);
  EXPECT_EQ(pex.max_step_receiver_messages(), 1);
  // The mechanism shows up as send-wait time, not just a makespan.
  EXPECT_GT(lex.total_send_wait(), 4 * pex.total_send_wait());
  EXPECT_GT(lex.makespan, pex.makespan);
  // Step identity from tags: LEX runs N steps, PEX N-1.
  EXPECT_EQ(lex.observed_steps(), kProcs);
  EXPECT_EQ(pex.observed_steps(), kProcs - 1);
}

TEST(MetricsAnalyze, RecursiveExchangeRunsLgNSteps) {
  constexpr std::int32_t kProcs = 16;
  Cm5Machine m(MachineParams::cm5_defaults(kProcs));
  TraceRecorder recorder;
  const RunResult r = m.run_traced(
      [](Node& node) { sched::run_recursive_exchange(node, 0); },
      recorder.sink());
  const RunMetrics metrics = analyze(recorder, kProcs, &r);
  EXPECT_EQ(metrics.observed_steps(), 4);  // lg 16
  EXPECT_EQ(validation_report(recorder.events(), kProcs, &r), "");
}

TEST(MetricsAnalyze, JsonSummaryAndFullForms) {
  Cm5Machine m(MachineParams::cm5_defaults(4));
  TraceRecorder recorder;
  const RunResult r = m.run_traced(
      [](Node& node) { sched::run_pairwise_exchange(node, 128); },
      recorder.sink());
  const RunMetrics metrics = analyze(recorder, 4, &r);

  const util::json::Value summary = metrics.to_json();
  EXPECT_EQ(summary.at("makespan_ns").as_int(), r.makespan);
  EXPECT_EQ(summary.at("totals").at("messages_posted").as_int(), 4 * 3);
  EXPECT_TRUE(summary.at("time_ns").contains("send_wait"));
  EXPECT_TRUE(summary.at("contention").contains("max_pending"));
  EXPECT_FALSE(summary.contains("nodes"));

  const util::json::Value full = metrics.to_json(/*full=*/true);
  EXPECT_EQ(full.at("nodes").size(), 4u);
  EXPECT_EQ(full.at("steps").size(), 3u);
  EXPECT_EQ(full.at("links").size(), 4u * 3u);
  // The JSON is parseable and deterministic.
  EXPECT_EQ(util::json::Value::parse(full.dump(2)).dump(2), full.dump(2));
}

TEST(MetricsValidate, CatchesTimeReversal) {
  auto events = tiny_trace();
  // Node 0 "computes" at t=50 after its t=100 send post: a node action
  // moving backwards in virtual time.
  events.insert(events.begin() + 3, ev(Kind::Compute, 50, 0, -1, 10));
  const auto violations = validate_trace(events, 2);
  ASSERT_FALSE(violations.empty());
  bool mentions_monotonic = false;
  for (const std::string& v : violations) {
    if (v.find("non-monotonic") != std::string::npos ||
        v.find("decreas") != std::string::npos ||
        v.find("backward") != std::string::npos) {
      mentions_monotonic = true;
    }
  }
  EXPECT_TRUE(mentions_monotonic) << validation_report(events, 2);
}

TEST(MetricsValidate, CatchesMissingCompletion) {
  auto events = tiny_trace();
  // Remove the TransferComplete: without faults, every start must finish.
  events.erase(events.begin() + 4);
  EXPECT_FALSE(validate_trace(events, 2).empty());
}

TEST(MetricsValidate, CatchesByteMismatch) {
  auto events = tiny_trace();
  events[4].bytes = 32;  // TransferComplete delivers fewer bytes than posted
  EXPECT_FALSE(validate_trace(events, 2).empty());
}

TEST(MetricsValidate, CatchesBadNodeIdAndNegativeTime) {
  {
    auto events = tiny_trace();
    events[1].node = 7;  // nprocs == 2
    EXPECT_FALSE(validate_trace(events, 2).empty());
  }
  {
    auto events = tiny_trace();
    events[0].time = -1;
    EXPECT_FALSE(validate_trace(events, 2).empty());
  }
}

TEST(MetricsValidate, FaultEventsRelaxCompleteness) {
  // A dropped in-flight message legitimately never completes; the
  // completeness and conservation checks must stand down when fault
  // events are present rather than flag every resilient run.
  std::vector<TraceEvent> events = {
      ev(Kind::RecvPosted, 0, 1, 0, 0, 5),
      ev(Kind::SendPosted, 0, 0, 1, 64, 5),
      ev(Kind::TransferStart, 100, 0, 1, 64, 5),
      ev(Kind::FaultDrop, 150, 0, 1, 64, 5),
      ev(Kind::WaitTimeout, 500, 1, 0, 0, 5),
      ev(Kind::NodeDone, 500, 0),
      ev(Kind::NodeDone, 500, 1),
  };
  EXPECT_TRUE(validate_trace(events, 2).empty())
      << validation_report(events, 2);
  const RunMetrics m = analyze(events, 2);
  EXPECT_EQ(m.transfers_dropped, 1);
  EXPECT_EQ(m.bytes_dropped, 64);
  EXPECT_EQ(m.bytes_delivered, 0);
}

TEST(MetricsValidate, EmptyTraceIsValid) {
  EXPECT_TRUE(validate_trace(std::vector<TraceEvent>{}, 0).empty());
  const RunMetrics m = analyze(std::vector<TraceEvent>{}, 0);
  EXPECT_EQ(m.num_events, 0);
  EXPECT_EQ(m.makespan, 0);
  EXPECT_TRUE(m.nodes.empty());
}

TEST(MetricsValidate, MakespanCrossCheckAgainstRunResult) {
  Cm5Machine m(MachineParams::cm5_defaults(4));
  TraceRecorder recorder;
  const RunResult r = m.run_traced(
      [](Node& node) { node.compute(util::from_us(5)); }, recorder.sink());
  EXPECT_TRUE(validate_trace(recorder.events(), 4, &r).empty());
  // Doctor a NodeDone beyond the kernel's makespan: cross-check fires.
  auto events = recorder.events();
  for (TraceEvent& e : events) {
    if (e.kind == Kind::NodeDone && e.node == 0) e.time += 1000;
  }
  EXPECT_FALSE(validate_trace(events, 4, &r).empty());
}

}  // namespace
}  // namespace cm5::sim
