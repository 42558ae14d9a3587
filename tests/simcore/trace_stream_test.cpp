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
/// by an immediately following FaultDrop) and an unmatched start.
std::vector<TraceEvent> faulty_trace() {
  return {
      ev(Kind::SendPosted, 10, 0, 1, 32, 1),
      ev(Kind::TransferStart, 20, 0, 1, 32, 1),
      ev(Kind::TransferComplete, 90, 0, 1, 32, 1),
      ev(Kind::FaultDrop, 90, 0, 1, 32, 1),
      ev(Kind::SendPosted, 100, 2, 3, 48, 2),
      ev(Kind::TransferStart, 110, 2, 3, 48, 2),
      ev(Kind::FaultKill, 120, 3),
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

void expect_stream_matches_batch(const std::vector<TraceEvent>& events,
                                 std::int32_t nprocs,
                                 const RunResult* result = nullptr) {
  const RunMetrics batch = analyze_batch(events, nprocs, result);
  MetricsBuilder builder(nprocs);
  for (const TraceEvent& e : events) builder.on_event(e);
  const RunMetrics streamed = builder.finalize(result);
  EXPECT_EQ(streamed.to_json(true).dump(), batch.to_json(true).dump());

  const auto batch_violations = validate_trace_batch(events, nprocs, result);
  TraceValidator validator(nprocs);
  for (const TraceEvent& e : events) validator.on_event(e);
  EXPECT_EQ(validator.finalize(result), batch_violations);
}

// --- recorder ---------------------------------------------------------------

TEST(TraceRecorderStream, ForNodeUsesIndexAndSeesActorAndPeer) {
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
  expect_stream_matches_batch(tiny_trace(), 2);
}

TEST(StreamingAnalysis, MatchesBatchOnFaultyTrace) {
  expect_stream_matches_batch(faulty_trace(), 4);
}

TEST(StreamingAnalysis, MatchesBatchOnViolatingTrace) {
  expect_stream_matches_batch(violating_trace(), 2);
}

TEST(StreamingAnalysis, MatchesBatchOnEmptyTrace) {
  expect_stream_matches_batch({}, 4);
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
  expect_stream_matches_batch(recorder.events(), nprocs, &result);
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
  EXPECT_EQ(run.metrics.to_json(true).dump(),
            analyze_batch(twin.events(), nprocs, &twin_result)
                .to_json(true)
                .dump());
  EXPECT_EQ(run.violations,
            validate_trace_batch(twin.events(), nprocs, &twin_result));
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
