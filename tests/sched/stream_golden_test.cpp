#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/stream.hpp"
#include "golden_regen.hpp"

/// Committed golden summary for the reference streaming scenario — the
/// same (nodes, requests, seed) triple bench/ext_stream's smoke rows
/// use, so a drift caught here is a drift in the published bench too.
/// The summary pins every service-level number the stream report makes
/// promises about: terminal-state population, edge accounting, excision,
/// flow control, and the latency percentiles.
///
/// To regenerate after an intentional model change:
///
///   CM5_REGEN_GOLDEN=1 ctest -R sched_stream_golden

#ifndef CM5_GOLDEN_DIR
#error "CM5_GOLDEN_DIR must be defined by the build (tests/sched/CMakeLists.txt)"
#endif

namespace cm5::sched {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;

std::string golden_path() {
  return std::string(CM5_GOLDEN_DIR) + "/stream_reference_16x60.summary";
}

std::string read_golden() {
  std::ifstream in(golden_path(), std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string summarize(const StreamReport& r) {
  std::ostringstream out;
  out << "requests_generated=" << r.requests_generated << '\n';
  out << "requests_admitted=" << r.requests_admitted << '\n';
  out << "requests_completed=" << r.requests_completed << '\n';
  out << "requests_shed=" << r.requests_shed << '\n';
  out << "requests_partial=" << r.requests_partial << '\n';
  out << "batches=" << r.batches << '\n';
  out << "edges_total=" << r.edges_total << '\n';
  out << "edges_delivered=" << r.edges_delivered << '\n';
  out << "edges_repaired=" << r.edges_repaired << '\n';
  out << "edges_lost=" << r.edges_lost << '\n';
  out << "retries=" << r.retries << '\n';
  out << "recv_timeouts=" << r.recv_timeouts << '\n';
  out << "request_retries=" << r.request_retries << '\n';
  out << "excised_nodes=";
  for (std::size_t i = 0; i < r.excised_nodes.size(); ++i) {
    out << (i ? "," : "") << r.excised_nodes[i];
  }
  out << '\n';
  out << "excision_events=" << r.excision_events << '\n';
  out << "backpressure_events=" << r.backpressure_events << '\n';
  out << "backpressure_ns=" << r.backpressure_ns << '\n';
  out << "shed_count=" << r.shed_count << '\n';
  out << "latency_queue_p50_ns=" << r.latency_queue.p50 << '\n';
  out << "latency_queue_p95_ns=" << r.latency_queue.p95 << '\n';
  out << "latency_queue_p99_ns=" << r.latency_queue.p99 << '\n';
  out << "latency_e2e_p50_ns=" << r.latency_e2e.p50 << '\n';
  out << "latency_e2e_p95_ns=" << r.latency_e2e.p95 << '\n';
  out << "latency_e2e_p99_ns=" << r.latency_e2e.p99 << '\n';
  out << "stream_makespan_ns=" << r.stream_makespan << '\n';
  out << "violations=" << r.violations.size() << '\n';
  return out.str();
}

TEST(StreamGolden, Reference16x60) {
  Cm5Machine m(MachineParams::cm5_defaults(16));
  const StreamOptions options = make_reference_stream_options(16, 60, 1);
  const StreamReport report = run_stream(m, options);
  ASSERT_TRUE(report.violations.empty())
      << "first violation: " << report.violations.front();
  const std::string text = summarize(report);

  if (test::golden_regen_requested()) {
    std::ofstream out(golden_path(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << text;
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  const std::string golden = read_golden();
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << golden_path()
      << " — run with CM5_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(text, golden)
      << "stream reference summary diverged from " << golden_path()
      << " (if intentional, regenerate with CM5_REGEN_GOLDEN=1)";
}

}  // namespace
}  // namespace cm5::sched
