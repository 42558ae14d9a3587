#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/broadcast.hpp"
#include "cm5/sched/complete_exchange.hpp"
#include "cm5/sim/golden_guard.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/sim/sanitizer.hpp"

/// Giant-partition regression battery (`ctest -L giantn`): the paper's
/// asymptotic claims checked at partition sizes the CM-5 never shipped
/// but the paper's analysis extrapolates to. These runs exist because
/// the fiber backend (pooled stacks, dense node state) makes N = 8192
/// affordable where thread-per-node could not even launch.
///
///  * REX (recursive exchange, §3.3): the headline lg N algorithm. The
///    trend assertion pins per-node step count to exactly lg N at every
///    size from 1024 to 8192 — the asymptotic claim, checked, not
///    eyeballed — and the N = 8192 run has a committed summary golden.
///  * LIB (linear broadcast, §3.4): N - 1 sequential sends from the
///    root; cheap even at N = 8192. Summary golden.
///  * BEX (balanced exchange, §3.2): Θ(N²) messages by construction —
///    at N = 8192 that is ~67 M flows, far past any smoke budget — so
///    its giant row runs at N = 1024 (~1 M flows), the largest size
///    that fits the tier-1 time budget. The REX rows carry the 8192
///    point; BEX's quadratic growth is exactly why the paper ranks REX
///    above it at scale.
///
/// Execution configuration is pinned, not inherited: giant runs always
/// use fiber stacks (8192 OS threads is not a thing a test host — or
/// TSAN — will do), also under CM5_EXEC_THREADS=1. The backend never
/// changes simulated results, so the goldens hold in every
/// configuration.
///
/// Regenerate after an intentional model change:
///
///   CM5_REGEN_GOLDEN=1 ctest -R GiantN
///
/// (refused under non-default execution configs — cm5/sim/golden_guard.hpp).

#ifndef CM5_GOLDEN_DIR
#error "CM5_GOLDEN_DIR must be defined by the build (tests/sched/CMakeLists.txt)"
#endif

namespace cm5::sched {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;
using machine::Node;

bool regen_mode() { return sim::golden_regen_requested(); }

std::string golden_path(const std::string& name) {
  return std::string(CM5_GOLDEN_DIR) + "/" + name + ".summary";
}

std::string read_golden(const std::string& name) {
  std::ifstream in(golden_path(name), std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_golden(const std::string& name, const std::string& text) {
  std::ofstream out(golden_path(name), std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << golden_path(name);
  out << text;
}

/// Same compact-summary format as large_exchange_golden_test: one line
/// per fact, so any divergence is a one-line reviewable diff.
std::string summarize(const sim::RunResult& r) {
  std::int64_t sends = 0;
  std::int64_t receives = 0;
  std::int64_t global_ops = 0;
  for (const sim::NodeCounters& c : r.node_counters) {
    sends += c.sends;
    receives += c.receives;
    global_ops += c.global_ops;
  }
  std::ostringstream out;
  out << "makespan_ns=" << r.makespan << '\n';
  out << "sends=" << sends << '\n';
  out << "receives=" << receives << '\n';
  out << "global_ops=" << global_ops << '\n';
  out << "flows_started=" << r.network.flows_started << '\n';
  out << "flows_completed=" << r.network.flows_completed << '\n';
  return out.str();
}

/// Fiber-stack execution regardless of environment.
Cm5Machine giant_machine(std::int32_t nprocs) {
  Cm5Machine m(MachineParams::cm5_defaults(nprocs));
  m.set_execution_model(sim::ExecutionModel::kFibers);
  return m;
}

/// Sanitizers break the giant runs' budgets: ThreadSanitizer multiplies
/// wall time, and AddressSanitizer's shadow memory alone is several times
/// the RSS budget. The trend still gets checked at the sizes that fit,
/// and the 8192 goldens and the RSS budget run in every non-sanitizer
/// build.
constexpr bool reduced_budget() { return CM5_ASAN || CM5_TSAN; }

void check_golden(const std::string& name, const sim::RunResult& r) {
  const std::string text = summarize(r);
  if (regen_mode()) {
    write_golden(name, text);
    GTEST_SKIP() << "regenerated " << golden_path(name);
  }
  const std::string golden = read_golden(name);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << golden_path(name)
      << " — run with CM5_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(text, golden)
      << name << ": summary diverged from " << golden_path(name)
      << " (if intentional, regenerate with CM5_REGEN_GOLDEN=1)";
}

TEST(GiantN, RecursiveExchangeScalesAsLgN) {
  // One REX run per size; every node must take exactly lg N exchange
  // steps (one send per step), and makespan must grow strictly — the
  // lg N claim plus sanity that bigger machines do more work. The
  // N = 8192 run doubles as the golden measurement.
  const std::vector<std::int32_t> sizes =
      reduced_budget() ? std::vector<std::int32_t>{1024, 2048}
                       : std::vector<std::int32_t>{1024, 2048, 4096, 8192};
  util::SimTime prev_makespan = 0;
  for (const std::int32_t n : sizes) {
    std::int32_t lg = 0;
    while ((1 << lg) < n) ++lg;
    Cm5Machine m = giant_machine(n);
    const sim::RunResult r = m.run([&](Node& node) {
      complete_exchange(node, ExchangeAlgorithm::Recursive, 64);
    });
    for (const sim::NodeCounters& c : r.node_counters) {
      ASSERT_EQ(c.sends, lg) << "N=" << n << ": REX must take lg N steps";
    }
    EXPECT_EQ(r.network.flows_completed,
              static_cast<std::int64_t>(n) * lg)
        << "N=" << n;
    EXPECT_GT(r.makespan, prev_makespan) << "N=" << n;
    prev_makespan = r.makespan;
    if (n == 8192) check_golden("giantn_rex_8192x64", r);
  }
}

TEST(GiantN, StreamingRex8192AnalyzesUnderRssBudget) {
  // The streaming trace pipeline's reason to exist: a *traced and fully
  // analyzed* N = 8192 REX run without ever materializing the event
  // vector. Cm5Machine::run_observed streams the run into
  // MetricsBuilder/TraceValidator and must fit a peak-RSS budget that
  // the batch path (vector + multi-pass maps) measurably exceeds — the
  // before/after numbers live in docs/PERF.md "Streaming analysis".
  if (reduced_budget()) {
    GTEST_SKIP() << "RSS budget is calibrated for non-sanitizer builds";
  }
  const std::int32_t n = 8192;
  const std::int32_t lg = 13;
  Cm5Machine m = giant_machine(n);
  const machine::ObservedRun run = m.run_observed([&](Node& node) {
    complete_exchange(node, ExchangeAlgorithm::Recursive, 64);
  });
  EXPECT_TRUE(run.violations.empty());
  for (const std::string& v : run.violations) ADD_FAILURE() << v;
  const sim::RunMetrics& metrics = run.metrics;
  EXPECT_EQ(metrics.makespan, run.result.makespan);
  EXPECT_EQ(metrics.messages_posted, static_cast<std::int64_t>(n) * lg);
  EXPECT_EQ(metrics.observed_steps(), lg);

  struct rusage usage{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  std::printf("peak_rss_kb=%ld\n", usage.ru_maxrss);
  // Calibrated against docs/PERF.md "Streaming analysis": ~170 MB
  // measured on the reference container (the seed materialized 3.9 GB
  // here: O(N²) route table + O(E) trace vector). The batch path fits
  // this budget only on short traces — at 4× the trace length it is
  // past 290 MB while streaming stays flat — so the bound pins the
  // O(state) claim without needing a giant run.
  EXPECT_LT(usage.ru_maxrss, 256 * 1024L)
      << "streaming analysis lost its O(state) memory bound";
}

TEST(GiantN, LinearBroadcast8192Golden) {
  if (reduced_budget()) {
    GTEST_SKIP() << "giant goldens are covered by non-sanitizer builds";
  }
  Cm5Machine m = giant_machine(8192);
  const sim::RunResult r = m.run([&](Node& node) {
    broadcast(node, BroadcastAlgorithm::Linear, 0, 64);
  });
  EXPECT_EQ(r.network.flows_completed, 8191);
  check_golden("giantn_lib_8192x64", r);
}

TEST(GiantN, BalancedExchange1024Golden) {
  Cm5Machine m = giant_machine(1024);
  const sim::RunResult r = m.run([&](Node& node) {
    complete_exchange(node, ExchangeAlgorithm::Balanced, 64);
  });
  // N - 1 partners per node: the quadratic message volume that keeps
  // BEX out of the 8192 row.
  EXPECT_EQ(r.network.flows_completed, std::int64_t{1024} * 1023);
  check_golden("giantn_bex_1024x64", r);
}

}  // namespace
}  // namespace cm5::sched
