#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cm5/sim/kernel.hpp"
#include "cm5/util/time.hpp"
#include "spans.hpp"

/// \file workloads.hpp
/// The benchmark's workloads. Each is a list of cells; a cell is one call
/// sequence into the library exactly as the production benches make it
/// (Cm5Machine ctor -> run_traced with a TraceRecorder -> sim::analyze ->
/// sim::validate_trace), or one sched::run_stream call. The benchmark times
/// run_cell() and checks finish_cell() outside the timed region.

namespace cm5bench {

/// Deterministic work counters, summed over one pass.
struct Counters {
  std::int64_t rate_solves = 0;
  std::int64_t heap_pops = 0;
  std::int64_t flows_started = 0;
  std::int64_t flows_completed = 0;
  std::int64_t events = 0;
  std::int64_t context_switches = 0;
  std::int64_t speculative_grants = 0;
  std::int64_t steps = 0;
  std::int64_t batches = 0;
  std::int64_t retries = 0;
  std::int64_t recv_timeouts = 0;

  void add_run(const cm5::sim::RunResult& result);
  bool operator==(const Counters&) const = default;
};

/// What one cell produced.
struct CellOutcome {
  std::string id;
  cm5::util::SimTime makespan = 0;
  /// FNV-1a of the cell's summary JSON (RunMetrics::to_json() or
  /// StreamReport::to_json(false)).
  std::uint64_t digest = 0;
  std::int64_t ops = 1;  ///< ops the cell stands for (stream: requests)
  std::int64_t failed_ops = 0;
  std::vector<std::string> failures;

  /// Records a broken check; every op of the cell then counts as failed.
  void fail(std::string what);
};

/// A cell re-run in verification, after the passes, with no trace sink
/// attached.
struct Replay {
  cm5::util::SimTime makespan = 0;
  std::int64_t run_ns = 0;  ///< host time of the run call alone
  std::vector<std::string> failures;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Performs the lazy initialization of a process's first run (fiber
  /// stacks, allocator arenas) on the workload's largest partition, which
  /// the first timed pass would otherwise pay. Part of every set-up.
  virtual void warm_up() = 0;
  /// Generates the inputs from the seed, replacing any earlier inputs.
  /// The benchmark times warm_up() + setup() several times and reports
  /// the median.
  virtual void setup(SpanLog* spans) = 0;
  virtual std::size_t num_cells() const = 0;
  /// Readies the inputs cell `i` consumes, untimed, right before
  /// run_cell(i): benchmark work that is not a library call.
  virtual void prepare_cell(std::size_t i) { (void)i; }
  /// Runs cell `i`; timed by the caller. Records layer spans when
  /// `spans` is non-null.
  virtual void run_cell(std::size_t i, SpanLog* spans) = 0;
  /// Checks and releases what run_cell(i) left behind (untimed) and adds
  /// the cell's work counters.
  virtual CellOutcome finish_cell(std::size_t i, Counters& counters) = 0;
  /// Re-runs cell `i` untraced; checks what a replay can check.
  virtual Replay replay_cell(std::size_t i) = 0;
  /// Host ns of the traced run of cell `i`'s phantom-payload twin; 0 for
  /// workloads whose payloads are phantom already.
  virtual std::int64_t twin_run_ns(std::size_t i) {
    (void)i;
    return 0;
  }
  /// Span whose durations give the per-unit host-time percentiles (a
  /// cell, or a stream batch).
  virtual const char* unit_span() const { return "cell"; }
  /// Span of the call replay_cell() repeats without a trace sink.
  virtual const char* run_span() const { return "machine.run"; }
};

/// The workload names, in the order run.sh runs them.
const std::vector<std::string>& workload_names();

/// Builds a workload; nullptr for an unknown name. `smoke` selects the
/// reduced sizes of the self-test.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke);

/// 64-bit FNV-1a.
std::uint64_t fnv1a(std::string_view bytes);

}  // namespace cm5bench
