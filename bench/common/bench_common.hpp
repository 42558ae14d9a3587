#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/broadcast.hpp"
#include "cm5/sched/complete_exchange.hpp"
#include "cm5/sched/executor.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/util/json.hpp"
#include "cm5/util/table.hpp"
#include "cm5/util/time.hpp"

/// \file bench_common.hpp
/// Shared helpers for the reproduction benches: timing wrappers, the
/// header every bench prints so its output is self-describing, and the
/// machine-readable metrics channel.
///
/// Every bench binary emits two artifacts:
///   * the text table on stdout (byte-stable — the paper comparison);
///   * a BENCH_<name>.json metrics file written via MetricsEmitter,
///     whose per-cell makespans are formatted with the exact same code
///     path as the table, so the two always reconcile.
///
/// Environment knobs (all optional):
///   CM5_BENCH_METRICS_DIR  directory for the JSON file (default ".")
///   CM5_BENCH_SMOKE=1      smoke mode: smoke_select() picks reduced
///                          size lists so CI can run every bench fast
///   CM5_BENCH_THREADS=N    worker threads for run_cells() sweeps
///                          (default: a small multiple of the hardware
///                          threads; 1 forces a serial sweep)
///   CM5_BENCH_DETERMINISTIC=1  zero all wall-clock fields in the JSON so
///                          parallel and serial sweeps are byte-identical

namespace cm5::bench {

/// Prints the standard bench banner: what paper artifact this
/// regenerates and the machine configuration in use.
void print_banner(const std::string& artifact, const std::string& what);

/// One observed simulation: the makespan the tables print plus the
/// trace-derived metrics and any invariant violations. Tracing is pure
/// observation — `makespan` is bit-identical to the untraced run.
struct Measured {
  util::SimDuration makespan = 0;
  sim::RunMetrics metrics;
  std::vector<std::string> violations;
  /// Host wall-clock spent simulating this cell, milliseconds. Purely a
  /// perf-trajectory observation: simulated results never depend on it,
  /// and CM5_BENCH_DETERMINISTIC=1 zeroes it in the JSON output.
  double wall_ms = 0.0;
  /// Solver work done by the fluid network for this cell
  /// (NetworkStats::rate_solves / flows_refrozen), deterministic run to
  /// run.
  std::int64_t rate_solves = 0;
  std::int64_t flows_refrozen = 0;
  /// Kernel context switches for this cell (RunResult::context_switches):
  /// fiber stack switches. Deterministic run to run.
  std::int64_t context_switches = 0;
};

/// Runs `program` on a machine with `params` through
/// Cm5Machine::run_observed: the trace is analyzed and validated as it
/// commits, never buffered (docs/METRICS.md "Streaming analysis").
Measured measure_program(const machine::MachineParams& params,
                         const machine::Program& program);

/// Observed complete exchange of `bytes` per pair on the default CM-5.
Measured measure_complete_exchange(std::int32_t nprocs,
                                   sched::ExchangeAlgorithm algorithm,
                                   std::int64_t bytes);

/// Observed broadcast of `bytes` from node 0 on the default CM-5.
Measured measure_broadcast(std::int32_t nprocs,
                           sched::BroadcastAlgorithm algorithm,
                           std::int64_t bytes);

/// Observed schedule execution for `pattern` on the default CM-5.
/// `step_barriers` matches the paper's step-synchronized runtime (§4).
Measured measure_scheduled_pattern(const sched::CommPattern& pattern,
                                   sched::Scheduler scheduler,
                                   bool step_barriers = true);

// --- legacy timing wrappers (makespan only, untraced) ----------------------

/// Time (simulated) of one complete exchange of `bytes` per pair.
util::SimDuration time_complete_exchange(std::int32_t nprocs,
                                         sched::ExchangeAlgorithm algorithm,
                                         std::int64_t bytes);

/// Time (simulated) of one broadcast of `bytes` from node 0.
util::SimDuration time_broadcast(std::int32_t nprocs,
                                 sched::BroadcastAlgorithm algorithm,
                                 std::int64_t bytes);

/// Time (simulated) of executing `scheduler`'s schedule for `pattern`.
util::SimDuration time_scheduled_pattern(const sched::CommPattern& pattern,
                                         sched::Scheduler scheduler,
                                         bool step_barriers = true);

/// Formats a simulated duration in ms with 3 decimals ("1.766").
std::string ms(util::SimDuration d);

/// Formats a simulated duration in seconds with 3 decimals ("14.780").
std::string secs(util::SimDuration d);

// --- parallel sweeps -------------------------------------------------------

/// Worker-thread count for run_cells: CM5_BENCH_THREADS when set (min 1),
/// otherwise one worker per hardware thread (min 2).
int bench_threads();

/// True when CM5_BENCH_DETERMINISTIC requests byte-stable JSON output
/// (wall-clock fields zeroed).
bool deterministic_mode();

/// Runs independent (algorithm, size, message-size) sweep cells on a
/// pool of bench_threads() workers and returns the results in input
/// order, so tables and metrics rows are emitted exactly as a serial
/// sweep would emit them. Cells must not share mutable state. The first
/// exception thrown by any cell is rethrown after the sweep drains.
std::vector<Measured> run_cells(std::vector<std::function<Measured()>> cells);

// --- smoke mode ------------------------------------------------------------

/// True when CM5_BENCH_SMOKE is set to a non-empty, non-"0" value.
bool smoke_mode();

/// The full parameter list normally; the reduced list in smoke mode.
/// Default output is untouched by the existence of the smoke list.
template <typename T>
std::vector<T> smoke_select(std::initializer_list<T> full,
                            std::initializer_list<T> smoke) {
  return smoke_mode() ? std::vector<T>(smoke) : std::vector<T>(full);
}

// --- metrics channel -------------------------------------------------------

/// Collects one JSON row per measured table cell and writes
/// BENCH_<name>.json on destruction (or explicit write()). The *_cell
/// helpers return the formatted string the table prints, so the JSON
/// "text" field and the stdout table can never disagree.
class MetricsEmitter {
 public:
  explicit MetricsEmitter(std::string bench_name);
  ~MetricsEmitter();  // best-effort write(); never throws

  MetricsEmitter(const MetricsEmitter&) = delete;
  MetricsEmitter& operator=(const MetricsEmitter&) = delete;

  /// Records `run` under `id` and returns ms(run.makespan) for the table.
  std::string ms_cell(const std::string& id, const Measured& run);
  /// Records `run` under `id` and returns secs(run.makespan).
  std::string secs_cell(const std::string& id, const Measured& run);
  /// Records a measured run with an explicit table string.
  void record(const std::string& id, const Measured& run, std::string text);
  /// Records a free-form JSON row (e.g. a resilient-run report).
  void record_json(const std::string& id, util::json::Value row);

  /// Attaches a reference "before" measurement to the whole-bench perf
  /// section (written as perf.baseline), so the JSON carries both the
  /// baseline numbers and this run's live total_wall_ms side by side.
  /// The value should say what was measured, on what, and when.
  void set_perf_baseline(util::json::Value baseline);

  /// Count of invariant violations across all recorded runs.
  std::int64_t violations_total() const noexcept { return violations_total_; }

  /// Writes the metrics file now (idempotent; destructor calls it too).
  /// Writes into CM5_BENCH_METRICS_DIR (default "."); prints a warning
  /// to stderr on I/O failure instead of throwing.
  void write();

 private:
  std::string bench_name_;
  util::json::Value rows_;
  util::json::Value perf_baseline_;
  bool has_perf_baseline_ = false;
  std::int64_t violations_total_ = 0;
  double start_wall_ms_ = 0.0;  ///< process clock at construction
  bool written_ = false;
};

}  // namespace cm5::bench
