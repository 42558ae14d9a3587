#include "common/bench_common.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "cm5/util/parallel.hpp"

namespace cm5::bench {

namespace {

double wall_now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Copies one observed run into a Measured cell.
Measured measured(machine::ObservedRun run, double wall_ms) {
  Measured out;
  out.wall_ms = wall_ms;
  out.makespan = run.result.makespan;
  out.rate_solves = run.result.network.rate_solves;
  out.flows_refrozen = run.result.network.flows_refrozen;
  out.context_switches = run.result.context_switches;
  out.metrics = std::move(run.metrics);
  out.violations = std::move(run.violations);
  return out;
}

}  // namespace

void print_banner(const std::string& artifact, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), what.c_str());
  std::printf("Simulated CM-5 (paper §2): 20-byte packets (16 user bytes),\n");
  std::printf("88 us zero-byte message, 20/10/5 MB/s per-node fat-tree\n");
  std::printf("profile, 4 us control-network ops, synchronous (rendezvous)\n");
  std::printf("CMMD messaging. Times below are *simulated* machine times.\n");
  std::printf("==============================================================\n");
}

Measured measure_program(const machine::MachineParams& params,
                         const machine::Program& program) {
  machine::Cm5Machine m(params);
  const double t0 = wall_now_ms();
  machine::ObservedRun run = m.run_observed(program);
  return measured(std::move(run), wall_now_ms() - t0);
}

Measured measure_complete_exchange(std::int32_t nprocs,
                                   sched::ExchangeAlgorithm algorithm,
                                   std::int64_t bytes) {
  return measure_program(
      machine::MachineParams::cm5_defaults(nprocs),
      [&](machine::Node& node) {
        sched::complete_exchange(node, algorithm, bytes);
      });
}

Measured measure_broadcast(std::int32_t nprocs,
                           sched::BroadcastAlgorithm algorithm,
                           std::int64_t bytes) {
  return measure_program(
      machine::MachineParams::cm5_defaults(nprocs),
      [&](machine::Node& node) { sched::broadcast(node, algorithm, 0, bytes); });
}

Measured measure_scheduled_pattern(const sched::CommPattern& pattern,
                                   sched::Scheduler scheduler,
                                   bool step_barriers) {
  machine::Cm5Machine m(machine::MachineParams::cm5_defaults(pattern.nprocs()));
  sched::ExecutorOptions options;
  options.barrier_per_step = step_barriers;
  const double t0 = wall_now_ms();
  machine::ObservedRun run =
      sched::run_scheduled_pattern_observed(m, scheduler, pattern, options);
  return measured(std::move(run), wall_now_ms() - t0);
}

util::SimDuration time_complete_exchange(std::int32_t nprocs,
                                         sched::ExchangeAlgorithm algorithm,
                                         std::int64_t bytes) {
  machine::Cm5Machine m(machine::MachineParams::cm5_defaults(nprocs));
  return m
      .run([&](machine::Node& node) {
        sched::complete_exchange(node, algorithm, bytes);
      })
      .makespan;
}

util::SimDuration time_broadcast(std::int32_t nprocs,
                                 sched::BroadcastAlgorithm algorithm,
                                 std::int64_t bytes) {
  machine::Cm5Machine m(machine::MachineParams::cm5_defaults(nprocs));
  return m
      .run([&](machine::Node& node) {
        sched::broadcast(node, algorithm, 0, bytes);
      })
      .makespan;
}

util::SimDuration time_scheduled_pattern(const sched::CommPattern& pattern,
                                         sched::Scheduler scheduler,
                                         bool step_barriers) {
  machine::Cm5Machine m(
      machine::MachineParams::cm5_defaults(pattern.nprocs()));
  sched::ExecutorOptions options;
  options.barrier_per_step = step_barriers;
  return sched::run_scheduled_pattern(m, scheduler, pattern, options).makespan;
}

std::string ms(util::SimDuration d) {
  return util::TextTable::fmt(util::to_ms(d), 3);
}

std::string secs(util::SimDuration d) {
  return util::TextTable::fmt(util::to_seconds(d), 3);
}

namespace {

bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

bool smoke_mode() { return env_truthy("CM5_BENCH_SMOKE"); }

bool deterministic_mode() { return env_truthy("CM5_BENCH_DETERMINISTIC"); }

int bench_threads() {
  if (const char* v = std::getenv("CM5_BENCH_THREADS");
      v != nullptr && v[0] != '\0') {
    const int n = std::atoi(v);
    return n >= 1 ? n : 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  // A simulated machine keeps its driver thread busy the whole run, so
  // one cell per hardware thread suffices — but always keep at least two
  // workers, so a long tail cell can overlap stack setup / page-fault
  // stalls of the next one even on single-core hosts.
  return static_cast<int>(hw >= 2 ? hw : 2);
}

std::vector<Measured> run_cells(std::vector<std::function<Measured()>> cells) {
  std::vector<Measured> results(cells.size());
  util::parallel_for(cells.size(), bench_threads(),
                     [&](std::size_t i) { results[i] = cells[i](); });
  return results;
}

MetricsEmitter::MetricsEmitter(std::string bench_name)
    : bench_name_(std::move(bench_name)),
      rows_(util::json::Value::array()),
      start_wall_ms_(wall_now_ms()) {}

MetricsEmitter::~MetricsEmitter() {
  try {
    write();
  } catch (...) {
    // Destructor must not throw; write() already reports to stderr.
  }
}

std::string MetricsEmitter::ms_cell(const std::string& id,
                                    const Measured& run) {
  std::string text = ms(run.makespan);
  record(id, run, text);
  return text;
}

std::string MetricsEmitter::secs_cell(const std::string& id,
                                      const Measured& run) {
  std::string text = secs(run.makespan);
  record(id, run, text);
  return text;
}

void MetricsEmitter::record(const std::string& id, const Measured& run,
                            std::string text) {
  using util::json::Value;
  Value row = Value::object();
  row["id"] = id;
  if (!text.empty()) row["text"] = std::move(text);
  row["makespan_ns"] = run.makespan;
  row["makespan_ms"] = util::to_ms(run.makespan);
  Value perf = Value::object();
  perf["wall_ms"] = deterministic_mode() ? 0.0 : run.wall_ms;
  perf["rate_solves"] = run.rate_solves;
  perf["flows_refrozen"] = run.flows_refrozen;
  perf["context_switches"] = run.context_switches;
  row["perf"] = std::move(perf);
  row["metrics"] = run.metrics.to_json();
  if (!run.violations.empty()) {
    Value v = Value::array();
    for (const std::string& s : run.violations) v.push_back(s);
    row["violations"] = std::move(v);
    violations_total_ += static_cast<std::int64_t>(run.violations.size());
  }
  rows_.push_back(std::move(row));
  written_ = false;
}

void MetricsEmitter::record_json(const std::string& id,
                                 util::json::Value row) {
  using util::json::Value;
  Value wrapped = Value::object();
  wrapped["id"] = id;
  wrapped["report"] = std::move(row);
  rows_.push_back(std::move(wrapped));
  written_ = false;
}

void MetricsEmitter::write() {
  if (written_) return;
  using util::json::Value;
  Value root = Value::object();
  root["bench"] = bench_name_;
  root["smoke"] = smoke_mode();
  root["exec_backend"] = "fibers";
  root["violations_total"] = violations_total_;
  if (!deterministic_mode()) {
    // Whole-bench perf trajectory; omitted in deterministic mode so that
    // serial and parallel sweeps produce byte-identical files.
    Value perf = Value::object();
    perf["total_wall_ms"] = wall_now_ms() - start_wall_ms_;
    perf["threads"] = static_cast<std::int64_t>(bench_threads());
    // Peak resident set of the whole bench process (ru_maxrss is KB on
    // Linux) — the perf-smoke gate watches this alongside wall time to
    // catch memory regressions, e.g. streaming mode losing its O(state)
    // bound.
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
      perf["peak_rss_kb"] = static_cast<std::int64_t>(usage.ru_maxrss);
    }
    root["perf"] = std::move(perf);
  }
  root["rows"] = rows_;  // copy: emitter stays usable after write()
  const char* dir = std::getenv("CM5_BENCH_METRICS_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0') ? std::string(dir)
                                                        : std::string(".");
  if (path.back() != '/') path += '/';
  path += "BENCH_" + bench_name_ + ".json";
  try {
    util::json::write_file(path, root);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: could not write metrics file %s: %s\n",
                 path.c_str(), e.what());
    return;
  }
  written_ = true;
}

}  // namespace cm5::bench
