/// cm5bench — the repository benchmark. Runs one workload in this
/// process: set-up (repeated, median reported), timed passes over the
/// workload's cells, then an untimed verification step. Every host time
/// is scaled to the host's reference speed (host_speed.hpp). Prints one
/// `workload metric value unit` line per metric and, last, one JSON
/// result line; writes out/<workload>.json, plus out/<workload>.spans.json
/// (Chrome Trace Event format) when traced.
///
///   cm5bench --workload W [--seed S] [--seconds N] [--trace 0|1]
///            [--passes N] [--smoke] [--regen-expected]
///            [--expected-dir D] [--out-dir D]
///
/// Exit codes: 0 correct; 1 a check failed (the result line is still
/// printed) or the run threw; 2 bad command line.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cm5/sim/exec_backend.hpp"
#include "cm5/sim/stack_pool.hpp"
#include "cm5/util/json.hpp"
#include "host_speed.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef CM5BENCH_DIR
#error "CM5BENCH_DIR must be defined by the build (benchmark/CMakeLists.txt)"
#endif

extern char** environ;

namespace cm5bench {
namespace {

using cm5::util::json::Value;

/// Set-up repeats this many times and setup_s is the median: one busy
/// moment on a shared host then cannot decide it. Odd, so the median is
/// an observed time.
constexpr int kSetupReps = 11;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed with --trace 0. BENCHMARK.json lists the same names and units.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};

// Printed with --trace 1. A *_pct layer metric is that layer's self time
// as a share of a pass with spans (set-up layers: of one set-up); counts
// are per pass.
constexpr MetricDef kPerLayer[] = {
    {"network.rate_solves", "count"},
    {"network.heap_pops", "count"},
    {"network.flows", "count"},
    {"network.pop_yield", "1"},
    {"simcore.events", "count"},
    {"simcore.context_switches", "count"},
    {"simcore.speculative_grants", "count"},
    {"machine.events_per_s", "1/s"},
    {"machine.construct_pct", "%"},
    {"machine.run_pct", "%"},
    {"simcore.analyze_pct", "%"},
    {"simcore.validate_pct", "%"},
    {"simcore.sink_pct", "%"},
    {"sched.build_pct", "%"},
    {"sched.steps", "count"},
    {"sched.stream_pct", "%"},
    {"sched.batch_pct", "%"},
    {"sched.batches", "count"},
    {"sched.retries", "count"},
    {"sched.recv_timeouts", "count"},
    {"patterns.gen_pct", "%"},
    {"mesh.generate_pct", "%"},
    {"mesh.partition_pct", "%"},
    {"mesh.halo_pct", "%"},
    {"machine.warm_up_pct", "%"},
    {"fft.node_pct", "%"},
    {"bench.traced_pass_s", "s"},
    {"bench.unit_ms.p50", "ms"},
    {"bench.unit_ms.p95", "ms"},
    {"bench.units", "count"},
    {"bench.unattributed_pct", "%"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.ops", "count"},
    {"bench.ops_failed", "count"},
    {"host.cpu_s", "s"},
    {"host.minor_faults", "count"},
    {"host.speed_scale", "1"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::int64_t seconds = 0;
  bool trace = false;
  /// Untraced: passes. Traced: pairs of a pass with spans and one without.
  std::int64_t min_passes = 3;
  bool smoke = false;
  bool regen = false;
  std::string expected_dir = CM5BENCH_DIR "/expected";
  std::string out_dir = CM5BENCH_DIR "/out";
};

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "cm5bench: %s (try --help)\n", what.c_str());
  std::exit(2);
}

void print_help() {
  std::printf(
      "usage: cm5bench --workload W [--seed S] [--seconds N] [--trace 0|1]\n"
      "                [--passes N] [--smoke] [--regen-expected]\n"
      "                [--expected-dir DIR] [--out-dir DIR]\n"
      "Runs passes until at least N passes (default 3; with --trace 1, N\n"
      "pairs of a pass with spans and one without) and --seconds have gone\n"
      "by. --smoke selects reduced sizes.\n"
      "workloads:");
  for (const std::string& name : workload_names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
}

/// Whole-token unsigned parse in [lo, hi]; anything else is a usage error.
std::uint64_t parse_uint(const std::string& flag, const std::string& text,
                         std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value < lo ||
      value > hi) {
    usage_error(flag + " wants an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      print_help();
      std::exit(0);
    } else if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value(), 0, UINT64_MAX);
    } else if (flag == "--seconds") {
      args.seconds =
          static_cast<std::int64_t>(parse_uint(flag, value(), 0, 3600));
    } else if (flag == "--trace") {
      args.trace = parse_uint(flag, value(), 0, 1) == 1;
    } else if (flag == "--passes") {
      args.min_passes =
          static_cast<std::int64_t>(parse_uint(flag, value(), 1, 1000));
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--regen-expected") {
      args.regen = true;
    } else if (flag == "--expected-dir") {
      args.expected_dir = value();
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (args.workload.empty()) usage_error("--workload is required");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::string known;
    for (const std::string& name : names) known += " " + name;
    usage_error("unknown workload '" + args.workload + "' (known:" + known +
                ")");
  }
  if (args.regen && args.trace) {
    usage_error("--regen-expected cannot be combined with --trace 1");
  }
  if (args.regen) {
    args.min_passes = 1;
    args.seconds = 0;
  }
  return args;
}

/// The execution configuration results depend on; compare.py refuses to
/// compare runs whose configs differ.
Value collect_config() {
  Value config = Value::object();
  config["backend"] = cm5::sim::to_string(cm5::sim::default_execution_model());
  config["lanes"] = cm5::sim::execution_lanes();
  std::map<std::string, std::string> vars;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    const std::size_t eq = entry.find('=');
    if (entry.rfind("CM5_", 0) == 0 && eq != std::string::npos) {
      vars[entry.substr(0, eq)] = entry.substr(eq + 1);
    }
  }
  Value env = Value::object();
  for (const auto& [name, val] : vars) env[name] = val;
  config["env"] = std::move(env);
  return config;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile (an observed sample, like LatencySummary).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// Peak resident set of this process image, MB. Read from VmHWM: Linux
/// carries the pre-exec image's peak into getrusage's ru_maxrss, so a
/// large parent that forked this process would show up there.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Folds a second observation of the same cell into `out`.
void merge_same(CellOutcome& out, const CellOutcome& again,
                const std::string& what) {
  if (again.makespan != out.makespan || again.digest != out.digest) {
    out.fail(what + " differs from the first run");
  }
  out.failures.insert(out.failures.end(), again.failures.begin(),
                      again.failures.end());
  out.failed_ops = std::max(out.failed_ops, again.failed_ops);
}

void merge_replay(CellOutcome& out, Replay replay) {
  if (replay.makespan != out.makespan) {
    out.fail("untraced replay makespan " + std::to_string(replay.makespan) +
             " != traced " + std::to_string(out.makespan));
  }
  for (std::string& f : replay.failures) {
    out.failures.push_back(std::move(f));
    out.failed_ops = out.ops;
  }
}

/// One pass over every cell. Only run_cell() is timed, without the time
/// the host-speed probe took; prepare_cell() and finish_cell()'s checks
/// run between cells, outside the clock.
struct Pass {
  std::int64_t run_ns = 0;  ///< time of the runs, probe excluded
  double scale = 1.0;       ///< host-speed scale factor of the pass
  std::int64_t cpu_ns = 0;  ///< process CPU time of the runs, probe excluded
  std::int64_t faults = 0;  ///< minor faults during the runs
  Counters counters;
  std::vector<CellOutcome> cells;
  SpanLog spans;  ///< empty unless the pass ran with spans

  /// The pass's host time at the reference host speed.
  double scaled_s() const {
    return static_cast<double>(run_ns) / 1e9 * scale;
  }
};

Pass run_pass(Workload& workload, bool with_spans) {
  Pass pass;
  SpanLog* spans = with_spans ? &pass.spans : nullptr;
  const ProbeTotals begin = probe_totals();
  for (std::size_t i = 0; i < workload.num_cells(); ++i) {
    workload.prepare_cell(i);
    const std::int64_t faults0 = minor_faults();
    const std::int64_t cpu0 = cpu_ns();
    const std::int64_t probe0 = probe_busy_ns();
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan cell(spans, "cell", static_cast<std::int32_t>(i));
      workload.run_cell(i, spans);
    }
    const std::int64_t t1 = now_ns();
    const std::int64_t probe = probe_busy_ns() - probe0;
    pass.run_ns += t1 - t0 - probe;
    pass.cpu_ns += cpu_ns() - cpu0 - probe;
    pass.faults += minor_faults() - faults0;
    pass.cells.push_back(workload.finish_cell(i, pass.counters));
  }
  probe_now();
  pass.scale = speed_scale(begin, probe_totals());
  return pass;
}

std::string expected_path(const Args& args) {
  return args.expected_dir + "/" + args.workload + ".seed" +
         std::to_string(args.seed) + (args.smoke ? ".smoke" : "") + ".json";
}

/// One cell per line, so a changed golden is a reviewable diff.
void write_expected(const Args& args, const std::vector<CellOutcome>& cells) {
  std::filesystem::create_directories(args.expected_dir);
  const std::string path = expected_path(args);
  std::ofstream out(path, std::ios::trunc);
  out << "{\"workload\": " << Value(args.workload).dump()
      << ", \"seed\": " << args.seed
      << ", \"smoke\": " << (args.smoke ? "true" : "false")
      << ",\n \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    Value cell = Value::object();
    cell["id"] = cells[i].id;
    cell["makespan_ns"] = cells[i].makespan;
    cell["digest"] = hex64(cells[i].digest);
    out << "  " << cell.dump() << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << " ]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
  std::fprintf(stderr, "cm5bench: wrote %s\n", path.c_str());
}

/// Compares the run with the committed golden, when one exists for this
/// workload, seed and size.
void check_expected(const Args& args, std::vector<CellOutcome>& cells) {
  const std::string path = expected_path(args);
  if (!std::filesystem::exists(path)) return;
  const Value golden = cm5::util::json::read_file(path);
  const Value& list = golden.at("cells");
  if (list.size() != cells.size()) {
    for (CellOutcome& c : cells) {
      c.fail("golden " + path + " has " + std::to_string(list.size()) +
             " cells, run has " + std::to_string(cells.size()));
    }
    return;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Value& want = list.at(i);
    CellOutcome& got = cells[i];
    if (want.at("id").as_string() != got.id) {
      got.fail("golden cell " + std::to_string(i) + " is '" +
               want.at("id").as_string() + "'");
    } else if (want.at("makespan_ns").as_int() != got.makespan ||
               want.at("digest").as_string() != hex64(got.digest)) {
      got.fail("makespan " + std::to_string(got.makespan) + " digest " +
               hex64(got.digest) + " differ from golden " +
               std::to_string(want.at("makespan_ns").as_int()) + " " +
               want.at("digest").as_string());
    }
  }
}

Value counters_json(const Counters& c) {
  Value v = Value::object();
  v["rate_solves"] = c.rate_solves;
  v["heap_pops"] = c.heap_pops;
  v["flows_started"] = c.flows_started;
  v["flows_completed"] = c.flows_completed;
  v["events"] = c.events;
  v["context_switches"] = c.context_switches;
  v["speculative_grants"] = c.speculative_grants;
  v["steps"] = c.steps;
  v["batches"] = c.batches;
  v["retries"] = c.retries;
  v["recv_timeouts"] = c.recv_timeouts;
  return v;
}

Value samples_json(const std::vector<double>& samples) {
  Value v = Value::array();
  for (const double s : samples) v.push_back(s);
  return v;
}

/// The scaled medians over passes of `f(pass)`, a host time in ns.
template <typename F>
double scaled_median_s(const std::vector<Pass>& passes, F f) {
  std::vector<double> values;
  for (const Pass& pass : passes) {
    values.push_back(static_cast<double>(f(pass)) / 1e9 * pass.scale);
  }
  return median(values);
}

std::int64_t total_of(const std::map<std::string, std::int64_t>& totals,
                      const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0 : it->second;
}

/// The per-layer metrics of a traced run: layer shares and counts from
/// the passes with spans, the span overhead against the passes without,
/// and the trace-sink cost against the verification replays. `replay_s`
/// and `twin_s` are scaled like the passes.
std::map<std::string, double> layer_metrics(
    const Workload& workload, const std::vector<Pass>& spanned,
    const std::vector<Pass>& plain, double replay_s, double twin_s,
    const std::map<std::string, std::vector<double>>& setup_shares,
    Value& layers_ms) {
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> share_samples;
  std::vector<double> cpu_s, faults, unit_ms, scales;
  for (const Pass& pass : spanned) {
    // Shares of the cell spans, which the layer self times partition
    // (the probe's walks fall inside them, spread like any other work).
    const auto cells_ns =
        static_cast<double>(total_of(pass.spans.total_ns(), "cell"));
    for (const auto& [name, ns] : pass.spans.self_ns()) {
      share_samples[name].push_back(100.0 * static_cast<double>(ns) /
                                    cells_ns);
    }
    cpu_s.push_back(static_cast<double>(pass.cpu_ns) / 1e9);
    faults.push_back(static_cast<double>(pass.faults));
    scales.push_back(pass.scale);
    for (const std::int64_t ns : pass.spans.durations(workload.unit_span())) {
      unit_ms.push_back(static_cast<double>(ns) / 1e6 * pass.scale);
    }
  }
  auto share = [&](const char* span) {
    const auto it = share_samples.find(span);
    return it == share_samples.end() ? 0.0 : median(it->second);
  };
  auto setup_share = [&](const char* span) {
    const auto it = setup_shares.find(span);
    return it == setup_shares.end() ? 0.0 : median(it->second);
  };
  auto span_total = [](const char* name) {
    return [name](const Pass& pass) {
      return total_of(pass.spans.total_ns(), name);
    };
  };
  const auto pass_ns = [](const Pass& pass) { return pass.run_ns; };
  const double traced_s = scaled_median_s(spanned, pass_ns);
  const double plain_s = scaled_median_s(plain, pass_ns);
  const double run_s = scaled_median_s(spanned, span_total(workload.run_span()));
  const double machine_s = scaled_median_s(spanned, span_total("machine.run"));
  const Counters& c = spanned.front().counters;

  values["network.rate_solves"] = static_cast<double>(c.rate_solves);
  values["network.heap_pops"] = static_cast<double>(c.heap_pops);
  values["network.flows"] = static_cast<double>(c.flows_started);
  values["network.pop_yield"] =
      c.heap_pops > 0 ? static_cast<double>(c.flows_completed) /
                            static_cast<double>(c.heap_pops)
                      : 0.0;
  values["simcore.events"] = static_cast<double>(c.events);
  values["simcore.context_switches"] = static_cast<double>(c.context_switches);
  values["simcore.speculative_grants"] =
      static_cast<double>(c.speculative_grants);
  values["machine.events_per_s"] =
      machine_s > 0 ? static_cast<double>(c.events) / machine_s : 0.0;
  values["machine.construct_pct"] = share("machine.construct");
  values["machine.run_pct"] = share("machine.run");
  values["simcore.analyze_pct"] = share("simcore.analyze");
  values["simcore.validate_pct"] = share("simcore.validate");
  values["simcore.sink_pct"] =
      run_s > 0 ? 100.0 * (run_s - replay_s) / run_s : 0.0;
  values["sched.build_pct"] = share("sched.build");
  values["sched.steps"] = static_cast<double>(c.steps);
  values["sched.stream_pct"] = share("sched.stream");
  values["sched.batch_pct"] = share("sched.batch");
  values["sched.batches"] = static_cast<double>(c.batches);
  values["sched.retries"] = static_cast<double>(c.retries);
  values["sched.recv_timeouts"] = static_cast<double>(c.recv_timeouts);
  values["patterns.gen_pct"] = setup_share("patterns.gen");
  values["mesh.generate_pct"] = setup_share("mesh.generate");
  values["mesh.partition_pct"] = setup_share("mesh.partition");
  values["mesh.halo_pct"] = setup_share("mesh.halo");
  values["machine.warm_up_pct"] = setup_share("machine.warm_up");
  values["fft.node_pct"] =
      twin_s > 0 && machine_s > 0 ? 100.0 * (machine_s - twin_s) / machine_s
                                  : 0.0;
  values["bench.traced_pass_s"] = traced_s;
  values["bench.unit_ms.p50"] = percentile(unit_ms, 0.50);
  values["bench.unit_ms.p95"] = percentile(unit_ms, 0.95);
  values["bench.units"] = static_cast<double>(
      spanned.front().spans.durations(workload.unit_span()).size());
  values["bench.unattributed_pct"] = share("cell");
  values["bench.trace_overhead_pct"] =
      plain_s > 0 ? 100.0 * (traced_s - plain_s) / plain_s : 0.0;
  values["host.cpu_s"] = median(cpu_s);
  values["host.minor_faults"] = median(faults);
  values["host.speed_scale"] = median(scales);
  for (const auto& [name, samples] : share_samples) {
    layers_ms[name] = median(samples) / 100.0 * traced_s * 1e3;
  }
  return values;
}

void write_spans(const Args& args, const SpanLog& setup, const SpanLog& pass) {
  // Set-up on thread 1, the first pass with spans on thread 2.
  const std::int64_t origin = setup.spans().empty()
                                  ? pass.spans().front().start_ns
                                  : setup.spans().front().start_ns;
  Value events = setup.chrome_trace(origin, 1);
  const Value pass_events = pass.chrome_trace(origin, 2);
  for (std::size_t i = 0; i < pass_events.size(); ++i) {
    events.push_back(pass_events.at(i));
  }
  Value trace = Value::object();
  trace["traceEvents"] = std::move(events);
  trace["displayTimeUnit"] = "ms";
  Value other = Value::object();
  other["workload"] = args.workload;
  other["seed"] = static_cast<std::int64_t>(args.seed);
  trace["otherData"] = std::move(other);
  const std::string path = args.out_dir + "/" + args.workload + ".spans.json";
  std::ofstream out(path, std::ios::trunc);
  out << trace.dump() << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run(const Args& args) {
  const Value config = collect_config();
  if (args.regen && config.at("env").size() > 0) {
    usage_error("--regen-expected refuses to run with " +
                config.at("env").members().front().first +
                " set: goldens come from the default configuration");
  }
  std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, args.smoke);

  // --- set-up and timed passes ------------------------------------------------
  // A set-up is what a fresh process does before its first timed pass:
  // the lazy initialization of a first run (the warm-up) and the input
  // generation. Emptying the fiber stack pool first makes every warm-up
  // map and touch its stacks again, as the first run of a process does,
  // so work the library moves into lazy initialization shows in setup_s;
  // the passes exclude it. (The input generation alone takes tens of
  // nanoseconds on three of the workloads, too little to time.) Each
  // set-up is scaled by the host speed measured over it and the probe
  // walk right after it.
  start_host_probe();
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> setup_shares;
  SpanLog setup_spans;  // of the last set-up
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cm5::sim::FiberStackPool::instance().trim();
    SpanLog log;
    SpanLog* spans = args.trace ? &log : nullptr;
    const ProbeTotals begin = probe_totals();
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(spans, "machine.warm_up");
      workload->warm_up();
    }
    workload->setup(spans);
    const std::int64_t elapsed = now_ns() - t0;
    const std::int64_t ns = elapsed - (probe_busy_ns() - begin.busy_ns);
    probe_now();
    setup_s.push_back(static_cast<double>(ns) / 1e9 *
                      speed_scale(begin, probe_totals()));
    for (const auto& [name, total] : log.total_ns()) {
      setup_shares[name].push_back(100.0 * static_cast<double>(total) /
                                   static_cast<double>(elapsed));
    }
    setup_spans = std::move(log);
  }

  // A traced run alternates passes with spans and passes without; the
  // second give the span overhead. Its timed work is therefore about
  // twice that of an untraced run of the same --seconds.
  std::vector<Pass> spanned;
  std::vector<Pass> plain;
  // Peak memory is taken after the first pass, the footprint of running
  // the workload once: later passes only add allocator fragmentation,
  // which varies with the address-space layout (up to +18 % on rex-4096).
  double peak_rss = 0.0;
  const std::int64_t measure_start = now_ns();
  while (static_cast<std::int64_t>(plain.size()) < args.min_passes ||
         now_ns() - measure_start < args.seconds * 1'000'000'000) {
    if (args.trace) spanned.push_back(run_pass(*workload, true));
    plain.push_back(run_pass(*workload, false));
    if (plain.size() == 1) peak_rss = peak_rss_mb();
  }

  // --- verification (untimed) -------------------------------------------------
  std::vector<CellOutcome> cells = plain.front().cells;
  std::vector<std::string> failures;
  auto check_same = [&](const Pass& pass, const std::string& what) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      merge_same(cells[i], pass.cells[i], what);
    }
    if (!(pass.counters == plain.front().counters)) {
      failures.push_back("work counters of " + what + " differ from pass 0");
    }
  };
  for (std::size_t p = 1; p < plain.size(); ++p) {
    check_same(plain[p], "pass " + std::to_string(p));
  }
  for (std::size_t p = 0; p < spanned.size(); ++p) {
    check_same(spanned[p], "pass with spans " + std::to_string(p));
  }
  if (!args.regen) check_expected(args, cells);
  std::int64_t replay_ns = 0;
  std::int64_t twin_ns = 0;
  const ProbeTotals verify_begin = probe_totals();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    Replay replay = workload->replay_cell(i);
    replay_ns += replay.run_ns;
    merge_replay(cells[i], std::move(replay));
    if (args.trace) twin_ns += workload->twin_run_ns(i);
  }
  probe_now();
  const double verify_scale = speed_scale(verify_begin, probe_totals());
  stop_host_probe();

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const CellOutcome& c : cells) attempted += c.ops;
  if (failures.empty()) {
    for (const CellOutcome& c : cells) failed += std::min(c.ops, c.failed_ops);
  } else {
    failed = attempted;
  }
  for (const CellOutcome& c : cells) {
    failures.insert(failures.end(), c.failures.begin(), c.failures.end());
  }
  const bool correct = failed == 0 && failures.empty();

  if (args.regen) {
    if (!correct) {
      for (const std::string& f : failures) {
        std::fprintf(stderr, "cm5bench: %s\n", f.c_str());
      }
      std::fprintf(stderr, "cm5bench: checks failed; golden not written\n");
      return 1;
    }
    write_expected(args, cells);
  }

  // --- metrics ------------------------------------------------------------------
  std::vector<double> pass_s;
  std::vector<double> pass_raw_s;
  std::vector<double> pass_scale;
  for (const Pass& pass : plain) {
    pass_s.push_back(pass.scaled_s());
    pass_raw_s.push_back(static_cast<double>(pass.run_ns) / 1e9);
    pass_scale.push_back(pass.scale);
  }
  std::map<std::string, double> values;
  Value layers_ms = Value::object();
  if (args.trace) {
    values = layer_metrics(
        *workload, spanned, plain,
        static_cast<double>(replay_ns) / 1e9 * verify_scale,
        static_cast<double>(twin_ns) / 1e9 * verify_scale, setup_shares,
        layers_ms);
    values["bench.ops"] = static_cast<double>(attempted);
    values["bench.ops_failed"] = static_cast<double>(failed);
  } else {
    values["wall_s"] = median(pass_s);
    values["setup_s"] = median(setup_s);
    values["peak_rss_mb"] = peak_rss;
  }

  // --- output -------------------------------------------------------------------
  Value metrics = Value::object();
  auto print_set = [&](const auto& defs) {
    for (const MetricDef& def : defs) {
      const double v = values.at(def.name);
      Value entry = Value::object();
      if (std::string(def.unit) == "count") {
        entry["value"] = static_cast<std::int64_t>(std::llround(v));
      } else {
        entry["value"] = v;
      }
      entry["unit"] = def.unit;
      std::printf("%s %s %s %s\n", args.workload.c_str(), def.name,
                  entry.at("value").dump().c_str(), def.unit);
      metrics[def.name] = std::move(entry);
    }
  };
  if (args.trace) {
    print_set(kPerLayer);
  } else {
    print_set(kEndToEnd);
  }
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    std::fprintf(stderr, "cm5bench: FAIL %s\n", failures[i].c_str());
  }

  Value record = Value::object();
  record["workload"] = args.workload;
  record["seed"] = static_cast<std::int64_t>(args.seed);
  record["trace"] = args.trace;
  record["smoke"] = args.smoke;
  record["min_passes"] = args.min_passes;
  record["seconds"] = args.seconds;
  record["passes"] = static_cast<std::int64_t>(plain.size());
  record["passes_with_spans"] = static_cast<std::int64_t>(spanned.size());
  record["config"] = config;
  record["correct"] = correct;
  record["attempted"] = attempted;
  record["failed"] = failed;
  Value first_failures = Value::array();
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    first_failures.push_back(failures[i]);
  }
  record["failures"] = std::move(first_failures);
  record["metrics"] = metrics;
  Value samples = Value::object();
  samples["pass_s"] = samples_json(pass_s);
  samples["pass_raw_s"] = samples_json(pass_raw_s);
  samples["pass_scale"] = samples_json(pass_scale);
  samples["setup_s"] = samples_json(setup_s);
  record["samples"] = std::move(samples);
  record["counters"] = counters_json(plain.front().counters);
  if (args.trace) record["layers_self_ms"] = std::move(layers_ms);

  std::filesystem::create_directories(args.out_dir);
  cm5::util::json::write_file(args.out_dir + "/" + args.workload + ".json",
                              record);
  if (args.trace) write_spans(args, setup_spans, spanned.front().spans);

  Value result = Value::object();
  result["correct"] = correct;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cm5bench

int main(int argc, char** argv) {
  const cm5bench::Args args = cm5bench::parse_args(argc, argv);
  try {
    return cm5bench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cm5bench: %s: error: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
}
