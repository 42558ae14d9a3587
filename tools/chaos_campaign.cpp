/// chaos_campaign — seeded random fault-injection campaigns over the
/// resilient executor.
///
/// Each run index deterministically derives (from --seed and the index
/// alone) a scheduler, a communication pattern, and a random fault plan
/// mixing every fault class the simulator models: probabilistic drops /
/// corruption / delays, Gilbert–Elliott burst loss, timed fat-tree
/// partitions, link flapping, gray-failure slowdowns, link degradation,
/// and fail-stop deaths. Every run is executed under the resilient
/// protocol with a trace recorder attached and checked against
///
///   * sim::validate_trace (kernel-level trace invariants),
///   * exact delivery accounting: edges_total == delivered + lost,
///   * termination: every schedule step reached its repair agreement,
///   * healthy-control runs (every 10th index) must deliver everything
///     with zero retries and zero timeouts,
///   * checkpoint consistency: the final emitted checkpoint must agree
///     with the run report on delivered edges and dead nodes.
///
/// Runs are sharded over worker threads (wall-clock only — each run owns
/// a private simulator, so results are independent of --jobs). The
/// campaign writes a JSON report and exits nonzero if any run violated
/// an invariant, printing a single-run repro command for each failure:
///
///   chaos_campaign [--runs N] [--nodes N] [--seed S] [--jobs J]
///                  [--out FILE] [--policy adaptive|fixed] [--compare]
///                  [--repro INDEX]

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/machine/params.hpp"
#include "cm5/patterns/synthetic.hpp"
#include "cm5/sched/builders.hpp"
#include "cm5/sched/pattern.hpp"
#include "cm5/sched/resilient_executor.hpp"
#include "cm5/sim/fault.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/sim/trace.hpp"
#include "cm5/util/json.hpp"
#include "cm5/util/parallel.hpp"
#include "cm5/util/rng.hpp"
#include "cm5/util/time.hpp"

namespace {

using namespace cm5;
using sched::CommPattern;
using sched::CommSchedule;
using sched::ResilientRunReport;
using sched::Scheduler;
using util::from_us;

struct Options {
  std::int64_t runs = 200;
  std::int32_t nodes = 16;
  std::uint64_t seed = 1;
  int jobs = 0;  // 0 = hardware_concurrency
  std::string out = "chaos_campaign.json";
  sched::TimeoutPolicy policy = sched::TimeoutPolicy::kAdaptive;
  bool compare = false;       // also run each plan under the fixed policy
  std::int64_t repro = -1;    // run a single index verbosely
};

/// Everything one campaign run needs, derived purely from (seed, index,
/// nodes) so a failing index reproduces regardless of --runs / --jobs.
struct RunConfig {
  Scheduler scheduler = Scheduler::Linear;
  std::string pattern_name;
  CommPattern pattern{2};
  sim::FaultPlan plan;  // empty() for healthy-control runs
};

RunConfig make_run(std::uint64_t seed, std::int64_t index,
                   std::int32_t nodes) {
  util::Rng rng = util::Rng::forked(seed, static_cast<std::uint64_t>(index));
  RunConfig cfg;
  cfg.scheduler = static_cast<Scheduler>(index % 4);

  const std::int64_t bytes = 64 << rng.next_below(5);  // 64 .. 1024
  if (rng.next_bool(0.4)) {
    cfg.pattern = CommPattern::complete_exchange(nodes, bytes);
    cfg.pattern_name = "complete/" + std::to_string(bytes) + "B";
  } else {
    const double density = 0.2 + 0.6 * rng.next_double();
    const auto pattern_seed = static_cast<std::uint64_t>(rng.next_u64());
    cfg.pattern = patterns::random_density(nodes, density, bytes, pattern_seed);
    char label[64];
    std::snprintf(label, sizeof label, "random/%.2f/%lldB", density,
                  static_cast<long long>(bytes));
    cfg.pattern_name = label;
  }

  cfg.plan.seed = rng.next_u64();
  if (index % 10 == 0) return cfg;  // healthy control run

  auto& plan = cfg.plan;
  if (rng.next_bool(0.5)) plan.drop_prob = 0.002 + 0.048 * rng.next_double();
  if (rng.next_bool(0.3)) plan.corrupt_prob = 0.02 * rng.next_double();
  if (rng.next_bool(0.3)) {
    plan.delay_prob = 0.05 + 0.15 * rng.next_double();
    plan.delay = from_us(50 + rng.next_in(0, 250));
  }
  if (rng.next_bool(0.35)) {
    plan.burst.p_enter = 0.005 + 0.045 * rng.next_double();
    plan.burst.p_exit = 0.1 + 0.4 * rng.next_double();
    plan.burst.loss_bad = 0.3 + 0.6 * rng.next_double();
    plan.burst.loss_good = 0.005 * rng.next_double();
  }
  if (rng.next_bool(0.25)) {
    sim::FaultPlan::Partition part;
    part.level = 1;
    part.subtree = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(std::max(1, nodes / 4))));
    part.start = from_us(rng.next_in(0, 3000));
    part.end = part.start + from_us(rng.next_in(200, 2000));
    plan.partitions.push_back(part);
  }
  if (rng.next_bool(0.25)) {
    sim::FaultPlan::LinkFlap flap;
    flap.node = static_cast<net::NodeId>(rng.next_below(
        static_cast<std::uint64_t>(nodes)));
    flap.start = from_us(rng.next_in(0, 2000));
    flap.period = from_us(rng.next_in(100, 1000));
    flap.duty_down = 0.1 + 0.4 * rng.next_double();
    flap.cycles = static_cast<std::int32_t>(1 + rng.next_below(8));
    plan.flaps.push_back(flap);
  }
  if (rng.next_bool(0.3)) {
    sim::FaultPlan::NodeSlowdown slow;
    slow.node = static_cast<net::NodeId>(rng.next_below(
        static_cast<std::uint64_t>(nodes)));
    slow.start = from_us(rng.next_in(0, 2000));
    if (rng.next_bool(0.5)) slow.end = slow.start + from_us(rng.next_in(500, 4000));
    slow.factor = 1.5 + 4.5 * rng.next_double();
    plan.slowdowns.push_back(slow);
  }
  if (rng.next_bool(0.25)) {
    plan.deaths.push_back(
        {static_cast<net::NodeId>(rng.next_below(
             static_cast<std::uint64_t>(nodes))),
         from_us(rng.next_in(0, 4000))});
  }
  if (rng.next_bool(0.2)) {
    plan.degrades.push_back(
        {static_cast<net::NodeId>(rng.next_below(
             static_cast<std::uint64_t>(nodes))),
         from_us(rng.next_in(0, 2000)), 0.2 + 0.6 * rng.next_double()});
  }
  return cfg;
}

struct RunOutcome {
  RunConfig cfg;
  ResilientRunReport report;
  util::SimTime fixed_makespan = 0;  // --compare only
  std::vector<std::string> violations;
};

RunOutcome execute_run(const Options& opt, std::int64_t index) {
  RunOutcome out;
  out.cfg = make_run(opt.seed, index, opt.nodes);
  const CommSchedule schedule =
      sched::build_schedule(out.cfg.scheduler, out.cfg.pattern);

  sched::ResilientOptions ropts;
  ropts.timeout_policy = opt.policy;
  sim::TraceRecorder recorder;
  ropts.trace = recorder.sink();
  std::optional<sched::ResilientCheckpoint> last_checkpoint;
  ropts.checkpoint_sink = [&](const sched::ResilientCheckpoint& c) {
    last_checkpoint = c;
  };

  machine::Cm5Machine machine(machine::MachineParams::cm5_defaults(opt.nodes));
  if (!out.cfg.plan.empty()) machine.set_fault_plan(out.cfg.plan);
  out.report = run_resilient_schedule(machine, schedule, ropts);

  auto fail = [&](const std::string& what) { out.violations.push_back(what); };

  // Kernel-level trace invariants.
  for (const std::string& v :
       sim::validate_trace(recorder, opt.nodes, &out.report.run)) {
    fail("trace: " + v);
  }
  // Exact delivery accounting.
  if (out.report.edges_delivered +
          static_cast<std::int64_t>(out.report.lost_edges.size()) !=
      out.report.edges_total) {
    fail("accounting: delivered + lost != total");
  }
  // Termination: every step reached its agreement.
  if (out.report.steps_completed != schedule.num_steps()) {
    fail("termination: not every step completed");
  }
  // Healthy-control runs must be fault-free in every counter.
  if (out.cfg.plan.empty() &&
      (out.report.edges_delivered != out.report.edges_total ||
       out.report.retries != 0 || out.report.recv_timeouts != 0 ||
       !out.report.dead_nodes.empty())) {
    fail("healthy control run saw protocol activity");
  }
  // The final checkpoint (when the lowest node survived to emit it)
  // must agree with the report.
  if (last_checkpoint &&
      last_checkpoint->steps_completed == schedule.num_steps()) {
    if (static_cast<std::int64_t>(last_checkpoint->delivered_keys.size()) !=
        out.report.edges_delivered) {
      fail("checkpoint: delivered-key count disagrees with report");
    }
    if (last_checkpoint->dead_nodes != out.report.dead_nodes) {
      fail("checkpoint: dead set disagrees with report");
    }
  }

  if (opt.compare && !out.cfg.plan.empty()) {
    sched::ResilientOptions fixed = ropts;
    fixed.trace = {};
    fixed.checkpoint_sink = {};
    fixed.timeout_policy = sched::TimeoutPolicy::kFixed;
    machine::Cm5Machine m2(machine::MachineParams::cm5_defaults(opt.nodes));
    m2.set_fault_plan(out.cfg.plan);
    out.fixed_makespan = run_resilient_schedule(m2, schedule, fixed).makespan;
  }
  return out;
}

util::json::Value row_json(std::int64_t index, const RunOutcome& out) {
  using util::json::Value;
  Value row = Value::object();
  row["run"] = index;
  row["scheduler"] = sched::scheduler_name(out.cfg.scheduler);
  row["pattern"] = out.cfg.pattern_name;
  row["plan"] = out.cfg.plan.to_json();
  row["report"] = out.report.to_json();
  if (out.fixed_makespan > 0) row["fixed_makespan_ns"] = out.fixed_makespan;
  Value v = Value::array();
  for (const std::string& s : out.violations) v.push_back(s);
  row["violations"] = std::move(v);
  return row;
}

int run_repro(const Options& opt) {
  const RunOutcome out = execute_run(opt, opt.repro);
  std::printf("run %lld: %s on %s\n", static_cast<long long>(opt.repro),
              sched::scheduler_name(out.cfg.scheduler),
              out.cfg.pattern_name.c_str());
  std::printf("fault plan: %s\n", out.cfg.plan.to_json().dump(2).c_str());
  std::printf("%s", out.report.to_string().c_str());
  for (const std::string& v : out.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  std::printf(out.violations.empty() ? "all invariants hold\n"
                                     : "%zu invariant violations\n",
              out.violations.size());
  return out.violations.empty() ? 0 : 1;
}

int run_campaign(const Options& opt) {
  const int jobs =
      opt.jobs > 0
          ? opt.jobs
          : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::printf("chaos campaign: %lld runs, %d nodes, seed %llu, %d jobs, "
              "%s timeouts%s\n",
              static_cast<long long>(opt.runs), opt.nodes,
              static_cast<unsigned long long>(opt.seed), jobs,
              opt.policy == sched::TimeoutPolicy::kAdaptive ? "adaptive"
                                                            : "fixed",
              opt.compare ? " (+fixed comparison)" : "");

  std::vector<RunOutcome> outcomes(static_cast<std::size_t>(opt.runs));
  std::mutex progress_mutex;
  std::int64_t done = 0;
  util::parallel_for(
      static_cast<std::size_t>(opt.runs), jobs, [&](std::size_t i) {
        outcomes[i] = execute_run(opt, static_cast<std::int64_t>(i));
        const std::lock_guard<std::mutex> g(progress_mutex);
        ++done;
        if (done % 100 == 0) {
          std::printf("  %lld/%lld runs done\n", static_cast<long long>(done),
                      static_cast<long long>(opt.runs));
        }
      });

  // Aggregate.
  using util::json::Value;
  Value root = Value::object();
  root["runs"] = opt.runs;
  root["nodes"] = opt.nodes;
  root["seed"] = static_cast<std::int64_t>(opt.seed);
  root["policy"] = opt.policy == sched::TimeoutPolicy::kAdaptive
                       ? "adaptive"
                       : "fixed";
  std::int64_t violations_total = 0, faulty_runs = 0, retries = 0,
               timeouts = 0, false_suspicions = 0;
  std::int64_t delivered = 0, edges = 0;
  double min_delivery = 1.0, overhead_sum = 0.0;
  std::int64_t overhead_count = 0;
  std::int64_t adaptive_ns = 0, fixed_ns = 0;
  Value rows = Value::array();
  Value violations = Value::array();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const RunOutcome& out = outcomes[i];
    violations_total += static_cast<std::int64_t>(out.violations.size());
    if (!out.cfg.plan.empty()) {
      ++faulty_runs;
      overhead_sum += out.report.makespan_overhead();
      ++overhead_count;
    }
    retries += out.report.retries;
    timeouts += out.report.recv_timeouts;
    delivered += out.report.edges_delivered;
    edges += out.report.edges_total;
    min_delivery = std::min(min_delivery, out.report.delivery_rate());
    for (const net::NodeId d : out.report.dead_nodes) {
      bool scripted = false;
      for (const auto& death : out.cfg.plan.deaths) {
        if (death.node == d) scripted = true;
      }
      if (!scripted) ++false_suspicions;
    }
    if (out.fixed_makespan > 0) {
      adaptive_ns += out.report.makespan;
      fixed_ns += out.fixed_makespan;
    }
    rows.push_back(row_json(static_cast<std::int64_t>(i), out));
    if (!out.violations.empty()) {
      violations.push_back(row_json(static_cast<std::int64_t>(i), out));
      std::printf("run %zu VIOLATED invariants; reproduce with:\n"
                  "  chaos_campaign --repro %zu --seed %llu --nodes %d%s\n",
                  i, i, static_cast<unsigned long long>(opt.seed), opt.nodes,
                  opt.policy == sched::TimeoutPolicy::kFixed ? " --policy fixed"
                                                             : "");
      for (const std::string& v : out.violations) {
        std::printf("    %s\n", v.c_str());
      }
    }
  }
  Value stats = Value::object();
  stats["violations_total"] = violations_total;
  stats["faulty_runs"] = faulty_runs;
  stats["retries_total"] = retries;
  stats["recv_timeouts_total"] = timeouts;
  stats["edges_total"] = edges;
  stats["edges_delivered"] = delivered;
  stats["delivery_rate_min"] = min_delivery;
  stats["false_suspicions"] = false_suspicions;
  stats["mean_makespan_overhead"] =
      overhead_count > 0 ? overhead_sum / static_cast<double>(overhead_count)
                         : 1.0;
  if (fixed_ns > 0) {
    stats["adaptive_makespan_ns_total"] = adaptive_ns;
    stats["fixed_makespan_ns_total"] = fixed_ns;
    stats["adaptive_vs_fixed"] = static_cast<double>(adaptive_ns) /
                                 static_cast<double>(fixed_ns);
  }
  root["stats"] = std::move(stats);
  root["violations"] = std::move(violations);
  root["rows"] = std::move(rows);
  util::json::write_file(opt.out, root);

  std::printf("campaign done: %lld/%lld edges delivered across %lld runs "
              "(%lld faulty), %lld retries, %lld timeouts, %lld false "
              "suspicions\n",
              static_cast<long long>(delivered), static_cast<long long>(edges),
              static_cast<long long>(opt.runs),
              static_cast<long long>(faulty_runs),
              static_cast<long long>(retries), static_cast<long long>(timeouts),
              static_cast<long long>(false_suspicions));
  if (fixed_ns > 0) {
    std::printf("adaptive vs fixed total makespan: %.3fx\n",
                static_cast<double>(adaptive_ns) /
                    static_cast<double>(fixed_ns));
  }
  std::printf("report: %s\n", opt.out.c_str());
  if (violations_total != 0) {
    std::printf("FAILED: %lld invariant violations\n",
                static_cast<long long>(violations_total));
    return 1;
  }
  std::printf("zero invariant violations\n");
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--runs N] [--nodes N] [--seed S] [--jobs J]\n"
               "          [--out FILE] [--policy adaptive|fixed] [--compare]\n"
               "          [--repro INDEX]\n",
               argv0);
  return 2;
}

/// Strict base-10 parse of an entire token into [min_value, max].
/// atoll-style parsing turns "1e3", "-5", or "abc" into a silently
/// wrong campaign (0 runs "passes" CI); a typo must die loudly instead.
bool parse_i64(const char* text, std::int64_t min_value, std::int64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return false;
  if (value < min_value) return false;
  *out = value;
  return true;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  // strtoull silently wraps "-1" to UINT64_MAX; reject signs up front.
  if (*text == '-' || *text == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return false;
  *out = value;
  return true;
}

int bad_value(const char* argv0, const char* flag, const char* text) {
  std::fprintf(stderr, "%s: invalid value for %s: '%s'\n", argv0, flag,
               text == nullptr ? "" : text);
  return usage(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--runs") {
      const char* v = value();
      if (!parse_i64(v, 1, &opt.runs)) return bad_value(argv[0], "--runs", v);
    } else if (arg == "--nodes") {
      std::int64_t nodes = 0;
      const char* v = value();
      if (!parse_i64(v, 2, &nodes) || nodes > (1 << 20)) {
        return bad_value(argv[0], "--nodes", v);
      }
      opt.nodes = static_cast<std::int32_t>(nodes);
    } else if (arg == "--seed") {
      const char* v = value();
      if (!parse_u64(v, &opt.seed)) return bad_value(argv[0], "--seed", v);
    } else if (arg == "--jobs") {
      std::int64_t jobs = 0;
      const char* v = value();
      if (!parse_i64(v, 0, &jobs) || jobs > 4096) {
        return bad_value(argv[0], "--jobs", v);
      }
      opt.jobs = static_cast<int>(jobs);
    } else if (arg == "--out") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      opt.out = v;
    } else if (arg == "--policy") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      if (std::strcmp(v, "adaptive") == 0) {
        opt.policy = sched::TimeoutPolicy::kAdaptive;
      } else if (std::strcmp(v, "fixed") == 0) {
        opt.policy = sched::TimeoutPolicy::kFixed;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--compare") {
      opt.compare = true;
    } else if (arg == "--repro") {
      const char* v = value();
      if (!parse_i64(v, 0, &opt.repro)) {
        return bad_value(argv[0], "--repro", v);
      }
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.runs <= 0 || opt.nodes < 2 || (opt.nodes & (opt.nodes - 1)) != 0) {
    std::fprintf(stderr,
                 "--runs must be positive and --nodes a power of two >= 2\n");
    return 2;
  }
  try {
    return opt.repro >= 0 ? run_repro(opt) : run_campaign(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos_campaign: fatal: %s\n", e.what());
    return 1;
  }
}
