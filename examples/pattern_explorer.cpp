/// Pattern explorer: prints the schedules every scheduler builds for a
/// chosen communication pattern, in the style of the paper's Tables
/// 7-10, together with step counts, root-crossing distribution and the
/// simulated execution time. Defaults to the paper's own 8-processor
/// pattern 'P' (Table 6). Patterns can be saved to / loaded from the
/// text format of cm5/sched/pattern_io.hpp, and the greedy run can dump
/// an event trace.
///
///   $ ./pattern_explorer                        # paper's pattern 'P'
///   $ ./pattern_explorer --pattern density --procs 32 --density 0.25
///   $ ./pattern_explorer --pattern ring --procs 16 --halo 2
///   $ ./pattern_explorer --save p.txt && ./pattern_explorer --load p.txt
///   $ ./pattern_explorer --trace 40             # first 40 trace events
///   $ ./pattern_explorer --metrics m.json       # full RunMetrics dump

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "cm5/net/topology.hpp"
#include "cm5/patterns/synthetic.hpp"
#include "cm5/sched/executor.hpp"
#include "cm5/sched/estimate.hpp"
#include "cm5/sched/pattern_io.hpp"
#include "cm5/sched/report.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/sim/trace.hpp"
#include "cm5/util/cli.hpp"
#include "cm5/util/json.hpp"
#include "cm5/util/time.hpp"

int main(int argc, char** argv) {
  using namespace cm5;
  using sched::CommPattern;

  util::ArgParser args;
  args.add_option("pattern", "paper-p",
                  "pattern kind: paper-p | density | ring | shift | complete");
  args.add_option("procs", "8", "processor count");
  args.add_option("bytes", "256", "bytes per message");
  args.add_option("density", "0.25", "density for --pattern density");
  args.add_option("halo", "1", "neighbours per side for --pattern ring");
  args.add_option("seed", "1", "random seed");
  args.add_option("save", "", "write the pattern to this file and exit");
  args.add_option("load", "", "read the pattern from this file (overrides --pattern)");
  args.add_option("trace", "0", "print the first N trace events of the greedy run");
  args.add_option("metrics", "",
                  "write full per-scheduler run metrics (JSON) to this file");
  args.add_flag("timeline", "draw an ASCII busy/idle timeline of each scheduler");
  args.add_flag("show-schedules", "print every step of every schedule");
  args.add_flag("report", "print the full schedule report per scheduler");
  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // Bad option values, an unknown pattern kind and unreadable or
  // malformed pattern files are usage errors: one-line diagnosis, exit 2.
  const std::string kind = args.get_string("pattern");
  std::optional<CommPattern> built;
  try {
    const auto nprocs = static_cast<std::int32_t>(args.get_int("procs"));
    const std::int64_t bytes = args.get_int("bytes");
    built.emplace([&]() -> CommPattern {
      if (!args.get_string("load").empty()) {
        return sched::load_pattern(args.get_string("load"));
      }
      if (kind == "paper-p") return CommPattern::paper_pattern_p(bytes);
      if (kind == "density") {
        return patterns::exact_density(
            nprocs, args.get_double("density"), bytes,
            static_cast<std::uint64_t>(args.get_int("seed")));
      }
      if (kind == "ring") {
        return patterns::ring(nprocs,
                              static_cast<std::int32_t>(args.get_int("halo")),
                              bytes);
      }
      if (kind == "shift") return patterns::shift(nprocs, 1, bytes);
      if (kind == "complete") {
        return CommPattern::complete_exchange(nprocs, bytes);
      }
      throw std::runtime_error("unknown pattern kind: " + kind);
    }());
    if (!args.get_string("save").empty()) {
      sched::save_pattern(*built, args.get_string("save"));
      std::printf("pattern written to %s\n", args.get_string("save").c_str());
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pattern_explorer: %s\n", e.what());
    return 2;
  }
  const CommPattern& pattern = *built;

  std::printf("pattern: %s — %d procs, %lld messages, density %.0f%%, avg"
              " %.0f B\n\n",
              kind.c_str(), pattern.nprocs(),
              static_cast<long long>(pattern.num_messages()),
              pattern.density() * 100.0, pattern.avg_message_bytes());

  const std::string metrics_path = args.get_string("metrics");
  util::json::Value metrics_doc = util::json::Value::object();
  metrics_doc["pattern"] = kind;
  metrics_doc["nprocs"] = pattern.nprocs();
  metrics_doc["messages"] = pattern.num_messages();
  metrics_doc["density"] = pattern.density();
  metrics_doc["schedulers"] = util::json::Value::array();

  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(pattern.nprocs()));
  for (const auto scheduler :
       {sched::Scheduler::Linear, sched::Scheduler::Pairwise,
        sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
    if ((scheduler == sched::Scheduler::Pairwise ||
         scheduler == sched::Scheduler::Balanced) &&
        (pattern.nprocs() & (pattern.nprocs() - 1)) != 0) {
      std::printf("%-10s (skipped: needs a power-of-two machine)\n",
                  sched::scheduler_name(scheduler));
      continue;
    }
    const sched::CommSchedule schedule =
        sched::build_schedule(scheduler, pattern);
    schedule.validate_against(pattern);
    const auto crossings =
        sched::analyze_crossings(schedule, topo, topo.levels());
    const auto params =
        machine::MachineParams::cm5_defaults(pattern.nprocs());
    const auto estimated = sched::estimate_schedule_time(schedule, params);
    machine::Cm5Machine cm5(params);
    sched::ExecutorOptions options;
    options.barrier_per_step = true;
    sched::ObservedScheduleRun observed =
        sched::run_scheduled_pattern_observed(cm5, scheduler, pattern, options);
    const auto t = observed.result.makespan;
    if (!metrics_path.empty()) {
      util::json::Value entry = util::json::Value::object();
      entry["scheduler"] = sched::scheduler_name(scheduler);
      entry["estimate"] = sched::estimate_json(schedule, params);
      entry["metrics"] = observed.metrics.to_json(/*full=*/true);
      util::json::Value violations = util::json::Value::array();
      for (const std::string& v : observed.violations) violations.push_back(v);
      entry["violations"] = std::move(violations);
      metrics_doc["schedulers"].push_back(std::move(entry));
    }
    std::printf("%-10s %3d busy steps, max root-crossings/step %3d,"
                " simulated %10.3f ms (model estimate %8.3f ms)\n",
                sched::scheduler_name(scheduler), schedule.num_busy_steps(),
                crossings.max_crossings, util::to_ms(t),
                util::to_ms(estimated));
    if (args.get_flag("report")) {
      std::fputs(sched::analyze_schedule(schedule, topo).to_string().c_str(),
                 stdout);
    }
    if (args.get_flag("timeline")) {
      machine::Cm5Machine timeline_machine(params);
      sim::TraceRecorder recorder;
      timeline_machine.run_traced(
          [&](machine::Node& node) { sched::execute_schedule(node, schedule); },
          recorder.sink());
      std::fputs(recorder.timeline(pattern.nprocs()).c_str(), stdout);
    }
    if (args.get_flag("show-schedules")) {
      std::fputs(schedule.to_string().c_str(), stdout);
      std::fputs("\n", stdout);
    }
  }
  const auto trace_lines = static_cast<std::size_t>(args.get_int("trace"));
  if (trace_lines > 0) {
    std::printf("\ntrace of the greedy run (%zu events):\n", trace_lines);
    machine::Cm5Machine cm5(
        machine::MachineParams::cm5_defaults(pattern.nprocs()));
    const sched::CommSchedule schedule =
        sched::build_greedy(pattern);
    sim::TraceRecorder recorder;
    cm5.run_traced(
        [&](machine::Node& node) { sched::execute_schedule(node, schedule); },
        recorder.sink());
    std::fputs(recorder.render(trace_lines).c_str(), stdout);
  }

  if (!metrics_path.empty()) {
    util::json::write_file(metrics_path, metrics_doc);
    std::printf("\nfull run metrics written to %s\n", metrics_path.c_str());
  }

  std::printf("\nRun with --show-schedules to print the per-step tables\n"
              "(the paper's Tables 7-10 format).\n");
  return 0;
}
