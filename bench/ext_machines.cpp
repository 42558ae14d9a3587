/// Extension bench: the same scheduling algorithms on three machine
/// models — the paper's CM-5, a CM-5E-like successor (CMMD 3.x
/// overheads), and an iPSC/860-like hypercube (the machine the paper's
/// related work [1, 2] studies). Algorithm rankings are properties of
/// the machine balance (overhead vs bandwidth vs thinning), not of the
/// algorithms alone; this bench shows which conclusions transfer.

#include <cstdio>

#include "cm5/patterns/synthetic.hpp"
#include "cm5/sched/complete_exchange.hpp"
#include "cm5/sched/executor.hpp"
#include "common/bench_common.hpp"

namespace {

using cm5::machine::MachineParams;

cm5::bench::Measured exchange_on(const MachineParams& params,
                                 cm5::sched::ExchangeAlgorithm alg,
                                 std::int64_t bytes) {
  return cm5::bench::measure_program(params, [&](cm5::machine::Node& node) {
    cm5::sched::complete_exchange(node, alg, bytes);
  });
}

cm5::bench::Measured irregular_on(const MachineParams& params,
                                  const cm5::sched::CommPattern& pattern,
                                  cm5::sched::Scheduler scheduler) {
  cm5::machine::Cm5Machine m(params);
  cm5::sched::ExecutorOptions options;
  options.barrier_per_step = true;
  cm5::machine::ObservedRun run =
      cm5::sched::run_scheduled_pattern_observed(m, scheduler, pattern,
                                                 options);
  cm5::bench::Measured out;
  out.makespan = run.result.makespan;
  out.metrics = std::move(run.metrics);
  out.violations = std::move(run.violations);
  return out;
}

}  // namespace

int main() {
  using namespace cm5;
  using sched::ExchangeAlgorithm;
  using sched::Scheduler;

  bench::print_banner(
      "Extension",
      "algorithm rankings across machine models (32 nodes) and "
      "large-partition scaling (1024/2048 nodes, fiber backend)");

  struct MachineDef {
    const char* name;
    MachineParams params;
  };
  const MachineDef machines[] = {
      {"CM-5 (paper)", MachineParams::cm5_defaults(32)},
      {"CM-5E-like", MachineParams::cm5e_like(32)},
      {"iPSC/860-like", MachineParams::ipsc860_like(32)},
  };

  bench::MetricsEmitter metrics("ext_machines");
  std::printf("\nComplete exchange, 512 B per pair (ms):\n");
  util::TextTable ex({"machine", "Linear", "Pairwise", "Recursive",
                      "Balanced", "BEX gain over PEX"});
  for (const MachineDef& m : machines) {
    const bench::Measured lex =
        exchange_on(m.params, ExchangeAlgorithm::Linear, 512);
    const bench::Measured pex =
        exchange_on(m.params, ExchangeAlgorithm::Pairwise, 512);
    const bench::Measured rex =
        exchange_on(m.params, ExchangeAlgorithm::Recursive, 512);
    const bench::Measured bex =
        exchange_on(m.params, ExchangeAlgorithm::Balanced, 512);
    const std::string suffix = std::string("/") + m.name;
    ex.add_row({m.name, metrics.ms_cell("ex-linear" + suffix, lex),
                metrics.ms_cell("ex-pairwise" + suffix, pex),
                metrics.ms_cell("ex-recursive" + suffix, rex),
                metrics.ms_cell("ex-balanced" + suffix, bex),
                util::TextTable::fmt((static_cast<double>(pex.makespan) /
                                          static_cast<double>(bex.makespan) -
                                      1.0) *
                                         100.0,
                                     1) +
                    "%"});
  }
  std::fputs(ex.render().c_str(), stdout);

  std::printf("\nIrregular pattern (25%% density, 256 B), step-synchronized"
              " (ms):\n");
  util::TextTable irr({"machine", "Linear", "Pairwise", "Balanced", "Greedy"});
  const auto pattern = patterns::exact_density(32, 0.25, 256, 0xE3);
  for (const MachineDef& m : machines) {
    std::vector<std::string> row{m.name};
    for (const Scheduler s : {Scheduler::Linear, Scheduler::Pairwise,
                              Scheduler::Balanced, Scheduler::Greedy}) {
      const std::string id = std::string("irr-") + sched::scheduler_name(s) +
                             "/" + m.name;
      row.push_back(metrics.ms_cell(id, irregular_on(m.params, pattern, s)));
    }
    irr.add_row(std::move(row));
  }
  std::fputs(irr.render().c_str(), stdout);

  // Large partitions: the machine sizes where REX's lg N phase count
  // actually bites. Each node runs on a 256 KiB mmap'd fiber stack, so a
  // 2048-node cell needs no OS thread per node. Recursive exchange is the
  // only algorithm whose host cost stays CI-friendly at this scale
  // (O(N lg N) messages); Pairwise/Balanced are O(N^2) flows and take
  // minutes at N = 2048.
  std::printf("\nLarge partitions (CM-5 defaults, recursive exchange, ms):\n");
  const std::vector<std::int32_t> big_procs =
      bench::smoke_select<std::int32_t>({1024, 2048}, {1024, 2048});
  const std::vector<std::int64_t> big_bytes =
      bench::smoke_select<std::int64_t>({64, 1920}, {64});
  std::vector<std::function<bench::Measured()>> big_cells;
  for (const std::int32_t nprocs : big_procs) {
    for (const std::int64_t bytes : big_bytes) {
      big_cells.push_back([nprocs, bytes] {
        return exchange_on(MachineParams::cm5_defaults(nprocs),
                           ExchangeAlgorithm::Recursive, bytes);
      });
    }
  }
  const std::vector<bench::Measured> big_runs =
      bench::run_cells(std::move(big_cells));
  std::vector<std::string> big_header{"procs"};
  for (const std::int64_t bytes : big_bytes) {
    big_header.push_back("Recursive " + std::to_string(bytes) + " B (ms)");
  }
  util::TextTable big(std::move(big_header));
  std::size_t big_cell = 0;
  for (const std::int32_t nprocs : big_procs) {
    std::vector<std::string> row{std::to_string(nprocs)};
    for (const std::int64_t bytes : big_bytes) {
      const std::string id = "rex-large/procs=" + std::to_string(nprocs) +
                             "/bytes=" + std::to_string(bytes);
      row.push_back(metrics.ms_cell(id, big_runs[big_cell++]));
    }
    big.add_row(std::move(row));
  }
  std::fputs(big.render().c_str(), stdout);

  std::printf(
      "\nExpected: BEX's edge over PEX exists only where the tree thins\n"
      "(CM-5/CM-5E; the hypercube-like machine has no root bottleneck);\n"
      "greedy's win at low density is machine-independent (it comes from\n"
      "step count, not topology); everything is slower on the iPSC's\n"
      "2.8 MB/s links despite its faster processors.\n");
  return 0;
}
