/// Reproduces paper Figure 8: "Complete Exchange Algorithms on Varying
/// Multiprocessor Sizes (message size = 1920 Bytes)".
///
/// Paper shape: Balanced < Pairwise < Recursive at small machine sizes
/// (same deviation note as Figure 7 for the largest sizes).

#include <cstdio>

#include "common/bench_common.hpp"

int main() {
  using namespace cm5;
  using sched::ExchangeAlgorithm;

  bench::print_banner("Figure 8",
                      "complete exchange vs machine size (1920 bytes)");

  bench::MetricsEmitter metrics("fig08_exchange_scaling_1920");
  const std::vector<std::int32_t> procs =
      bench::smoke_select<std::int32_t>({32, 64, 128, 256}, {32, 64});
  const ExchangeAlgorithm algs[] = {ExchangeAlgorithm::Pairwise,
                                    ExchangeAlgorithm::Recursive,
                                    ExchangeAlgorithm::Balanced};

  std::vector<std::function<bench::Measured()>> cells;
  for (const std::int32_t nprocs : procs) {
    for (const ExchangeAlgorithm alg : algs) {
      cells.push_back([nprocs, alg] {
        return bench::measure_complete_exchange(nprocs, alg, 1920);
      });
    }
  }
  const std::vector<bench::Measured> runs = bench::run_cells(std::move(cells));

  util::TextTable table(
      {"procs", "Pairwise (ms)", "Recursive (ms)", "Balanced (ms)"});
  std::size_t cell = 0;
  for (const std::int32_t nprocs : procs) {
    std::vector<std::string> row{std::to_string(nprocs)};
    for (const ExchangeAlgorithm alg : algs) {
      const std::string id = std::string(sched::exchange_name(alg)) +
                             "/procs=" + std::to_string(nprocs);
      row.push_back(metrics.ms_cell(id, runs[cell++]));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\nExpected shape (paper): Balanced < Pairwise < Recursive at small\n"
      "machine sizes; Balanced's margin over Pairwise grows with size\n"
      "because it spreads the root-crossing exchanges (paper §3.4).\n");
  return 0;
}
