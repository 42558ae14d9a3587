#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/bench_common.hpp"
#include "cm5/patterns/synthetic.hpp"

/// The parallel bench sweep (bench::run_cells) must be an observational
/// no-op: with CM5_BENCH_DETERMINISTIC=1, the table text and the
/// BENCH_*.json file produced by a parallel sweep are byte-identical to a
/// serial sweep. These tests drive the exact smoke-mode cell sets of
/// fig05 (regular exchanges) and table11 (irregular schedules) through
/// run_cells at 1 worker and at 8 workers and diff both artifacts.

namespace cm5 {
namespace {

/// Reads a whole file into a string (empty if unreadable).
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// RAII environment override (tests run single-threaded at this level).
class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~EnvVar() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

struct SweepArtifacts {
  std::string table;
  std::string json;
  std::vector<util::SimDuration> makespans;
};

/// Runs `make_cells()` through run_cells with `threads` workers and
/// renders the same table/JSON a bench binary would emit.
SweepArtifacts run_sweep(
    const std::string& bench_name, int threads,
    const std::function<std::vector<std::function<bench::Measured()>>()>&
        make_cells,
    const std::vector<std::string>& ids) {
  const std::string dir =
      ::testing::TempDir() + "bench_determinism_" + std::to_string(threads);
  std::filesystem::create_directories(dir);
  std::remove((dir + "/BENCH_" + bench_name + ".json").c_str());
  const EnvVar threads_env("CM5_BENCH_THREADS", std::to_string(threads).c_str());
  const EnvVar metrics_dir("CM5_BENCH_METRICS_DIR", dir.c_str());

  auto cells = make_cells();
  EXPECT_EQ(cells.size(), ids.size());
  const std::vector<bench::Measured> runs =
      bench::run_cells(std::move(cells));

  SweepArtifacts out;
  util::TextTable table({"cell", "makespan (ms)"});
  {
    bench::MetricsEmitter metrics(bench_name);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      table.add_row({ids[i], metrics.ms_cell(ids[i], runs[i])});
      out.makespans.push_back(runs[i].makespan);
    }
    metrics.write();
  }
  out.table = table.render();
  out.json = slurp(dir + "/BENCH_" + bench_name + ".json");
  return out;
}

TEST(BenchDeterminismTest, Fig05SmokeCellsAreSweepOrderInvariant) {
  const EnvVar det("CM5_BENCH_DETERMINISTIC", "1");
  const std::int32_t nprocs = 32;
  const std::vector<std::int64_t> sizes = {0, 256};  // fig05 smoke list

  auto make_cells = [&] {
    std::vector<std::function<bench::Measured()>> cells;
    for (const std::int64_t bytes : sizes) {
      for (const sched::ExchangeAlgorithm alg :
           sched::kAllExchangeAlgorithms) {
        cells.push_back([nprocs, alg, bytes] {
          return bench::measure_complete_exchange(nprocs, alg, bytes);
        });
      }
    }
    return cells;
  };
  std::vector<std::string> ids;
  for (const std::int64_t bytes : sizes) {
    for (const sched::ExchangeAlgorithm alg : sched::kAllExchangeAlgorithms) {
      ids.push_back(std::string(sched::exchange_name(alg)) +
                    "/bytes=" + std::to_string(bytes));
    }
  }

  const SweepArtifacts serial =
      run_sweep("fig05_determinism", 1, make_cells, ids);
  const SweepArtifacts parallel =
      run_sweep("fig05_determinism", 8, make_cells, ids);

  EXPECT_EQ(serial.makespans, parallel.makespans);
  EXPECT_EQ(serial.table, parallel.table);
  ASSERT_FALSE(serial.json.empty());
  EXPECT_EQ(serial.json, parallel.json);
}

TEST(BenchDeterminismTest, Table11SmokeCellsAreSweepOrderInvariant) {
  const EnvVar det("CM5_BENCH_DETERMINISTIC", "1");
  const std::int32_t nprocs = 32;
  const double densities[] = {0.10, 0.75};  // table11 smoke rows, 256 B
  const std::int64_t bytes = 256;
  const sched::Scheduler algorithms[] = {
      sched::Scheduler::Linear, sched::Scheduler::Pairwise,
      sched::Scheduler::Balanced, sched::Scheduler::Greedy};

  std::vector<sched::CommPattern> pats;
  for (const double density : densities) {
    pats.push_back(patterns::exact_density(
        nprocs, density, bytes,
        /*seed=*/0xCE5 + static_cast<std::uint64_t>(bytes)));
  }
  auto make_cells = [&] {
    std::vector<std::function<bench::Measured()>> cells;
    for (const sched::CommPattern& pat : pats) {
      for (const sched::Scheduler alg : algorithms) {
        const sched::CommPattern* pattern = &pat;
        cells.push_back([pattern, alg] {
          return bench::measure_scheduled_pattern(*pattern, alg);
        });
      }
    }
    return cells;
  };
  std::vector<std::string> ids;
  for (const double density : densities) {
    for (const sched::Scheduler alg : algorithms) {
      ids.push_back(std::string(sched::scheduler_name(alg)) + "/density=" +
                    util::TextTable::fmt(density * 100.0, 0) +
                    "/bytes=" + std::to_string(bytes));
    }
  }

  const SweepArtifacts serial =
      run_sweep("table11_determinism", 1, make_cells, ids);
  const SweepArtifacts parallel =
      run_sweep("table11_determinism", 8, make_cells, ids);

  EXPECT_EQ(serial.makespans, parallel.makespans);
  EXPECT_EQ(serial.table, parallel.table);
  ASSERT_FALSE(serial.json.empty());
  EXPECT_EQ(serial.json, parallel.json);
}

TEST(BenchDeterminismTest, ThreadKnobAndDefaultsAreSane) {
  {
    const EnvVar threads_env("CM5_BENCH_THREADS", "3");
    EXPECT_EQ(bench::bench_threads(), 3);
  }
  {
    const EnvVar threads_env("CM5_BENCH_THREADS", "0");
    EXPECT_EQ(bench::bench_threads(), 1);  // floor at 1
  }
  EXPECT_GE(bench::bench_threads(), 2);  // default oversubscribes
}

TEST(BenchDeterminismTest, RunCellsPropagatesFirstException) {
  const EnvVar threads_env("CM5_BENCH_THREADS", "4");
  std::vector<std::function<bench::Measured()>> cells;
  for (int i = 0; i < 8; ++i) {
    cells.push_back([i]() -> bench::Measured {
      if (i == 5) throw std::runtime_error("cell failure");
      return bench::Measured{};
    });
  }
  EXPECT_THROW(bench::run_cells(std::move(cells)), std::runtime_error);
}

}  // namespace
}  // namespace cm5
