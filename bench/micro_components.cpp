/// Microbenchmarks (google-benchmark) of the simulator's own components:
/// schedule construction cost (the paper amortizes it over iterations,
/// §4.5 — these numbers justify that), the DES kernel's message
/// throughput, and the FFT kernel (one transform, and a plan reused over
/// one node's rows of the data-mode 2-D FFT).

#include <benchmark/benchmark.h>

#include "cm5/fft/fft1d.hpp"
#include "cm5/machine/machine.hpp"
#include "cm5/patterns/synthetic.hpp"
#include "cm5/sched/builders.hpp"
#include "cm5/util/rng.hpp"

namespace {

using namespace cm5;

void BM_BuildGreedySchedule(benchmark::State& state) {
  const auto nprocs = static_cast<std::int32_t>(state.range(0));
  const auto pattern = patterns::exact_density(nprocs, 0.4, 256, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::build_greedy(pattern));
  }
  state.SetLabel(std::to_string(pattern.num_messages()) + " messages");
}
BENCHMARK(BM_BuildGreedySchedule)->Arg(32)->Arg(64)->Arg(128);

void BM_BuildPairwiseSchedule(benchmark::State& state) {
  const auto nprocs = static_cast<std::int32_t>(state.range(0));
  const auto pattern = patterns::exact_density(nprocs, 0.4, 256, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::build_pairwise(pattern));
  }
}
BENCHMARK(BM_BuildPairwiseSchedule)->Arg(32)->Arg(64)->Arg(128);

void BM_KernelMessageThroughput(benchmark::State& state) {
  // Host-time cost of simulating one rendezvous message (ping-pong).
  const auto nprocs = 4;
  machine::Cm5Machine machine(machine::MachineParams::cm5_defaults(nprocs));
  const std::int64_t rounds = 200;
  for (auto _ : state) {
    machine.run([&](machine::Node& node) {
      if (node.self() == 0) {
        for (std::int64_t i = 0; i < rounds; ++i) {
          node.send_block(1, 64);
          (void)node.receive_block(1);
        }
      } else if (node.self() == 1) {
        for (std::int64_t i = 0; i < rounds; ++i) {
          (void)node.receive_block(0);
          node.send_block(0, 64);
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 2 * rounds);
}
BENCHMARK(BM_KernelMessageThroughput);

void BM_Fft1d(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<fft::Complex> data(n);
  for (auto& x : data) x = fft::Complex(rng.next_double(), rng.next_double());
  for (auto _ : state) {
    fft::fft_inplace(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft1d)->Arg(1024)->Arg(4096)->Arg(16384);

/// One node's row phase of fft2d-data: a plan built once and run over the
/// node's 64 rows of length n (n = 2048 on 32 nodes). The rows are reset
/// from the input outside the timed region, so every run transforms the
/// same finite values.
void BM_FftPlanRows(benchmark::State& state) {
  constexpr std::size_t kRows = 64;
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  std::vector<fft::Complex> input(kRows * n);
  for (auto& x : input) x = fft::Complex(rng.next_double(), rng.next_double());
  std::vector<fft::Complex> rows(input.size());
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(input.begin(), input.end(), rows.begin());
    state.ResumeTiming();
    const fft::FftPlan plan(n);
    for (std::size_t r = 0; r < kRows; ++r) {
      plan.run(std::span(rows).subspan(r * n, n));
    }
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRows * n));
}
BENCHMARK(BM_FftPlanRows)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
