/// Microbenchmarks (google-benchmark) of the fluid network's fast paths:
/// the on-demand route computation, the incremental vs oracle max-min solver
/// under single-flow churn, the next_event() scan after a time advance,
/// and a full exchange-step drain. These are the host-time costs docs/PERF.md
/// documents; run in Release mode.

#include <benchmark/benchmark.h>

#include <utility>

#include "cm5/net/fluid_network.hpp"
#include "cm5/net/topology.hpp"
#include "cm5/util/rng.hpp"

namespace {

using namespace cm5;

void BM_RouteLookup(benchmark::State& state) {
  const auto nprocs = static_cast<std::int32_t>(state.range(0));
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(nprocs));
  util::Rng rng(17);
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs(1024);
  for (auto& [s, d] : pairs) {
    s = static_cast<net::NodeId>(rng.next_below(static_cast<std::uint64_t>(nprocs)));
    do {
      d = static_cast<net::NodeId>(rng.next_below(static_cast<std::uint64_t>(nprocs)));
    } while (d == s);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [s, d] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(topo.route(s, d).data());
  }
}
BENCHMARK(BM_RouteLookup)->Arg(32)->Arg(256);

/// One small flow starting and completing against a standing population
/// of long-lived flows; every change costs one whole-network re-solve on
/// both solvers. The production solver keeps its flow and link lists
/// across solves and touches only loaded links; the oracle rebuilds
/// routes and capacities over every link from scratch (docs/PERF.md §2).
/// Random flows on 256 nodes share links densely. With `rex_partners`,
/// every flow runs between recursive-exchange partners at a low stage
/// (src ^ 2^k, k < 6) of a 4096-node machine: background flow f leaves
/// node 4f at stage f mod 6, the churning flow a random node at a random
/// stage, so flows load few of the machine's many links.
void churn(benchmark::State& state, net::FluidNetwork::SolverMode mode,
           std::int32_t nprocs, bool rex_partners) {
  const auto background = static_cast<std::int32_t>(state.range(0));
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(nprocs));
  net::FluidNetwork nw(topo);
  nw.set_solver_mode(mode);
  util::Rng rng(23);
  const auto random_node = [&] {
    return static_cast<net::NodeId>(
        rng.next_below(static_cast<std::uint64_t>(nprocs)));
  };
  const auto random_pair = [&] {
    const net::NodeId s = random_node();
    if (rex_partners) {
      return std::pair{s, s ^ (1 << static_cast<int>(rng.next_below(6)))};
    }
    net::NodeId d = random_node();
    if (d == s) d = (d + 1) % nprocs;
    return std::pair{s, d};
  };
  util::SimTime t = 0;
  for (std::int32_t f = 0; f < background; ++f) {
    const auto [s, d] =
        rex_partners ? std::pair{4 * f, (4 * f) ^ (1 << (f % 6))}
                     : random_pair();
    nw.start_flow(t, s, d, 1e15);  // effectively never completes
  }
  for (auto _ : state) {
    const auto [s, d] = random_pair();
    nw.start_flow(t, s, d, 64.0);
    while (nw.active_flows() > static_cast<std::size_t>(background)) {
      const auto ev = nw.next_event();
      t = *ev;
      benchmark::DoNotOptimize(nw.advance_to(t).size());
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["refrozen_per_solve"] =
      static_cast<double>(nw.stats().flows_refrozen) /
      static_cast<double>(nw.stats().rate_solves);
}

void BM_SolverChurnIncremental(benchmark::State& state) {
  churn(state, net::FluidNetwork::SolverMode::kIncremental, 256, false);
}
BENCHMARK(BM_SolverChurnIncremental)->Arg(64)->Arg(256)->Arg(1024);

void BM_SolverChurnOracle(benchmark::State& state) {
  churn(state, net::FluidNetwork::SolverMode::kOracle, 256, false);
}
BENCHMARK(BM_SolverChurnOracle)->Arg(64)->Arg(256)->Arg(1024);

/// The same churn on REX-partner flows of a 4096-node machine.
void BM_SolverChurnStructured(benchmark::State& state) {
  churn(state,
        state.range(1) == 0 ? net::FluidNetwork::SolverMode::kIncremental
                            : net::FluidNetwork::SolverMode::kOracle,
        4096, true);
}
BENCHMARK(BM_SolverChurnStructured)
    ->ArgNames({"background", "oracle"})
    ->Args({1024, 0})
    ->Args({1024, 1});

void BM_NextEventPeek(benchmark::State& state) {
  // next_event() on a cache miss with many active flows. Each iteration
  // first advances 1 ns (no completion, no re-solve), which clears the
  // memoized answer, so the query that follows is one full scan: the
  // iteration times one progress_to plus one scan over every flow.
  const auto flows = static_cast<std::int32_t>(state.range(0));
  const std::int32_t nprocs = 256;
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(nprocs));
  net::FluidNetwork nw(topo);
  util::Rng rng(29);
  for (std::int32_t f = 0; f < flows; ++f) {
    const auto s = static_cast<net::NodeId>(rng.next_below(static_cast<std::uint64_t>(nprocs)));
    auto d = static_cast<net::NodeId>(rng.next_below(static_cast<std::uint64_t>(nprocs)));
    if (d == s) d = (d + 1) % nprocs;
    nw.start_flow(0, s, d, 1e12);
  }
  util::SimTime t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nw.advance_to(++t).size());
    benchmark::DoNotOptimize(nw.next_event());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_NextEventPeek)->Arg(64)->Arg(1024)->Arg(4096);

void BM_ExchangeStepDrain(benchmark::State& state) {
  // One complete-exchange step at the fluid layer: N simultaneous
  // permutation flows started in a batch, then drained to completion.
  const auto nprocs = static_cast<std::int32_t>(state.range(0));
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(nprocs));
  net::FluidNetwork nw(topo);
  util::SimTime t = 0;
  std::int32_t step = 1;
  for (auto _ : state) {
    for (std::int32_t i = 0; i < nprocs; ++i) {
      nw.start_flow(t, i, (i + step) % nprocs, 1920.0);
    }
    while (nw.active_flows() > 0) {
      const auto ev = nw.next_event();
      t = *ev;
      benchmark::DoNotOptimize(nw.advance_to(t).size());
    }
    step = step % (nprocs - 1) + 1;
  }
  state.SetItemsProcessed(state.iterations() * nprocs);
}
BENCHMARK(BM_ExchangeStepDrain)->Arg(32)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
