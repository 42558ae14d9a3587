/// A tour of every collective in the library, with real data verified on
/// the way: broadcast, gather, scatter, all-gather, all-reduce and the
/// control-network globals — the communication toolbox the paper's
/// algorithms generalize into.
///
///   $ ./collectives_tour [--procs 16]

#include <cstdio>
#include <cstring>
#include <numeric>

#include "cm5/sched/broadcast.hpp"
#include "cm5/sched/collectives.hpp"
#include "cm5/util/check.hpp"
#include "cm5/util/cli.hpp"
#include "cm5/util/time.hpp"

int main(int argc, char** argv) {
  using namespace cm5;

  util::ArgParser args;
  args.add_option("procs", "16", "simulated nodes (power of two)");
  std::int32_t nprocs = 0;
  try {
    if (!args.parse(argc, argv)) return 0;
    nprocs = static_cast<std::int32_t>(args.get_int("procs", 1, 4096, true));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  machine::Cm5Machine cm5(machine::MachineParams::cm5_defaults(nprocs));
  const auto run = cm5.run([&](machine::Node& node) {
    const auto self = node.self();

    // 1. Broadcast: node 0 shares a value with everyone (REB).
    std::vector<std::byte> seed_bytes;
    if (self == 0) {
      const std::int64_t seed = 20260706;
      seed_bytes.resize(sizeof seed);
      std::memcpy(seed_bytes.data(), &seed, sizeof seed);
    }
    const auto got = sched::recursive_broadcast_data(node, 0, seed_bytes);
    std::int64_t seed = 0;
    std::memcpy(&seed, got.data(), sizeof seed);
    CM5_CHECK(seed == 20260706);

    // 2. All-reduce: element-wise vector sum over the data network.
    std::vector<double> stats(64, static_cast<double>(self));
    sched::all_reduce_sum(node, stats);
    CM5_CHECK(stats[0] == static_cast<double>(nprocs) * (nprocs - 1) / 2.0);

    // 3. All-gather: everyone learns everyone's contribution.
    std::vector<std::byte> mine(8, static_cast<std::byte>(self));
    const auto all = sched::all_gather_data(node, mine);
    CM5_CHECK(all.size() == static_cast<std::size_t>(nprocs));
    CM5_CHECK(all[static_cast<std::size_t>(nprocs) - 1][0] ==
              static_cast<std::byte>(nprocs - 1));

    // 4. Gather to a root, then scatter the gathered blocks back out:
    // every node must get its own contribution back.
    const auto at_root = sched::gather_data(node, 0, mine);
    const auto back = sched::scatter_data(node, 0, at_root);
    CM5_CHECK(back == mine);

    // 5. Control-network scalar global: a barrier-synchronized sum.
    const double total = node.reduce_sum(1.0);
    CM5_CHECK(total == static_cast<double>(nprocs));

    if (self == 0) {
      std::printf("all collectives verified on %d nodes at simulated t ="
                  " %.3f ms\n",
                  nprocs, util::to_ms(node.now()));
    }
  });
  std::printf("run complete: makespan %.3f ms, %lld point-to-point messages,"
              " %lld control-network ops on node 0\n",
              util::to_ms(run.makespan),
              static_cast<long long>(run.network.flows_completed),
              static_cast<long long>(run.node_counters[0].global_ops));
  return 0;
}
