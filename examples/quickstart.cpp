/// Quickstart: simulate a 32-node CM-5, run one complete exchange with
/// each algorithm, and print the communication times — the minimal use
/// of the library's three core pieces (machine, algorithm, result).
///
///   $ ./quickstart [--procs 32] [--bytes 512]

#include <cstdio>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/complete_exchange.hpp"
#include "cm5/util/cli.hpp"
#include "cm5/util/time.hpp"

int main(int argc, char** argv) {
  using namespace cm5;

  util::ArgParser args;
  args.add_option("procs", "32", "number of simulated nodes (power of two)");
  args.add_option("bytes", "512", "message size per processor pair");
  std::int32_t nprocs = 0;
  std::int64_t bytes = 0;
  try {
    if (!args.parse(argc, argv)) return 0;
    nprocs = static_cast<std::int32_t>(args.get_int("procs", 1, 4096, true));
    bytes = args.get_int("bytes", 0, 1 << 20);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // 1. A simulated CM-5 partition with the paper's §2 constants.
  machine::Cm5Machine cm5(machine::MachineParams::cm5_defaults(nprocs));

  std::printf("Complete exchange of %lld bytes/pair on %d simulated nodes:\n",
              static_cast<long long>(bytes), nprocs);
  for (const auto algorithm : sched::kAllExchangeAlgorithms) {
    // 2. Run a node program on every node; blocking CMMD-style messaging.
    const sim::RunResult result = cm5.run([&](machine::Node& node) {
      sched::complete_exchange(node, algorithm, bytes);
    });
    // 3. The makespan is the communication time the paper's plots show.
    // The highest level that actually has links is levels()-1 (the
    // level-`levels()` subtree is the whole machine and has no parent);
    // traffic there had to cross the root switches.
    const auto& by_level = result.network.bytes_by_level;
    const std::size_t root_level = by_level.size() - 2;
    // Each level's counter sees every crossing message twice (up link and
    // down link at the top level; inject and eject at level 0).
    const double injected = by_level[0] / 2.0;
    std::printf("  %-10s %10.3f ms   (%lld messages, %.1f%% of wire bytes"
                " crossed the root)\n",
                sched::exchange_name(algorithm),
                util::to_ms(result.makespan),
                static_cast<long long>(result.network.flows_completed),
                root_level >= 1 && injected > 0.0
                    ? 100.0 * (by_level[root_level] / 2.0) / injected
                    : 0.0);
  }
  std::printf("\nExpected: Linear is dramatically worse (synchronous sends\n"
              "serialize at each step's receiver); Balanced edges out\n"
              "Pairwise by spreading root-crossing traffic.\n");
  return 0;
}
