/// Inspector/executor demo — the runtime context this paper comes from
/// (its ref [13] and the acknowledgment to Joel Saltz). An irregular
/// kernel like
///
///     do i = 1, n_local
///        y(i) = y(i) + a(i) * x(ia(i))      ! ia() is data-dependent
///     end do
///
/// cannot know its communication at compile time. The *inspector* runs
/// once: it translates the indirection array into a communication
/// pattern and builds a schedule with one of the paper's algorithms; the
/// *executor* then performs the gather every iteration. This demo runs
/// the kernel with every scheduler and verifies the result against a
/// serial computation.
///
///   $ ./parti_demo [--procs 16] [--elements 4096] [--accesses 512]

#include <array>
#include <cmath>
#include <cstdio>
#include <vector>

#include "cm5/runtime/gather.hpp"
#include "cm5/util/cli.hpp"
#include "cm5/util/rng.hpp"
#include "cm5/util/time.hpp"

int main(int argc, char** argv) {
  using namespace cm5;

  util::ArgParser args;
  args.add_option("procs", "16", "simulated nodes (power of two)");
  args.add_option("elements", "4096", "global array size");
  args.add_option("accesses", "512", "irregular accesses per node");
  std::int32_t nprocs = 0;
  std::int64_t elements = 0;
  std::size_t accesses = 0;
  try {
    if (!args.parse(argc, argv)) return 0;
    nprocs = static_cast<std::int32_t>(args.get_int("procs", 1, 4096, true));
    elements = args.get_int("elements", nprocs, 1 << 24);
    accesses = static_cast<std::size_t>(args.get_int("accesses", 0, 1 << 20));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const runtime::BlockDistribution dist(elements, nprocs);

  // Global data x[g] = sin(g); serial reference of sum over all accesses.
  auto x_of = [](std::int64_t g) { return std::sin(static_cast<double>(g)); };

  std::printf("irregular gather of %zu accesses/node into a %lld-element"
              " block-distributed array on %d nodes\n\n",
              accesses, static_cast<long long>(elements), nprocs);

  for (const auto scheduler :
       {sched::Scheduler::Linear, sched::Scheduler::Pairwise,
        sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
    machine::Cm5Machine cm5(machine::MachineParams::cm5_defaults(nprocs));
    double pattern_density = 0.0;
    std::int64_t remote = 0;
    bool ok = true;
    const auto run = cm5.run([&](machine::Node& node) {
      // The indirection array ia(): mostly local/near accesses plus a
      // handful of fixed remote "mesh neighbours" — the access structure
      // a partitioned unstructured problem produces.
      util::Rng rng = util::Rng::forked(
          99, static_cast<std::uint64_t>(node.self()));
      std::array<machine::NodeId, 3> partners{};
      for (auto& p : partners) {
        p = static_cast<machine::NodeId>(
            (node.self() + 1 + rng.next_in(0, nprocs - 2)) % nprocs);
      }
      std::vector<std::int64_t> ia(accesses);
      const std::int64_t home = dist.first(node.self());
      for (auto& g : ia) {
        if (rng.next_bool(0.7)) {
          g = std::min<std::int64_t>(
              elements - 1,
              home + rng.next_in(0, dist.local_size(node.self()) - 1));
        } else {
          const machine::NodeId p =
              partners[static_cast<std::size_t>(rng.next_in(0, 2))];
          g = dist.first(p) + rng.next_in(0, dist.local_size(p) - 1);
        }
      }

      std::vector<double> owned(
          static_cast<std::size_t>(dist.local_size(node.self())));
      for (std::size_t k = 0; k < owned.size(); ++k) {
        owned[k] = x_of(dist.first(node.self()) +
                        static_cast<std::int64_t>(k));
      }

      // Inspector (once)...
      const runtime::GatherPlan plan(node, dist, ia, scheduler);
      if (node.self() == 0) {
        pattern_density = plan.pattern().density();
      }
      // ...executor (every "time step").
      std::vector<double> gathered(ia.size());
      for (int step = 0; step < 10; ++step) {
        plan.gather(node, owned, gathered);
      }
      for (std::size_t i = 0; i < ia.size(); ++i) {
        if (gathered[i] != x_of(ia[i])) ok = false;
      }
      if (node.self() == 0) remote = plan.remote_elements();
    });
    std::printf("  %-10s simulated %9.3f ms for 10 gathers  (pattern"
                " density %.0f%%, node 0 fetches %lld remote elements)"
                "  %s\n",
                sched::scheduler_name(scheduler), util::to_ms(run.makespan),
                pattern_density * 100.0, static_cast<long long>(remote),
                ok ? "verified" : "WRONG RESULTS");
  }
  std::printf(
      "\nThe inspector runs once; its cost amortizes over the iterations\n"
      "(paper §4.5). Which scheduler wins tracks the pattern density,\n"
      "exactly as Table 11 predicts: greedy below ~50%%, the xor\n"
      "schedules above.\n");
  return 0;
}
