/// Unstructured Euler demo (paper §4.5, Table 12's Euler workloads):
/// a pressure blast inside a closed annulus mesh, advanced by the
/// distributed cell-centred solver under each irregular scheduler.
/// Verifies conservation of mass/energy and agreement with the serial
/// solver, and reports the simulated time per step.
///
///   $ ./euler_demo [--procs 16] [--vertices 2048] [--steps 25]

#include <cmath>
#include <cstdio>

#include "cm5/euler/euler2d.hpp"
#include "cm5/mesh/generate.hpp"
#include "cm5/mesh/partition.hpp"
#include "cm5/util/cli.hpp"
#include "cm5/util/time.hpp"

int main(int argc, char** argv) {
  using namespace cm5;
  using euler::Cons;

  util::ArgParser args;
  args.add_option("procs", "16", "simulated nodes (power of two)");
  args.add_option("vertices", "2048", "approximate mesh vertex count");
  args.add_option("steps", "25", "time steps to run");
  std::int32_t nprocs = 0;
  std::int32_t target = 0;
  std::int32_t steps = 0;
  try {
    if (!args.parse(argc, argv)) return 0;
    nprocs = static_cast<std::int32_t>(args.get_int("procs", 1, 4096, true));
    target = static_cast<std::int32_t>(args.get_int("vertices", 16, 1 << 20));
    steps = static_cast<std::int32_t>(args.get_int("steps", 0, 1 << 20));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const mesh::TriMesh m = mesh::airfoil_with_target(target, 3);
  if (m.num_triangles() < nprocs) {
    std::fprintf(stderr, "error: option --procs: %d nodes but only %d mesh"
                 " cells to partition\n", nprocs, m.num_triangles());
    return 2;
  }
  const auto part = mesh::rcb_cell_partition(m, nprocs);
  const mesh::HaloPlan halo = mesh::build_cell_halo(m, part, nprocs);
  const auto pattern = halo.pattern(sizeof(Cons));

  // Over-pressured ring segment near the inner boundary.
  std::vector<Cons> initial(static_cast<std::size_t>(m.num_triangles()));
  for (mesh::TriId t = 0; t < m.num_triangles(); ++t) {
    const mesh::Point c = m.centroid(t);
    const double r = std::sqrt(c.x * c.x + c.y * c.y);
    initial[static_cast<std::size_t>(t)] =
        euler::from_primitive(1.0, 0.0, 0.0, r < 2.5 ? 5.0 : 1.0);
  }

  // Serial reference.
  euler::EulerSolver serial(m);
  serial.set_state(initial);
  const double dt = serial.stable_dt(0.4);
  const double mass0 = serial.total_mass();
  const double energy0 = serial.total_energy();
  for (std::int32_t s = 0; s < steps; ++s) serial.step(dt);

  std::printf("mesh: %d vertices, %d cells on %d nodes; halo density %.0f%%,"
              " avg message %.0f B\n",
              m.num_vertices(), m.num_triangles(), nprocs,
              pattern.density() * 100.0, pattern.avg_message_bytes());
  std::printf("blast: dt = %.3e, %d steps; serial mass drift %.2e, energy"
              " drift %.2e\n\n",
              dt, steps,
              std::abs(serial.total_mass() - mass0) / mass0,
              std::abs(serial.total_energy() - energy0) / energy0);

  for (const auto scheduler :
       {sched::Scheduler::Linear, sched::Scheduler::Pairwise,
        sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
    machine::Cm5Machine cm5(machine::MachineParams::cm5_defaults(nprocs));
    std::vector<std::vector<Cons>> slabs(static_cast<std::size_t>(nprocs));
    const auto run = cm5.run([&](machine::Node& node) {
      euler::DistributedEuler dist(node, m, part, halo, scheduler, initial);
      for (std::int32_t s = 0; s < steps; ++s) dist.step(dt);
      slabs[static_cast<std::size_t>(node.self())]
          .assign(dist.state().begin(), dist.state().end());
    });
    double diff = 0.0;
    for (mesh::TriId t = 0; t < m.num_triangles(); ++t) {
      const auto owner = static_cast<std::size_t>(
          part[static_cast<std::size_t>(t)]);
      diff = std::max(diff,
                      std::abs(slabs[owner][static_cast<std::size_t>(t)].rho -
                               serial.state()[static_cast<std::size_t>(t)].rho));
    }
    std::printf("  %-10s simulated %10.3f ms (%6.3f ms/step)   max |rho -"
                " serial| = %.2e\n",
                sched::scheduler_name(scheduler), util::to_ms(run.makespan),
                util::to_ms(run.makespan) / steps, diff);
  }
  std::printf(
      "\nAll schedulers integrate identically (bit-for-bit vs serial);\n"
      "the halo-exchange schedule only changes the simulated time.\n");
  return 0;
}
