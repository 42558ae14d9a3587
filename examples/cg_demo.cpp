/// Conjugate-gradient demo (paper §4.5, Table 12's first workload):
/// assembles the shifted Laplacian of an unstructured mesh, partitions
/// it with RCB, solves the system with the distributed CG under each
/// irregular scheduler, and verifies the solution against sequential CG.
///
///   $ ./cg_demo [--procs 16] [--vertices 4096]

#include <cmath>
#include <cstdio>

#include "cm5/mesh/generate.hpp"
#include "cm5/mesh/halo.hpp"
#include "cm5/mesh/partition.hpp"
#include "cm5/sparse/cg.hpp"
#include "cm5/util/cli.hpp"
#include "cm5/util/rng.hpp"
#include "cm5/util/time.hpp"

int main(int argc, char** argv) {
  using namespace cm5;

  util::ArgParser args;
  args.add_option("procs", "16", "simulated nodes (power of two)");
  args.add_option("vertices", "4096", "approximate mesh vertex count");
  std::int32_t nprocs = 0;
  std::int32_t target = 0;
  try {
    if (!args.parse(argc, argv)) return 0;
    nprocs = static_cast<std::int32_t>(args.get_int("procs", 1, 4096, true));
    target = static_cast<std::int32_t>(args.get_int("vertices", 16, 1 << 20));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const mesh::TriMesh m = mesh::airfoil_with_target(target, 7);
  if (m.num_vertices() < nprocs) {
    std::fprintf(stderr, "error: option --procs: %d nodes but only %d mesh"
                 " vertices to partition\n", nprocs, m.num_vertices());
    return 2;
  }
  const sparse::CsrMatrix a = sparse::CsrMatrix::mesh_laplacian(m);
  const auto part = mesh::rcb_vertex_partition(m, nprocs);
  const mesh::HaloPlan halo = mesh::build_vertex_halo(m, part, nprocs);
  const auto pattern = halo.pattern(sizeof(double));

  util::Rng rng(17);
  std::vector<double> b(static_cast<std::size_t>(a.rows()));
  for (double& v : b) v = rng.next_double() * 2.0 - 1.0;

  const sparse::CgResult serial = sparse::cg_solve(a, b, 1000, 1e-10);
  std::printf(
      "mesh: %d vertices, %d triangles; matrix: %d rows, %lld nonzeros\n",
      m.num_vertices(), m.num_triangles(), a.rows(),
      static_cast<long long>(a.nonzeros()));
  std::printf("halo pattern on %d nodes: density %.0f%%, avg message %.0f B\n",
              nprocs, pattern.density() * 100.0, pattern.avg_message_bytes());
  std::printf("serial CG: %d iterations, residual %.2e\n\n", serial.iterations,
              serial.residual_norm);

  for (const auto scheduler :
       {sched::Scheduler::Linear, sched::Scheduler::Pairwise,
        sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
    machine::Cm5Machine cm5(machine::MachineParams::cm5_defaults(nprocs));
    std::vector<sparse::CgResult> results(static_cast<std::size_t>(nprocs));
    const auto run = cm5.run([&](machine::Node& node) {
      results[static_cast<std::size_t>(node.self())] =
          sparse::cg_solve_distributed(node, a, b, part, halo, scheduler,
                                       1000, 1e-10);
    });
    double diff = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
      const auto owner = static_cast<std::size_t>(part[i]);
      diff = std::max(diff, std::abs(results[owner].x[i] - serial.x[i]));
    }
    std::printf(
        "  %-10s simulated %10.3f ms   %d iterations, max |x - x_serial| ="
        " %.2e\n",
        sched::scheduler_name(scheduler), util::to_ms(run.makespan),
        results[0].iterations, diff);
  }
  std::printf(
      "\nAll schedulers produce the same solution; only the simulated\n"
      "communication time differs (greedy schedules fewest steps).\n");
  return 0;
}
