/// Distributed 2-D FFT demo (paper §3.5): runs the real-data distributed
/// transform on a simulated CM-5, verifies it against the sequential 2-D
/// FFT, and reports both the numerical error and the simulated time of
/// each complete-exchange algorithm used as the transpose.
///
///   $ ./fft2d_demo [--procs 8] [--n 64]

#include <cmath>
#include <cstdio>
#include <vector>

#include "cm5/fft/fft2d.hpp"
#include "cm5/util/cli.hpp"
#include "cm5/util/rng.hpp"
#include "cm5/util/time.hpp"

int main(int argc, char** argv) {
  using namespace cm5;
  using fft::Complex;

  util::ArgParser args;
  args.add_option("procs", "8", "simulated nodes (power of two)");
  args.add_option("n", "64", "array side (power of two, multiple of procs)");
  std::int32_t nprocs = 0;
  std::int32_t n = 0;
  try {
    if (!args.parse(argc, argv)) return 0;
    nprocs = static_cast<std::int32_t>(args.get_int("procs", 1, 4096, true));
    n = static_cast<std::int32_t>(args.get_int("n", nprocs, 4096, true));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const std::int32_t rows = n / nprocs;

  // Random input, shared by every run.
  util::Rng rng(2026);
  std::vector<Complex> full(static_cast<std::size_t>(n) *
                            static_cast<std::size_t>(n));
  for (auto& x : full) {
    x = Complex(rng.next_double() * 2.0 - 1.0, rng.next_double() * 2.0 - 1.0);
  }
  std::vector<Complex> reference = full;
  fft::fft2d_inplace(reference, n, n);

  std::printf("%dx%d distributed 2-D FFT on %d simulated nodes\n", n, n,
              nprocs);
  for (const auto algorithm : sched::kAllExchangeAlgorithms) {
    machine::Cm5Machine cm5(machine::MachineParams::cm5_defaults(nprocs));
    std::vector<std::vector<Complex>> slabs(static_cast<std::size_t>(nprocs));
    const auto result = cm5.run([&](machine::Node& node) {
      const auto p = static_cast<std::size_t>(node.self());
      std::vector<Complex> slab(
          full.begin() + static_cast<std::ptrdiff_t>(
                             p * static_cast<std::size_t>(rows) *
                             static_cast<std::size_t>(n)),
          full.begin() + static_cast<std::ptrdiff_t>(
                             (p + 1) * static_cast<std::size_t>(rows) *
                             static_cast<std::size_t>(n)));
      fft::fft2d_distributed(node, algorithm, n, slab);
      slabs[p] = std::move(slab);
    });

    // Verify against the sequential transform (result is transposed:
    // node p's slab row c holds column p*rows+c).
    double err = 0.0;
    for (std::int32_t p = 0; p < nprocs; ++p) {
      for (std::int32_t c = 0; c < rows; ++c) {
        for (std::int32_t r = 0; r < n; ++r) {
          const Complex got =
              slabs[static_cast<std::size_t>(p)]
                   [static_cast<std::size_t>(c) * static_cast<std::size_t>(n) +
                    static_cast<std::size_t>(r)];
          const Complex want =
              reference[static_cast<std::size_t>(r) *
                            static_cast<std::size_t>(n) +
                        static_cast<std::size_t>(p * rows + c)];
          err = std::max(err, std::abs(got - want));
        }
      }
    }
    std::printf("  %-10s simulated %10.3f ms   max |error| vs serial: %.2e\n",
                sched::exchange_name(algorithm), util::to_ms(result.makespan),
                err);
  }
  return 0;
}
