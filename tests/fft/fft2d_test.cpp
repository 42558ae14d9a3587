#include "cm5/fft/fft2d.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cm5/util/check.hpp"
#include "cm5/util/rng.hpp"
#include "cm5/util/time.hpp"

namespace cm5::fft {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;
using sched::ExchangeAlgorithm;

std::vector<Complex> random_matrix(std::int32_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Complex> data(static_cast<std::size_t>(n) *
                            static_cast<std::size_t>(n));
  for (auto& x : data) {
    x = Complex(rng.next_double() * 2.0 - 1.0, rng.next_double() * 2.0 - 1.0);
  }
  return data;
}

struct DistCase {
  ExchangeAlgorithm algorithm;
  std::int32_t nprocs;
  std::int32_t n;
};

class DistributedFftTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributedFftTest, MatchesSerial2dFft) {
  const DistCase& c = GetParam();
  const std::vector<Complex> full = random_matrix(c.n, 11);

  // Serial reference.
  std::vector<Complex> expected = full;
  fft2d_inplace(expected, c.n, c.n);

  // Distributed run: collect every node's result slab.
  const std::int32_t rows = c.n / c.nprocs;
  std::vector<std::vector<Complex>> result(
      static_cast<std::size_t>(c.nprocs));
  Cm5Machine machine(MachineParams::cm5_defaults(c.nprocs));
  machine.run([&](machine::Node& node) {
    const auto p = static_cast<std::size_t>(node.self());
    std::vector<Complex> slab(
        full.begin() + static_cast<std::ptrdiff_t>(p * static_cast<std::size_t>(rows) *
                                                   static_cast<std::size_t>(c.n)),
        full.begin() + static_cast<std::ptrdiff_t>((p + 1) * static_cast<std::size_t>(rows) *
                                                   static_cast<std::size_t>(c.n)));
    fft2d_distributed(node, c.algorithm, c.n, slab);
    result[p] = std::move(slab);
  });

  // Node p's slab holds columns [p*rows, (p+1)*rows): slab[c_local*n + r]
  // is element (r, p*rows + c_local) of the transformed array.
  double err = 0.0;
  for (std::int32_t p = 0; p < c.nprocs; ++p) {
    for (std::int32_t cl = 0; cl < rows; ++cl) {
      for (std::int32_t r = 0; r < c.n; ++r) {
        const Complex got =
            result[static_cast<std::size_t>(p)]
                  [static_cast<std::size_t>(cl) * static_cast<std::size_t>(c.n) +
                   static_cast<std::size_t>(r)];
        const Complex want =
            expected[static_cast<std::size_t>(r) * static_cast<std::size_t>(c.n) +
                     static_cast<std::size_t>(p * rows + cl)];
        err = std::max(err, std::abs(got - want));
      }
    }
  }
  EXPECT_LT(err, 1e-8);
}

std::vector<DistCase> dist_cases() {
  std::vector<DistCase> cases;
  for (ExchangeAlgorithm alg : sched::kAllExchangeAlgorithms) {
    cases.push_back(DistCase{alg, 4, 16});
    cases.push_back(DistCase{alg, 8, 32});
    cases.push_back(DistCase{alg, 16, 64});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistributedFftTest,
                         ::testing::ValuesIn(dist_cases()));

TEST(DistributedFftTest, InverseRoundTripsThroughTwoTransforms) {
  // Forward then inverse (both transposing) recovers the original data
  // in the original row layout: transpose o transpose = identity.
  const std::int32_t n = 32, nprocs = 8;
  const std::vector<Complex> full = random_matrix(n, 23);
  const std::int32_t rows = n / nprocs;
  Cm5Machine machine(MachineParams::cm5_defaults(nprocs));
  machine.run([&](machine::Node& node) {
    const auto p = static_cast<std::size_t>(node.self());
    std::vector<Complex> slab(
        full.begin() + static_cast<std::ptrdiff_t>(p * static_cast<std::size_t>(rows) * n),
        full.begin() + static_cast<std::ptrdiff_t>((p + 1) * static_cast<std::size_t>(rows) * n));
    const std::vector<Complex> original = slab;
    fft2d_distributed(node, ExchangeAlgorithm::Pairwise, n, slab);
    fft2d_distributed(node, ExchangeAlgorithm::Pairwise, n, slab,
                      /*inverse=*/true);
    double err = 0.0;
    for (std::size_t i = 0; i < slab.size(); ++i) {
      err = std::max(err, std::abs(slab[i] - original[i]));
    }
    EXPECT_LT(err, 1e-9);
  });
}

TEST(FftTimedTest, RunsAndChargesComputeAndCommunication) {
  Cm5Machine machine(MachineParams::cm5_defaults(8));
  const auto r = machine.run([](machine::Node& node) {
    fft2d_timed(node, ExchangeAlgorithm::Pairwise, 64);
  });
  EXPECT_GT(r.makespan, 0);
  EXPECT_EQ(r.network.flows_completed, 8 * 7);
  // Both FFT phases show up as compute time on every node.
  for (const auto& counters : r.node_counters) {
    EXPECT_GT(counters.compute_time, 0);
  }
}

TEST(FftTimedTest, LinearExchangeIsSlowerThanPairwise) {
  // The Table 5 headline: the exchange algorithm matters.
  Cm5Machine machine(MachineParams::cm5_defaults(16));
  const auto lex = machine.run([](machine::Node& node) {
    fft2d_timed(node, ExchangeAlgorithm::Linear, 256);
  });
  const auto pex = machine.run([](machine::Node& node) {
    fft2d_timed(node, ExchangeAlgorithm::Pairwise, 256);
  });
  EXPECT_GT(lex.makespan, pex.makespan);
}

TEST(FftTimedTest, TimedFormMatchesDataFormTiming) {
  // The phantom-payload FFT must charge exactly the simulated time of the
  // data FFT: same compute, same copies, same exchange. The one exception
  // is REX, whose data form puts an 8-byte (origin, destination) header
  // on the wire with every combined block, so it runs slightly longer.
  const std::int32_t nprocs = 16, n = 128;
  const std::int32_t rows = n / nprocs;
  const std::vector<Complex> full = random_matrix(n, 31);
  Cm5Machine machine(MachineParams::cm5_defaults(nprocs));
  for (const ExchangeAlgorithm alg :
       {ExchangeAlgorithm::Linear, ExchangeAlgorithm::Pairwise,
        ExchangeAlgorithm::Recursive, ExchangeAlgorithm::Balanced}) {
    const auto timed = machine.run(
        [&](machine::Node& node) { fft2d_timed(node, alg, n); });
    const auto data = machine.run([&](machine::Node& node) {
      const auto first = static_cast<std::ptrdiff_t>(
          static_cast<std::size_t>(node.self()) *
          static_cast<std::size_t>(rows) * static_cast<std::size_t>(n));
      std::vector<Complex> slab(full.begin() + first,
                                full.begin() + first + rows * n);
      fft2d_distributed(node, alg, n, slab);
    });
    if (alg == ExchangeAlgorithm::Recursive) {
      EXPECT_GT(data.makespan, timed.makespan);
      EXPECT_LT(data.makespan - timed.makespan, timed.makespan / 100);
    } else {
      EXPECT_EQ(timed.makespan, data.makespan) << sched::exchange_name(alg);
    }
  }
}

TEST(FftTimedTest, RejectsBadGeometry) {
  Cm5Machine machine(MachineParams::cm5_defaults(8));
  EXPECT_THROW(machine.run([](machine::Node& node) {
                 fft2d_timed(node, ExchangeAlgorithm::Pairwise, 12);
               }),
               util::CheckError);
}

}  // namespace
}  // namespace cm5::fft
