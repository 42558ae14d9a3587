#include "cm5/fft/fft1d.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "cm5/fft/fft2d.hpp"
#include "cm5/machine/machine.hpp"
#include "cm5/util/check.hpp"
#include "cm5/util/rng.hpp"
#include "dft_reference.hpp"

namespace cm5::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Complex> data(n);
  for (auto& x : data) {
    x = Complex(rng.next_double() * 2.0 - 1.0, rng.next_double() * 2.0 - 1.0);
  }
  return data;
}

double max_error(std::span<const Complex> a, std::span<const Complex> b) {
  double err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    err = std::max(err, std::abs(a[i] - b[i]));
  }
  return err;
}

class FftLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftLengthTest, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  std::vector<Complex> data = random_signal(n, 42 + n);
  const std::vector<Complex> expected = dft_reference(data);
  fft_inplace(data);
  EXPECT_LT(max_error(data, expected), 1e-9 * static_cast<double>(n));
}

TEST_P(FftLengthTest, InverseRoundTrips) {
  const std::size_t n = GetParam();
  const std::vector<Complex> original = random_signal(n, 7 + n);
  std::vector<Complex> data = original;
  fft_inplace(data);
  fft_inplace(data, /*inverse=*/true);
  EXPECT_LT(max_error(data, original), 1e-10 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftLengthTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));

TEST(Fft1dTest, ImpulseTransformsToConstant) {
  std::vector<Complex> data(16, Complex(0.0, 0.0));
  data[0] = Complex(1.0, 0.0);
  fft_inplace(data);
  for (const Complex& x : data) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1dTest, SinglePureToneHasOneBin) {
  const std::size_t n = 64;
  const std::size_t k = 5;
  std::vector<Complex> data(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(k * t) /
                         static_cast<double>(n);
    data[t] = Complex(std::cos(angle), std::sin(angle));
  }
  fft_inplace(data);
  for (std::size_t bin = 0; bin < n; ++bin) {
    if (bin == k) {
      EXPECT_NEAR(std::abs(data[bin]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(data[bin]), 0.0, 1e-9);
    }
  }
}

TEST(Fft1dTest, LinearityHolds) {
  const std::size_t n = 128;
  const auto a = random_signal(n, 1);
  const auto b = random_signal(n, 2);
  std::vector<Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  auto fa = a, fb = b;
  fft_inplace(fa);
  fft_inplace(fb);
  fft_inplace(sum);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(sum[i] - (2.0 * fa[i] + 3.0 * fb[i])), 1e-9);
  }
}

TEST(Fft1dTest, ParsevalEnergyConservation) {
  const std::size_t n = 256;
  auto data = random_signal(n, 9);
  double time_energy = 0.0;
  for (const Complex& x : data) time_energy += std::norm(x);
  fft_inplace(data);
  double freq_energy = 0.0;
  for (const Complex& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * time_energy * static_cast<double>(n));
}

TEST(Fft1dTest, NonPowerOfTwoRejected) {
  std::vector<Complex> data(12);
  EXPECT_THROW(fft_inplace(data), util::CheckError);
  std::vector<Complex> empty;
  EXPECT_THROW(fft_inplace(empty), util::CheckError);
}

TEST(Fft1dTest, FlopCountFormula) {
  EXPECT_DOUBLE_EQ(fft_flops(1), 0.0);
  EXPECT_DOUBLE_EQ(fft_flops(2), 10.0);
  EXPECT_DOUBLE_EQ(fft_flops(1024), 5.0 * 1024 * 10);
}

// --- bit-exactness of the planned FFT -------------------------------------

/// Test-only reference: the per-block recurrence FFT that fft_inplace ran
/// before FftPlan, kept verbatim. It recomputes each stage's twiddles
/// (w = 1; w *= wlen) for every block and multiplies with std::complex.
void bit_reverse_permute_reference(std::span<Complex> data) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    while (j & bit) {
      j ^= bit;
      bit >>= 1;
    }
    j |= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

void fft_reference(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  if (n == 1) return;

  bit_reverse_permute_reference(data);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t start = 0; start < n; start += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex even = data[start + k];
        const Complex odd = data[start + k + len / 2] * w;
        data[start + k] = even + odd;
        data[start + k + len / 2] = even - odd;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (Complex& x : data) x *= scale;
  }
}

bool same_bits(std::span<const Complex> a, std::span<const Complex> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

TEST(FftPlanTest, BitIdenticalToPerBlockRecurrence) {
  for (std::size_t n = 1; n <= 8192; n <<= 1) {
    for (const bool inverse : {false, true}) {
      const std::vector<Complex> input = random_signal(n, 1000 + n);
      std::vector<Complex> expected = input;
      fft_reference(expected, inverse);

      std::vector<Complex> planned = input;
      const FftPlan plan(n, inverse);
      plan.run(planned);
      EXPECT_TRUE(same_bits(planned, expected))
          << "FftPlan n=" << n << " inverse=" << inverse;

      // A plan is reusable: a second run over fresh input repeats it.
      planned = input;
      plan.run(planned);
      EXPECT_TRUE(same_bits(planned, expected))
          << "FftPlan rerun n=" << n << " inverse=" << inverse;

      std::vector<Complex> direct = input;
      fft_inplace(direct, inverse);
      EXPECT_TRUE(same_bits(direct, expected))
          << "fft_inplace n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(FftPlanTest, RejectsBadLengths) {
  EXPECT_THROW(FftPlan(0), util::CheckError);
  EXPECT_THROW(FftPlan(12), util::CheckError);
  const FftPlan plan(8);
  std::vector<Complex> data(16);
  EXPECT_THROW(plan.run(data), util::CheckError);
}

std::uint64_t fnv1a_bytes(std::span<const Complex> values, std::uint64_t h) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(FftPlanTest, DistributedOutputHashPinned) {
  // FNV-1a over every node's result slab, in node order, of a 256 x 256
  // transform on 32 nodes; the makespans pin the simulated timing. Both
  // were generated from the per-block recurrence FFT and the all_to_all
  // that snapshotted its outgoing blocks, immediately before FftPlan and
  // move-only payloads replaced them. The exchange moves bytes unchanged,
  // so every algorithm yields the same hash.
  constexpr std::int32_t kNodes = 32;
  constexpr std::int32_t kN = 256;
  constexpr std::uint64_t kExpectedHash = 0x83d8c881360fa9c1ULL;
  struct Expected {
    sched::ExchangeAlgorithm algorithm;
    util::SimTime makespan;
  };
  const Expected cases[] = {
      {sched::ExchangeAlgorithm::Linear, 204633186},
      {sched::ExchangeAlgorithm::Pairwise, 124544341},
      {sched::ExchangeAlgorithm::Recursive, 146485786},
      {sched::ExchangeAlgorithm::Balanced, 122715135},
  };

  const std::vector<Complex> full =
      random_signal(static_cast<std::size_t>(kN) * kN, kN);
  const std::size_t slab = full.size() / kNodes;
  for (const Expected& c : cases) {
    std::vector<std::vector<Complex>> slabs(kNodes);
    for (std::size_t p = 0; p < kNodes; ++p) {
      const auto first = full.begin() + static_cast<std::ptrdiff_t>(p * slab);
      slabs[p].assign(first, first + static_cast<std::ptrdiff_t>(slab));
    }
    machine::Cm5Machine machine(machine::MachineParams::cm5_defaults(kNodes));
    const auto result = machine.run([&](machine::Node& node) {
      fft2d_distributed(node, c.algorithm, kN,
                        slabs[static_cast<std::size_t>(node.self())]);
    });
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::vector<Complex>& s : slabs) h = fnv1a_bytes(s, h);
    EXPECT_EQ(h, kExpectedHash) << sched::exchange_name(c.algorithm);
    EXPECT_EQ(result.makespan, c.makespan) << sched::exchange_name(c.algorithm);
  }
}

TEST(Fft2dSerialTest, MatchesRowColumnReference) {
  const std::int32_t rows = 8, cols = 16;
  std::vector<Complex> data =
      random_signal(static_cast<std::size_t>(rows * cols), 3);
  // Reference: DFT rows, then DFT columns.
  std::vector<Complex> expected = data;
  for (std::int32_t r = 0; r < rows; ++r) {
    const auto row = dft_reference(
        std::span(expected).subspan(static_cast<std::size_t>(r * cols),
                                    static_cast<std::size_t>(cols)));
    std::copy(row.begin(), row.end(),
              expected.begin() + static_cast<std::ptrdiff_t>(r * cols));
  }
  for (std::int32_t c = 0; c < cols; ++c) {
    std::vector<Complex> col(static_cast<std::size_t>(rows));
    for (std::int32_t r = 0; r < rows; ++r) {
      col[static_cast<std::size_t>(r)] =
          expected[static_cast<std::size_t>(r * cols + c)];
    }
    col = dft_reference(col);
    for (std::int32_t r = 0; r < rows; ++r) {
      expected[static_cast<std::size_t>(r * cols + c)] =
          col[static_cast<std::size_t>(r)];
    }
  }
  fft2d_inplace(data, rows, cols);
  EXPECT_LT(max_error(data, expected), 1e-9);
}

TEST(Fft2dSerialTest, InverseRoundTrips) {
  const std::int32_t n = 32;
  const auto original = random_signal(static_cast<std::size_t>(n * n), 5);
  auto data = original;
  fft2d_inplace(data, n, n);
  fft2d_inplace(data, n, n, /*inverse=*/true);
  EXPECT_LT(max_error(data, original), 1e-9);
}

}  // namespace
}  // namespace cm5::fft
