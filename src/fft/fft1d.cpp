#include "cm5/fft/fft1d.hpp"

#include <bit>
#include <cmath>
#include <numbers>

#include "cm5/util/check.hpp"

namespace cm5::fft {

FftPlan::FftPlan(std::size_t n, bool inverse) : n_(n), inverse_(inverse) {
  CM5_CHECK_MSG(std::has_single_bit(n), "FFT length must be a power of two");

  // Bit-reversal permutation: the pairs the classic j-counter swaps.
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    while (j & bit) {
      j ^= bit;
      bit >>= 1;
    }
    j |= bit;
    if (i < j) swaps_.emplace_back(i, j);
  }

  // Twiddles come from the recurrence w *= wlen, not from cos/sin per
  // entry: the payload bits depend on these exact values.
  twiddles_.reserve(n > 1 ? n - 1 : 0);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      twiddles_.push_back(w);
      w *= wlen;
    }
  }
}

void FftPlan::run(std::span<Complex> data) const {
  CM5_CHECK_MSG(data.size() == n_, "FFT plan run on data of another length");
  for (const auto& [i, j] : swaps_) std::swap(data[i], data[j]);

  // [complex.numbers]/4: a Complex is an array of two doubles, real first.
  double* const x = reinterpret_cast<double*>(data.data());
  const double* const table = reinterpret_cast<const double*>(twiddles_.data());
  for (std::size_t half = 1; half < n_; half <<= 1) {
    const double* const w = table + 2 * (half - 1);
    for (std::size_t start = 0; start < n_; start += 2 * half) {
      double* const lo = x + 2 * start;
      double* const hi = lo + 2 * half;
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = w[2 * k];
        const double wi = w[2 * k + 1];
        const double ar = hi[2 * k];
        const double ai = hi[2 * k + 1];
        const double odd_re = ar * wr - ai * wi;
        const double odd_im = ar * wi + ai * wr;
        const double even_re = lo[2 * k];
        const double even_im = lo[2 * k + 1];
        lo[2 * k] = even_re + odd_re;
        lo[2 * k + 1] = even_im + odd_im;
        hi[2 * k] = even_re - odd_re;
        hi[2 * k + 1] = even_im - odd_im;
      }
    }
  }
  if (inverse_ && n_ > 1) {
    const double scale = 1.0 / static_cast<double>(n_);
    for (Complex& v : data) v *= scale;
  }
}

void fft_inplace(std::span<Complex> data, bool inverse) {
  FftPlan(data.size(), inverse).run(data);
}

double fft_flops(std::int64_t n) {
  if (n <= 1) return 0.0;
  const double dn = static_cast<double>(n);
  return 5.0 * dn * std::log2(dn);
}

void fft2d_inplace(std::span<Complex> data, std::int32_t rows,
                   std::int32_t cols, bool inverse) {
  CM5_CHECK(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols) ==
            data.size());
  const FftPlan row_plan(static_cast<std::size_t>(cols), inverse);
  for (std::int32_t r = 0; r < rows; ++r) {
    row_plan.run(data.subspan(
        static_cast<std::size_t>(r) * static_cast<std::size_t>(cols),
        static_cast<std::size_t>(cols)));
  }
  const FftPlan column_plan(static_cast<std::size_t>(rows), inverse);
  std::vector<Complex> column(static_cast<std::size_t>(rows));
  for (std::int32_t c = 0; c < cols; ++c) {
    for (std::int32_t r = 0; r < rows; ++r) {
      column[static_cast<std::size_t>(r)] =
          data[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
               static_cast<std::size_t>(c)];
    }
    column_plan.run(column);
    for (std::int32_t r = 0; r < rows; ++r) {
      data[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
           static_cast<std::size_t>(c)] = column[static_cast<std::size_t>(r)];
    }
  }
}

}  // namespace cm5::fft
