#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

/// \file fft1d.hpp
/// Sequential complex FFT building blocks for the distributed 2-D FFT
/// application of paper §3.5 (Table 5).

namespace cm5::fft {

using Complex = std::complex<double>;

/// A precomputed in-place radix-2 Cooley-Tukey FFT of one length and
/// direction. Build it once and run it over every row of a batch; it is
/// immutable after construction, so concurrent run() calls are safe.
///
/// Construction records the bit-reversal swap pairs and one twiddle
/// table per stage. Each table is built with the recurrence the textbook
/// per-block loop runs — w = 1, then w *= wlen with std::complex's
/// operator*= — so it holds the very values that loop recomputes for
/// every block of the stage.
///
/// run() applies each butterfly's product as the explicit
/// (ar*wr - ai*wi, ar*wi + ai*wr). That is the formula GCC's complex
/// multiply evaluates before its NaN fallback, and the build selects no
/// -march or -ffast-math, so no multiply-add is fused. The result is
/// therefore bit-identical to the per-block loop for every finite input
/// (tests/fft/fft1d_test.cpp keeps that loop as a reference and compares
/// with memcmp). Inputs holding NaN or infinity may differ.
class FftPlan {
 public:
  /// `n` must be a power of two. `inverse` applies the conjugate
  /// transform *and* the 1/n scaling.
  explicit FftPlan(std::size_t n, bool inverse = false);

  /// Transforms `data` in place; data.size() must equal the plan's `n`.
  void run(std::span<Complex> data) const;

 private:
  std::size_t n_;
  bool inverse_;
  std::vector<std::pair<std::size_t, std::size_t>> swaps_;
  /// Stage of butterfly span `len` holds its len/2 twiddles at offset
  /// len/2 - 1; n - 1 entries in all.
  std::vector<Complex> twiddles_;
};

/// In-place iterative radix-2 Cooley-Tukey FFT. data.size() must be a
/// power of two. `inverse` applies the conjugate transform *and* the 1/N
/// scaling, so fft(fft(x), inverse) == x. Same as
/// FftPlan(data.size(), inverse).run(data); build the plan directly to
/// transform many rows of one length.
void fft_inplace(std::span<Complex> data, bool inverse = false);

/// Floating-point operation count of one radix-2 FFT of length `n` —
/// the standard 5 n lg n figure, used to charge simulated compute time.
double fft_flops(std::int64_t n);

/// Sequential 2-D FFT of a row-major `rows` x `cols` matrix (both powers
/// of two): length-`cols` FFTs over rows, then length-`rows` FFTs over
/// columns. The reference the distributed implementation is tested
/// against.
void fft2d_inplace(std::span<Complex> data, std::int32_t rows,
                   std::int32_t cols, bool inverse = false);

}  // namespace cm5::fft
