#include "cm5/fft/fft2d.hpp"

#include <span>

#include "cm5/fft/transpose.hpp"
#include "cm5/util/check.hpp"

namespace cm5::fft {
namespace {

/// Rows per processor (R = n / nprocs) of an n x n array.
std::int32_t rows_per_node(const Node& node, std::int32_t n) {
  const std::int32_t p = node.nprocs();
  CM5_CHECK_MSG(n >= p && n % p == 0,
                "array side must be a multiple of the processor count");
  CM5_CHECK_MSG((n & (n - 1)) == 0, "array side must be a power of two");
  return n / p;
}

}  // namespace

void fft2d_timed(Node& node, ExchangeAlgorithm algorithm, std::int32_t n) {
  const std::int32_t rows = rows_per_node(node, n);
  // Phase 1: R row FFTs of length n.
  node.compute_flops(static_cast<double>(rows) * fft_flops(n));
  // Transpose via complete exchange of R x R blocks, charging the pack
  // and unpack copies.
  distributed_transpose_timed(node, algorithm, n, sizeof(Complex));
  // Phase 2: R column FFTs of length n.
  node.compute_flops(static_cast<double>(rows) * fft_flops(n));
}

void fft2d_distributed(Node& node, ExchangeAlgorithm algorithm,
                       std::int32_t n, std::vector<Complex>& local_rows,
                       bool inverse) {
  const std::int32_t rows = rows_per_node(node, n);
  const auto r32 = static_cast<std::size_t>(rows);
  const auto n32 = static_cast<std::size_t>(n);
  CM5_CHECK_MSG(local_rows.size() == r32 * n32,
                "local slab has the wrong size");

  // Both phases run length-n transforms: one plan serves every row and
  // every column.
  const FftPlan plan(n32, inverse);

  // Phase 1: FFT my rows.
  for (std::size_t r = 0; r < r32; ++r) {
    plan.run(std::span(local_rows).subspan(r * n32, n32));
  }
  node.compute_flops(static_cast<double>(rows) * fft_flops(n));

  // Transpose in place: afterwards the slab holds my R columns, each
  // stored as a row.
  distributed_transpose(node, algorithm, n, sizeof(Complex),
                        std::as_writable_bytes(std::span(local_rows)));

  // Phase 2: FFT my columns (now stored as rows).
  for (std::size_t c = 0; c < r32; ++c) {
    plan.run(std::span(local_rows).subspan(c * n32, n32));
  }
  node.compute_flops(static_cast<double>(rows) * fft_flops(n));
}

}  // namespace cm5::fft
