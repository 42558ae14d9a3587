#include "cm5/fft/fft2d.hpp"

#include <cstring>

#include "cm5/util/check.hpp"

namespace cm5::fft {
namespace {

struct Layout {
  std::int32_t n;           // array is n x n
  std::int32_t nprocs;
  std::int32_t rows;        // rows per processor (n / nprocs)
  std::int64_t block_bytes; // rows x rows complex values
};

Layout make_layout(const Node& node, std::int32_t n) {
  const std::int32_t p = node.nprocs();
  CM5_CHECK_MSG(n >= p && n % p == 0,
                "array side must be a multiple of the processor count");
  CM5_CHECK_MSG((n & (n - 1)) == 0, "array side must be a power of two");
  const std::int32_t rows = n / p;
  return Layout{n, p, rows,
                static_cast<std::int64_t>(rows) * rows *
                    static_cast<std::int64_t>(sizeof(Complex))};
}

}  // namespace

void fft2d_timed(Node& node, ExchangeAlgorithm algorithm, std::int32_t n) {
  const Layout layout = make_layout(node, n);
  // Phase 1: R row FFTs of length n.
  node.compute_flops(static_cast<double>(layout.rows) * fft_flops(n));
  // Gather each destination's R x R block into its send buffer.
  node.compute_copy_bytes(layout.block_bytes * (layout.nprocs - 1));
  // Transpose via complete exchange of R x R blocks.
  sched::complete_exchange(node, algorithm, layout.block_bytes);
  // Scatter received blocks into column-major order.
  node.compute_copy_bytes(layout.block_bytes * (layout.nprocs - 1));
  // Phase 2: R column FFTs of length n.
  node.compute_flops(static_cast<double>(layout.rows) * fft_flops(n));
}

void fft2d_distributed(Node& node, ExchangeAlgorithm algorithm,
                       std::int32_t n, std::vector<Complex>& local_rows,
                       bool inverse) {
  const Layout layout = make_layout(node, n);
  CM5_CHECK_MSG(local_rows.size() == static_cast<std::size_t>(layout.rows) *
                                         static_cast<std::size_t>(n),
                "local slab has the wrong size");
  const auto r32 = static_cast<std::size_t>(layout.rows);
  const auto n32 = static_cast<std::size_t>(n);

  // Both phases run length-n transforms: one plan serves every row and
  // every column.
  const FftPlan plan(n32, inverse);

  // Phase 1: FFT my rows.
  for (std::size_t r = 0; r < r32; ++r) {
    plan.run(std::span(local_rows).subspan(r * n32, n32));
  }
  node.compute_flops(static_cast<double>(layout.rows) * fft_flops(n));

  // Pack the R x R block for each destination. Block for processor d,
  // local row r, column c (0 <= c < R): global column d*R + c. Inside
  // the block we already transpose (store column-major) so that after
  // the exchange the received data lies in row-major *column* order.
  auto put = [](std::vector<std::byte>& buf, std::size_t index,
                const Complex& value) {
    std::memcpy(buf.data() + index * sizeof(Complex), &value, sizeof(Complex));
  };
  auto get = [](const std::vector<std::byte>& buf, std::size_t index) {
    Complex value;
    std::memcpy(&value, buf.data() + index * sizeof(Complex), sizeof(Complex));
    return value;
  };

  std::vector<std::vector<std::byte>> blocks(
      static_cast<std::size_t>(layout.nprocs));
  for (std::int32_t d = 0; d < layout.nprocs; ++d) {
    auto& block = blocks[static_cast<std::size_t>(d)];
    block.resize(static_cast<std::size_t>(layout.block_bytes));
    for (std::size_t c = 0; c < r32; ++c) {        // column within block
      for (std::size_t r = 0; r < r32; ++r) {      // my local row
        put(block, c * r32 + r,
            local_rows[r * n32 + static_cast<std::size_t>(d) * r32 + c]);
      }
    }
  }
  node.compute_copy_bytes(layout.block_bytes * (layout.nprocs - 1));

  sched::all_to_all(node, algorithm, blocks);

  // Unpack: after the exchange, block from source s holds — for each of
  // my R columns c — the s-th span of that column (rows s*R..s*R+R).
  // Assemble my columns as rows of a R x n matrix, in the slab's own
  // storage: the packed blocks already hold everything it held.
  std::vector<Complex>& columns = local_rows;
  for (std::int32_t s = 0; s < layout.nprocs; ++s) {
    const auto& block = blocks[static_cast<std::size_t>(s)];
    CM5_CHECK(block.size() == static_cast<std::size_t>(layout.block_bytes));
    for (std::size_t c = 0; c < r32; ++c) {
      for (std::size_t r = 0; r < r32; ++r) {
        columns[c * n32 + static_cast<std::size_t>(s) * r32 + r] =
            get(block, c * r32 + r);
      }
    }
  }
  node.compute_copy_bytes(layout.block_bytes * (layout.nprocs - 1));

  // Phase 2: FFT my columns (now stored as rows).
  for (std::size_t c = 0; c < r32; ++c) {
    plan.run(std::span(columns).subspan(c * n32, n32));
  }
  node.compute_flops(static_cast<double>(layout.rows) * fft_flops(n));
}

}  // namespace cm5::fft
