#include "cm5/fft/transpose.hpp"

#include <cstring>
#include <vector>

#include "cm5/util/check.hpp"

namespace cm5::fft {
namespace {

struct Geometry {
  std::int32_t nprocs;
  std::size_t n;
  std::size_t rows;         // per processor
  std::int64_t block_bytes; // rows * rows elements
};

Geometry make_geometry(const machine::Node& node, std::int32_t n,
                       std::int64_t elem_bytes) {
  const std::int32_t p = node.nprocs();
  CM5_CHECK_MSG(n >= p && n % p == 0,
                "matrix side must be a multiple of the processor count");
  CM5_CHECK(elem_bytes >= 1);
  const std::int32_t rows = n / p;
  return Geometry{p, static_cast<std::size_t>(n),
                  static_cast<std::size_t>(rows),
                  static_cast<std::int64_t>(rows) * rows * elem_bytes};
}

/// The transpose for elements of `Bytes` bytes: a compile-time size, so
/// each element copy of the pack is a fixed-size move, not a memcpy call.
template <std::size_t Bytes>
void transpose(machine::Node& node, sched::ExchangeAlgorithm algorithm,
               const Geometry& g, std::span<std::byte> local) {
  const std::size_t rows = g.rows;
  const std::size_t n = g.n;

  // Pack: block for processor d holds my rows' elements in d's columns,
  // already transposed (column within block varies fastest on the far
  // side), so the unpack below is a straight segment copy.
  std::vector<std::vector<std::byte>> blocks(
      static_cast<std::size_t>(g.nprocs));
  for (std::size_t d = 0; d < blocks.size(); ++d) {
    blocks[d].resize(static_cast<std::size_t>(g.block_bytes));
    // Plain pointers: a write through std::byte* may alias the vector's
    // data pointer, which the compiler would otherwise reload per element.
    std::byte* out = blocks[d].data();
    const std::byte* in = local.data() + d * rows * Bytes;
    for (std::size_t c = 0; c < rows; ++c) {    // column within d's range
      for (std::size_t r = 0; r < rows; ++r) {  // my local row
        std::memcpy(out + (c * rows + r) * Bytes, in + (r * n + c) * Bytes,
                    Bytes);
      }
    }
  }
  node.compute_copy_bytes(g.block_bytes * (g.nprocs - 1));

  sched::all_to_all(node, algorithm, blocks);

  // Unpack into the slab's own storage (the blocks hold everything it
  // held): block from source s carries — for each of my new rows c —
  // the contiguous segment of columns [s*R, (s+1)*R).
  for (std::size_t s = 0; s < blocks.size(); ++s) {
    const auto& block = blocks[s];
    CM5_CHECK(block.size() == static_cast<std::size_t>(g.block_bytes));
    for (std::size_t c = 0; c < rows; ++c) {
      std::memcpy(local.data() + (c * n + s * rows) * Bytes,
                  block.data() + c * rows * Bytes, rows * Bytes);
    }
  }
  node.compute_copy_bytes(g.block_bytes * (g.nprocs - 1));
}

}  // namespace

void distributed_transpose(machine::Node& node,
                           sched::ExchangeAlgorithm algorithm, std::int32_t n,
                           std::int64_t elem_bytes,
                           std::span<std::byte> local) {
  const Geometry g = make_geometry(node, n, elem_bytes);
  CM5_CHECK_MSG(local.size() == g.rows * g.n *
                                    static_cast<std::size_t>(elem_bytes),
                "local slab has the wrong size");
  switch (elem_bytes) {
    case 1: return transpose<1>(node, algorithm, g, local);
    case 4: return transpose<4>(node, algorithm, g, local);
    case 8: return transpose<8>(node, algorithm, g, local);
    case 16: return transpose<16>(node, algorithm, g, local);
    default:
      CM5_CHECK_MSG(false, "element size must be 1, 4, 8 or 16 bytes");
  }
}

void distributed_transpose_timed(machine::Node& node,
                                 sched::ExchangeAlgorithm algorithm,
                                 std::int32_t n, std::int64_t elem_bytes) {
  const Geometry g = make_geometry(node, n, elem_bytes);
  node.compute_copy_bytes(g.block_bytes * (g.nprocs - 1));
  sched::complete_exchange(node, algorithm, g.block_bytes);
  node.compute_copy_bytes(g.block_bytes * (g.nprocs - 1));
}

}  // namespace cm5::fft
