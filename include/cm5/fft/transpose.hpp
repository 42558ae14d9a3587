#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/complete_exchange.hpp"

/// \file transpose.hpp
/// Distributed square-matrix transpose — the paper's other motivating
/// kernel for complete exchange (§3: "commonly encountered in
/// computations such as matrix transpose and two-dimensional FFT"), and
/// the middle phase of the 2-D FFT (fft2d.hpp).
///
/// The n x n matrix is distributed by rows: processor p owns rows
/// [p*R, (p+1)*R) with R = n / P. The transpose is one complete exchange
/// of R x R blocks (the block for processor d holds the intersection of
/// my rows with d's columns, stored pre-transposed) plus local
/// pack/unpack, whose memcpy cost is charged to the compute model.

namespace cm5::fft {

/// Transposes the distributed matrix. `local` holds this processor's
/// R = n/P rows, row-major, with `elem_bytes` bytes per element (1, 4,
/// 8 or 16; local.size() must be R * n * elem_bytes). On return the
/// same storage holds the R rows of the *transposed* matrix this
/// processor owns, i.e. the columns [p*R, (p+1)*R) of the original.
/// Every node must call this with the same algorithm. n must be
/// divisible by the machine size.
void distributed_transpose(machine::Node& node,
                           sched::ExchangeAlgorithm algorithm, std::int32_t n,
                           std::int64_t elem_bytes, std::span<std::byte> local);

/// Timing-only form (phantom payloads): charges the same pack/unpack
/// memcpy and performs the complete exchange of R x R blocks.
void distributed_transpose_timed(machine::Node& node,
                                 sched::ExchangeAlgorithm algorithm,
                                 std::int32_t n, std::int64_t elem_bytes);

}  // namespace cm5::fft
