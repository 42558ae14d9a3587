#pragma once

#include <bit>
#include <cstdint>

#include "cm5/util/check.hpp"

/// \file exact_log2.hpp
/// The power-of-two machine-size check shared by the tree and doubling
/// algorithms of src/sched (private to src/sched).

namespace cm5::sched {

/// lg n; fails with `message` unless n is a power of two.
inline std::int32_t exact_log2(std::int32_t n, const char* message) {
  CM5_CHECK_MSG(std::has_single_bit(static_cast<std::uint32_t>(n)), message);
  return std::countr_zero(static_cast<std::uint32_t>(n));
}

}  // namespace cm5::sched
