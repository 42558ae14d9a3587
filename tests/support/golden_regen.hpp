#pragma once

#include <cstdlib>

/// \file golden_regen.hpp
/// Golden tests rewrite their committed reference files from the current
/// run instead of comparing against them when CM5_REGEN_GOLDEN requests
/// it.

namespace cm5::test {

/// True when CM5_REGEN_GOLDEN is set, non-empty and not "0".
inline bool golden_regen_requested() {
  const char* v = std::getenv("CM5_REGEN_GOLDEN");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace cm5::test
