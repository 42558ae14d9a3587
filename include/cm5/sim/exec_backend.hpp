#pragma once

#include <cstdint>

/// \file exec_backend.hpp
/// Names for the kernel's one execution mechanism. Node programs always
/// run on user-space fibers (src/simcore/fiber_backend.hpp). This header
/// is kept only because benchmark/src records the backend and lane count
/// in its config; it goes with the benchmark stubs (ROADMAP item 1).

namespace cm5::sim {

/// The execution mechanism that carries node programs.
enum class ExecutionModel : std::uint8_t {
  kFibers,  ///< user-space stackful fibers
};

/// "fibers" — a stable string, recorded in bench metrics.
inline const char* to_string(ExecutionModel) noexcept { return "fibers"; }

/// Always kFibers.
inline ExecutionModel default_execution_model() {
  return ExecutionModel::kFibers;
}

/// Always 1.
inline std::int32_t execution_lanes() { return 1; }

}  // namespace cm5::sim
