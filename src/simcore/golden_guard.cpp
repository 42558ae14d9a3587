#include "cm5/sim/golden_guard.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "cm5/sim/exec_backend.hpp"
#include "cm5/sim/kernel.hpp"

namespace cm5::sim {
namespace {

bool env_set(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

bool golden_regen_requested() {
  if (!env_set("CM5_REGEN_GOLDEN")) return false;

  const char* reason = nullptr;
  if (default_execution_model() == ExecutionModel::kThreads) {
    reason = "CM5_EXEC_THREADS=1 selects the thread-oracle backend";
  } else if (solver_oracle_requested()) {
    reason = "CM5_SOLVER_ORACLE selects the reference rate solver";
  }
  if (reason != nullptr) {
    throw std::runtime_error(
        std::string("CM5_REGEN_GOLDEN refused: ") + reason +
        "; goldens must be regenerated under the default configuration "
        "(unset CM5_EXEC_THREADS/CM5_SOLVER_ORACLE)");
  }
  return true;
}

}  // namespace cm5::sim
