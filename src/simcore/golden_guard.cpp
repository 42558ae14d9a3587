#include "cm5/sim/golden_guard.hpp"

#include <cstdlib>
#include <stdexcept>

#include "cm5/sim/exec_backend.hpp"

namespace cm5::sim {
namespace {

bool env_set(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

bool golden_regen_requested() {
  if (!env_set("CM5_REGEN_GOLDEN")) return false;

  if (default_execution_model() == ExecutionModel::kThreads) {
    throw std::runtime_error(
        "CM5_REGEN_GOLDEN refused: CM5_EXEC_THREADS=1 selects the "
        "thread-oracle backend; goldens must be regenerated under the "
        "default configuration (unset CM5_EXEC_THREADS)");
  }
  return true;
}

}  // namespace cm5::sim
