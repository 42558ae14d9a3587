#pragma once

/// \file golden_guard.hpp
/// Safety interlock for golden-file regeneration.
///
/// Golden tests accept CM5_REGEN_GOLDEN=1 to rewrite their committed
/// reference files from the current run. That is only sound when the
/// run uses the canonical configuration: goldens regenerated under the
/// thread-oracle backend would silently bake that configuration's output
/// in as "the truth" — and because it is result-invariant *by contract*, a
/// contract bug would be laundered into the goldens instead of caught.

namespace cm5::sim {

/// True when CM5_REGEN_GOLDEN requests regeneration (set, non-empty,
/// not "0"). Throws std::runtime_error — failing the test rather than
/// rewriting the golden — if regeneration is requested while the thread
/// oracle is active (default_execution_model() is kThreads, i.e.
/// CM5_EXEC_THREADS=1). Other values of that knob select nothing and do
/// not block regeneration.
bool golden_regen_requested();

}  // namespace cm5::sim
