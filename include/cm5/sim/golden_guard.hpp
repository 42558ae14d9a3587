#pragma once

/// \file golden_guard.hpp
/// Safety interlock for golden-file regeneration.
///
/// Golden tests accept CM5_REGEN_GOLDEN=1 to rewrite their committed
/// reference files from the current run. That is only sound when the
/// run uses the canonical configuration: goldens regenerated under an
/// experimental knob (thread-oracle backend, the reference rate solver)
/// would silently bake that configuration's output in as "the truth" — and
/// because those configurations are result-invariant *by contract*, a
/// contract bug would be laundered into the goldens instead of caught.

namespace cm5::sim {

/// True when CM5_REGEN_GOLDEN requests regeneration (set, non-empty,
/// not "0"). Throws std::runtime_error — failing the test rather than
/// rewriting the golden — if regeneration is requested while any
/// non-default execution configuration is active: the thread oracle
/// (default_execution_model() is kThreads, i.e. CM5_EXEC_THREADS=1) or
/// the reference rate solver (CM5_SOLVER_ORACLE set, non-empty, not
/// "0").
bool golden_regen_requested();

}  // namespace cm5::sim
