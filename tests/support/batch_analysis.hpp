#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cm5/sim/kernel.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/sim/trace.hpp"

/// \file batch_analysis.hpp
/// The batch trace analyzer and validator: the reference that the
/// streaming sim::MetricsBuilder and sim::TraceValidator must match byte
/// for byte. Both walk the whole event vector (O(E) memory) with ordered
/// maps and look ahead in it where the stream cannot, so they share no
/// code with the consumers under test — not even the event
/// classification, which batch_analysis.cpp keeps its own copy of.

namespace cm5::sim {

/// Multi-pass analysis of a retained trace: the reference for
/// sim::analyze(). Same contract (cm5/sim/metrics.hpp).
RunMetrics analyze_batch(const std::vector<TraceEvent>& events,
                         std::int32_t nprocs,
                         const RunResult* result = nullptr);

/// Single-pass validation of a retained trace: the reference for
/// sim::validate_trace(), violation list (order, text, 50-line cap and
/// suppression tail) included.
std::vector<std::string> validate_trace_batch(
    const std::vector<TraceEvent>& events, std::int32_t nprocs,
    const RunResult* result = nullptr);

/// gtest-friendly: joins sim::validate_trace output ("" == valid).
std::string validation_report(const std::vector<TraceEvent>& events,
                              std::int32_t nprocs,
                              const RunResult* result = nullptr);

/// The differential check: expects `metrics` (full JSON dump) and
/// `violations` (exact strings) to equal the reference's analysis of
/// `events`. `what` labels a failure.
void expect_matches_batch(const RunMetrics& metrics,
                          const std::vector<std::string>& violations,
                          const std::vector<TraceEvent>& events,
                          std::int32_t nprocs, const RunResult* result,
                          const std::string& what = {});

/// Replays `events` through a MetricsBuilder and a TraceValidator and
/// runs expect_matches_batch on what they finalize.
void expect_streaming_matches_batch(const std::vector<TraceEvent>& events,
                                    std::int32_t nprocs,
                                    const RunResult* result = nullptr,
                                    const std::string& what = {});

}  // namespace cm5::sim
