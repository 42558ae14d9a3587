#pragma once

#include <cstdint>

/// \file host_speed.hpp
/// The host's momentary speed, measured alongside the timed work so that
/// host times can be scaled to a steady reference speed.
///
/// On a shared host the same deterministic pass runs 30-50 % slower while
/// neighbours load the machine, in phases of seconds to hours, with no CPU
/// steal time reported: their traffic through the shared caches slows every
/// memory access. No run length filters out a phase longer than the run.
/// The probe measures that slowdown directly: every kProbePeriodUs a
/// SIGALRM handler, on an alternate signal stack, walks a fixed random
/// pointer cycle through 64 KiB, more than the first-level data cache
/// holds (kHops dependent loads, after one untimed walk that brings the
/// cycle back into cache), and adds the walk's time to
/// process-wide totals. The time the handler takes is kept apart, so the
/// benchmark subtracts it from the work it times. A window's scale factor
/// is kReferenceNsPerHop over the window's mean ns per hop; a host time
/// times that factor is the time the work would have taken with the probe
/// at its reference speed.
///
/// The probe is benchmark code and never changes with the library, so a
/// change to the library moves the work's time and not the scale.

namespace cm5bench {

/// Dependent loads per timed walk: once around the cycle.
inline constexpr std::int64_t kHops = 16384;
/// Interval between walks.
inline constexpr std::int64_t kProbePeriodUs = 5000;
/// ns per hop of the probe on the reference host (Intel Xeon, 4 vCPUs)
/// in a calm phase, where its walks take 2.5-2.8 ns per hop (4-6.5 in a
/// slow one): the speed every scaled time is expressed at.
inline constexpr double kReferenceNsPerHop = 2.5;

/// Process-wide probe totals.
struct ProbeTotals {
  std::int64_t busy_ns = 0;   ///< host time the probe took, both walks
  std::int64_t timed_ns = 0;  ///< host time of the timed walks
  std::int64_t walks = 0;     ///< timed walks done
};

/// Installs the handler (on the calling thread's alternate stack) and
/// arms the interval timer. Call once, before any other probe function.
void start_host_probe();
/// Disarms the timer; walks already counted stay in the totals.
void stop_host_probe();
/// A consistent snapshot of the totals.
ProbeTotals probe_totals();
/// ProbeTotals::busy_ns alone: one load, cheap enough around every cell.
std::int64_t probe_busy_ns();
/// One walk now, on this thread, counted in the totals like a timed one,
/// so a window shorter than the period still has a sample.
void probe_now();
/// Scale factor of the window from `begin` to `end` (see above); 1 when
/// the window holds no walk.
double speed_scale(const ProbeTotals& begin, const ProbeTotals& end);

}  // namespace cm5bench
