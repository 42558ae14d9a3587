#pragma once

#include <cstddef>
#include <limits>

/// \file running_stats.hpp
/// Streaming summary statistics (Welford's algorithm), used by the mesh
/// quality metrics.

namespace cm5::util {

/// Accumulates count/min/max/mean/variance of a stream of doubles in O(1)
/// space, numerically stable for long streams.
class RunningStats {
 public:
  /// Adds one observation.
  void add(double x) noexcept;

  /// Merges another accumulator into this one (parallel-combine safe).
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  /// Mean of observations; 0 if empty.
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const noexcept;
  /// Sample standard deviation.
  double stddev() const noexcept;
  /// Smallest observation; +inf if empty.
  double min() const noexcept { return min_; }
  /// Largest observation; -inf if empty.
  double max() const noexcept { return max_; }
  /// Sum of observations.
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace cm5::util
