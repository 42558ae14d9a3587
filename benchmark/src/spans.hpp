#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cm5/util/json.hpp"

/// \file spans.hpp
/// Host-time spans recorded by the benchmark around its calls into
/// the library's layers. Spans live in memory and are written once, at
/// exit, as Chrome Trace Event JSON (opens in Perfetto / chrome://tracing).
/// The benchmark runs every simulation on one thread, so the log is
/// single-threaded and spans nest strictly.

namespace cm5bench {

/// Host monotonic clock, nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One host-time interval around a layer call.
struct Span {
  const char* name = "";  ///< layer call, e.g. "machine.run" (a literal)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span; -1 = top level
  std::int32_t cell = -1;    ///< op shared by all spans of one cell; -1 = none
};

class SpanLog {
 public:
  /// Opens a span nested in the innermost open one; returns its index.
  std::int32_t open(const char* name, std::int32_t cell);
  /// Closes the innermost open span, which must be `index`.
  void close(std::int32_t index);
  /// Records an already finished interval as a child of `parent`.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int32_t parent, std::int32_t cell);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time per span name: each span's duration minus the part of it
  /// covered by its direct children.
  std::map<std::string, std::int64_t> self_ns() const;
  /// Inclusive (total) time per span name.
  std::map<std::string, std::int64_t> total_ns() const;
  /// Durations of every span named `name`, in recording order.
  std::vector<std::int64_t> durations(const std::string& name) const;

  /// Chrome Trace Event array: one complete ("X") event per span on
  /// thread `tid`, timestamps in microseconds from `origin_ns`.
  cm5::util::json::Value chrome_trace(std::int64_t origin_ns,
                                      std::int32_t tid) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Scoped span; a null log records nothing and costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int32_t cell = -1)
      : log_(log), index_(log != nullptr ? log->open(name, cell) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t index() const noexcept { return index_; }

 private:
  SpanLog* log_;
  std::int32_t index_;
};

}  // namespace cm5bench
