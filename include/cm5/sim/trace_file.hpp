#pragma once

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "cm5/sim/trace.hpp"

/// \file trace_file.hpp
/// CM5TRACE v1: a line-oriented on-disk trace format, written and read
/// as a stream so neither side ever holds the whole event vector.
///
///   CM5TRACE 1 nprocs=<N>
///   e <kind> <time> <node> <peer> <bytes> <tag>
///   ...
///   end <count>
///
/// One `e` line per event (kind as its numeric enum value), terminated
/// by an `end` trailer carrying the event count. A file that stops
/// before the trailer — a run that died mid-write — is detected as
/// *truncated* and reported with a one-line diagnosis naming the file,
/// mirroring how tools/trace_analyzer diagnoses damaged metrics files.

namespace cm5::sim {

/// Thrown by the reader (and the writer on I/O failure). what() is a
/// single line naming the file and the failure; `truncated()` is true
/// when the file ends mid-stream (missing or partial trailer/event)
/// rather than being malformed outright.
class TraceFileError : public std::runtime_error {
 public:
  TraceFileError(const std::string& what, bool truncated)
      : std::runtime_error(what), truncated_(truncated) {}

  bool truncated() const noexcept { return truncated_; }

 private:
  bool truncated_;
};

/// Streaming writer: a TraceConsumer that serializes every event to a
/// CM5TRACE v1 file as it arrives. Register it on a TraceRecorder (or
/// feed it directly) and call finish() when the run is over to emit the
/// trailer; the destructor finishes implicitly. Throws TraceFileError
/// if the file cannot be opened or a write fails.
class TraceFileWriter : public TraceConsumer {
 public:
  TraceFileWriter(const std::string& path, std::int32_t nprocs);
  ~TraceFileWriter() override;

  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;

  void on_event(const TraceEvent& event) override;

  /// Writes the `end <count>` trailer and closes the file. Idempotent.
  void finish();

  /// Events written so far.
  std::int64_t count() const noexcept { return count_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::int64_t count_ = 0;
};

/// Header/trailer facts the reader returns after a successful pass.
struct TraceFileInfo {
  std::int32_t version = 0;
  std::int32_t nprocs = 0;
  std::int64_t events = 0;
};

/// Streams a CM5TRACE file through `consumer` (which may be null to
/// merely verify structure), one event per `e` line, and returns the
/// header/trailer facts. Throws TraceFileError on open failure, on a
/// malformed header or line (a header node count below 1 included), on
/// an event-count mismatch, and — with
/// truncated() true — when the file ends before the trailer.
TraceFileInfo read_trace_file(const std::string& path,
                              TraceConsumer* consumer);

/// True when the file starts with the CM5TRACE magic — cheap sniff so
/// tools can dispatch between trace files and metrics JSON.
bool is_trace_file(const std::string& path);

}  // namespace cm5::sim
