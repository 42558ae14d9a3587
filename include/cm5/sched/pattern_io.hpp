#pragma once

#include <string>

#include "cm5/sched/pattern.hpp"

/// \file pattern_io.hpp
/// Plain-text serialization for communication patterns, so captured
/// workloads can be saved, shared and replayed through the pattern
/// explorer or the benches.
///
/// Format (line oriented, '#' comments allowed):
///
///   cm5-pattern v1
///   nprocs 8
///   0 1 256        # src dst bytes
///   0 3 256
///   ...

namespace cm5::sched {

/// Renders a pattern to the text format (deterministic: entries in
/// (src, dst) order).
std::string pattern_to_text(const CommPattern& pattern);

/// Parses the text format. Throws std::runtime_error with a line number
/// on malformed input.
CommPattern pattern_from_text(const std::string& text);

/// Writes pattern_to_text to a file. Throws std::runtime_error on I/O
/// failure.
void save_pattern(const CommPattern& pattern, const std::string& path);

/// Reads a pattern file. Throws std::runtime_error naming the file if it
/// cannot be opened or does not parse.
CommPattern load_pattern(const std::string& path);

}  // namespace cm5::sched
