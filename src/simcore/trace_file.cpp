#include "cm5/sim/trace_file.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace cm5::sim {

namespace {

constexpr const char* kMagic = "CM5TRACE";

[[noreturn]] void fail(const std::string& path, const std::string& why,
                       bool truncated) {
  throw TraceFileError("trace file " + path + ": " + why, truncated);
}

}  // namespace

TraceFileWriter::TraceFileWriter(const std::string& path, std::int32_t nprocs)
    : path_(path), file_(std::fopen(path.c_str(), "w")) {
  if (file_ == nullptr) fail(path_, "cannot open for writing", false);
  if (std::fprintf(file_, "%s 1 nprocs=%" PRId32 "\n", kMagic, nprocs) < 0) {
    std::fclose(file_);
    file_ = nullptr;
    fail(path_, "write failed", false);
  }
}

TraceFileWriter::~TraceFileWriter() {
  try {
    finish();
  } catch (const TraceFileError&) {
    // Destructors must not throw; an explicit finish() surfaces errors.
  }
}

void TraceFileWriter::on_event(const TraceEvent& event) {
  if (file_ == nullptr) return;  // already finished
  if (std::fprintf(file_, "e %d %" PRId64 " %" PRId32 " %" PRId32 " %" PRId64
                          " %" PRId32 "\n",
                   static_cast<int>(event.kind),
                   static_cast<std::int64_t>(event.time), event.node,
                   event.peer, event.bytes, event.tag) < 0) {
    std::fclose(file_);
    file_ = nullptr;
    fail(path_, "write failed", false);
  }
  ++count_;
}

void TraceFileWriter::finish() {
  if (file_ == nullptr) return;
  const bool ok =
      std::fprintf(file_, "end %" PRId64 "\n", count_) >= 0 &&
      std::fflush(file_) == 0;
  std::fclose(file_);
  file_ = nullptr;
  if (!ok) fail(path_, "write failed", false);
}

TraceFileInfo read_trace_file(const std::string& path,
                              TraceConsumer* consumer) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) fail(path, "cannot open", false);

  TraceFileInfo info;
  char line[256];
  std::int64_t line_no = 0;
  auto close_and_fail = [&](const std::string& why, bool truncated) {
    std::fclose(f);
    fail(path, why, truncated);
  };

  if (std::fgets(line, sizeof line, f) == nullptr) {
    close_and_fail("empty file (expected CM5TRACE header)", true);
  }
  ++line_no;
  if (std::sscanf(line, "CM5TRACE %" SCNd32 " nprocs=%" SCNd32, &info.version,
                  &info.nprocs) != 2) {
    close_and_fail("malformed header (expected 'CM5TRACE <v> nprocs=<n>')",
                   false);
  }
  if (info.version != 1) {
    close_and_fail("unsupported version " + std::to_string(info.version),
                   false);
  }
  if (info.nprocs < 1) {
    close_and_fail("bad node count nprocs=" + std::to_string(info.nprocs) +
                       " (must be at least 1)",
                   false);
  }

  bool saw_end = false;
  std::int64_t declared = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    ++line_no;
    if (line[0] == 'e' && line[1] == ' ') {
      int kind = 0;
      std::int64_t time = 0, bytes = 0;
      std::int32_t node = 0, peer = 0, tag = 0;
      if (std::sscanf(line, "e %d %" SCNd64 " %" SCNd32 " %" SCNd32
                            " %" SCNd64 " %" SCNd32,
                      &kind, &time, &node, &peer, &bytes, &tag) != 6 ||
          std::strchr(line, '\n') == nullptr) {
        close_and_fail("truncated mid-event at line " +
                           std::to_string(line_no),
                       true);
      }
      if (kind < 0 ||
          kind >= static_cast<int>(TraceEvent::kNumKinds)) {
        close_and_fail("unknown event kind " + std::to_string(kind) +
                           " at line " + std::to_string(line_no),
                       false);
      }
      if (consumer != nullptr) {
        TraceEvent e;
        e.kind = static_cast<TraceEvent::Kind>(kind);
        e.time = time;
        e.node = node;
        e.peer = peer;
        e.bytes = bytes;
        e.tag = tag;
        consumer->on_event(e);
      }
      ++info.events;
    } else if (std::sscanf(line, "end %" SCNd64, &declared) == 1) {
      saw_end = true;
      break;
    } else {
      close_and_fail("unrecognized line " + std::to_string(line_no), false);
    }
  }
  std::fclose(f);

  if (!saw_end) {
    fail(path,
         "truncated: no 'end' trailer after " + std::to_string(info.events) +
             " events (writer died mid-run?)",
         true);
  }
  if (declared != info.events) {
    fail(path,
         "event count mismatch: trailer says " + std::to_string(declared) +
             ", file holds " + std::to_string(info.events),
         false);
  }
  return info;
}

bool is_trace_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char magic[9] = {};
  const std::size_t n = std::fread(magic, 1, 8, f);
  std::fclose(f);
  return n == 8 && std::memcmp(magic, kMagic, 8) == 0;
}

}  // namespace cm5::sim
