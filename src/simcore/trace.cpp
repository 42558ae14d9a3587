#include "cm5/sim/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cm5::sim {
namespace {

const char* kind_name(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::Compute:
      return "compute";
    case TraceEvent::Kind::SendPosted:
      return "send ->";
    case TraceEvent::Kind::RecvPosted:
      return "recv <-";
    case TraceEvent::Kind::SwapPosted:
      return "swap <->";
    case TraceEvent::Kind::TransferStart:
      return "xfer start ->";
    case TraceEvent::Kind::TransferComplete:
      return "xfer done ->";
    case TraceEvent::Kind::GlobalOpEnter:
      return "global enter";
    case TraceEvent::Kind::GlobalOpComplete:
      return "global done";
    case TraceEvent::Kind::NodeDone:
      return "done";
    case TraceEvent::Kind::FaultDrop:
      return "FAULT drop ->";
    case TraceEvent::Kind::FaultCorrupt:
      return "FAULT corrupt ->";
    case TraceEvent::Kind::FaultDelay:
      return "FAULT delay ->";
    case TraceEvent::Kind::FaultDegrade:
      return "FAULT degrade";
    case TraceEvent::Kind::FaultKill:
      return "FAULT kill";
    case TraceEvent::Kind::FaultSlow:
      return "FAULT slow";
    case TraceEvent::Kind::WaitTimeout:
      return "wait timeout";
  }
  return "?";
}

}  // namespace

std::string to_string(const TraceEvent& event) {
  std::ostringstream os;
  os << "t=" << util::format_duration(event.time) << "  node " << event.node
     << "  " << kind_name(event.kind);
  switch (event.kind) {
    case TraceEvent::Kind::SendPosted:
    case TraceEvent::Kind::SwapPosted:
    case TraceEvent::Kind::TransferStart:
    case TraceEvent::Kind::TransferComplete:
    case TraceEvent::Kind::FaultDrop:
    case TraceEvent::Kind::FaultCorrupt:
      os << ' ' << event.peer << "  (" << event.bytes << " B, tag "
         << event.tag << ')';
      break;
    case TraceEvent::Kind::FaultDelay:
      os << ' ' << event.peer << "  (+" << util::format_duration(event.bytes)
         << ", tag " << event.tag << ')';
      break;
    case TraceEvent::Kind::RecvPosted:
      if (event.peer >= 0) {
        os << ' ' << event.peer;
      } else {
        os << " ANY";
      }
      os << "  (tag " << event.tag << ')';
      break;
    case TraceEvent::Kind::Compute:
      os << "  (" << util::format_duration(event.bytes) << ')';
      break;
    default:
      break;
  }
  return os.str();
}

void TraceRecorder::ingest(const TraceEvent& event) {
  const auto k = static_cast<std::size_t>(event.kind);
  if (k < kind_counts_.size()) ++kind_counts_[k];
  events_.push_back(event);
}

TraceSink TraceRecorder::sink() {
  return [this](const TraceEvent& event) { ingest(event); };
}

std::vector<TraceEvent> TraceRecorder::sorted() const {
  std::vector<TraceEvent> out = events_;
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });
  return out;
}

std::int64_t TraceRecorder::count(TraceEvent::Kind kind) const {
  const auto k = static_cast<std::size_t>(kind);
  return k < kind_counts_.size() ? kind_counts_[k] : 0;
}

std::vector<TraceEvent> TraceRecorder::for_node(net::NodeId node) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.node == node || e.peer == node) out.push_back(e);
  }
  return out;
}

std::string TraceRecorder::timeline(std::int32_t nprocs,
                                    std::size_t width) const {
  if (events_.empty() || width == 0 || nprocs <= 0) return "";
  util::SimTime end = 0;
  for (const TraceEvent& e : events_) end = std::max(end, e.time);
  if (end == 0) return "";

  // Per node and bucket, accumulate nanoseconds of compute and transfer.
  const auto rows = static_cast<std::size_t>(nprocs);
  std::vector<std::vector<double>> compute(rows, std::vector<double>(width)),
      transfer(rows, std::vector<double>(width));
  auto add_interval = [&](std::vector<double>& row, util::SimTime from,
                          util::SimTime to) {
    from = std::max<util::SimTime>(from, 0);
    to = std::min(to, end);
    if (from >= to) return;
    const double bucket_ns =
        static_cast<double>(end) / static_cast<double>(width);
    const auto first =
        static_cast<std::size_t>(static_cast<double>(from) / bucket_ns);
    const auto last = std::min<std::size_t>(
        width - 1,
        static_cast<std::size_t>(static_cast<double>(to - 1) / bucket_ns));
    for (std::size_t b = first; b <= last; ++b) {
      const double lo = std::max(static_cast<double>(from),
                                 static_cast<double>(b) * bucket_ns);
      const double hi = std::min(static_cast<double>(to),
                                 static_cast<double>(b + 1) * bucket_ns);
      row[b] += std::max(0.0, hi - lo);
    }
  };

  // Compute events carry their duration in `bytes`, ending at `time`.
  // Transfers span TransferStart..TransferComplete for both endpoints;
  // match completions to the most recent unmatched start per (src, dst).
  struct PairHash {
    std::size_t operator()(
        const std::pair<net::NodeId, net::NodeId>& p) const noexcept {
      return (static_cast<std::size_t>(static_cast<std::uint32_t>(p.first))
              << 32) ^
             static_cast<std::uint32_t>(p.second);
    }
  };
  std::unordered_map<std::pair<net::NodeId, net::NodeId>,
                     std::vector<util::SimTime>, PairHash>
      open_transfers;
  open_transfers.reserve(static_cast<std::size_t>(nprocs) * 2);
  for (const TraceEvent& e : events_) {
    switch (e.kind) {
      case TraceEvent::Kind::Compute:
        if (e.node >= 0 && e.node < nprocs) {
          add_interval(compute[static_cast<std::size_t>(e.node)],
                       e.time - e.bytes, e.time);
        }
        break;
      case TraceEvent::Kind::TransferStart:
        open_transfers[{e.node, e.peer}].push_back(e.time);
        break;
      case TraceEvent::Kind::TransferComplete: {
        auto& starts = open_transfers[{e.node, e.peer}];
        if (starts.empty()) break;
        const util::SimTime start = starts.front();
        starts.erase(starts.begin());
        for (const net::NodeId n : {e.node, e.peer}) {
          if (n >= 0 && n < nprocs) {
            add_interval(transfer[static_cast<std::size_t>(n)], start, e.time);
          }
        }
        break;
      }
      default:
        break;
    }
  }

  std::ostringstream os;
  os << "timeline 0 .. " << util::format_duration(end) << "  ('#' compute, '"
     << "=' transfer, '.' idle)\n";
  const double bucket_ns =
      static_cast<double>(end) / static_cast<double>(width);
  for (std::size_t n = 0; n < rows; ++n) {
    os << "node ";
    os.width(3);
    os << n << " |";
    for (std::size_t b = 0; b < width; ++b) {
      const double c = compute[n][b];
      const double t = transfer[n][b];
      char glyph = '.';
      if (c + t > 0.05 * bucket_ns) glyph = (c >= t) ? '#' : '=';
      os << glyph;
    }
    os << "|\n";
  }
  return os.str();
}

std::string TraceRecorder::render(std::size_t max_lines) const {
  std::ostringstream os;
  const std::size_t limit = std::min(max_lines, events_.size());
  for (std::size_t i = 0; i < limit; ++i) {
    os << to_string(events_[i]) << '\n';
  }
  if (events_.size() > limit) {
    os << "... (" << events_.size() - limit << " more events)\n";
  }
  return os.str();
}

}  // namespace cm5::sim
