#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cm5/net/topology.hpp"
#include "cm5/util/time.hpp"

/// \file trace.hpp
/// Event tracing for simulated runs.
///
/// A trace sink receives one event per simulated action (message posted,
/// transfer started/completed, compute, global op). Events arrive in
/// *execution* order: per node the times are non-decreasing, but a node
/// may emit an action before another node's earlier-time action runs
/// (direct execution lets nodes run locally ahead until they block).
/// TraceRecorder::sorted() gives the virtual-time ordering. Sinks run
/// inside the kernel under its lock: they must be fast and must not
/// call back into the simulation.
///
/// A sink need not retain anything: Cm5Machine::run_observed feeds the
/// streaming consumers directly (docs/METRICS.md "Streaming analysis"),
/// so a giant-N run is analyzed in O(state) memory instead of
/// materializing the O(E) event vector first.

namespace cm5::sim {

struct TraceEvent {
  enum class Kind : std::uint8_t {
    Compute,           ///< node charged local compute time (`bytes` unused)
    SendPosted,        ///< blocking or async send posted toward `peer`
    RecvPosted,        ///< receive posted (peer may be kAnyNode)
    SwapPosted,        ///< full-duplex swap posted toward `peer`
    TransferStart,     ///< message entered the data network (node = src)
    TransferComplete,  ///< message fully delivered (node = src)
    GlobalOpEnter,     ///< node arrived at a control-network operation
    GlobalOpComplete,  ///< all nodes released (node = last arriver)
    NodeDone,          ///< node program returned
    // Fault-injection events (emitted only when a FaultPlan is installed).
    FaultDrop,     ///< message dropped in flight (node = src, peer = dst)
    FaultCorrupt,  ///< payload corrupted in flight (node = src, peer = dst)
    FaultDelay,    ///< extra latency injected (`bytes` = delay in ns)
    FaultDegrade,  ///< node's links degraded (`bytes` = scale * 1e6)
    FaultKill,     ///< fail-stop node death
    FaultSlow,     ///< gray failure: compute/service scaled
                   ///< (`bytes` = factor * 1e6; 1e6 = healed)
    WaitTimeout,   ///< a timed receive/barrier expired (`tag` meaningful
                   ///< for receives; peer = awaited src or kAnyNode)
  };

  /// Number of Kind values (for per-kind counters).
  static constexpr std::size_t kNumKinds = 16;

  Kind kind{};
  util::SimTime time = 0;     ///< when the event happened (virtual)
  net::NodeId node = -1;      ///< acting node
  net::NodeId peer = -1;      ///< counterpart, when meaningful
  std::int64_t bytes = 0;     ///< user bytes (or compute duration in ns)
  std::int32_t tag = 0;
};

/// Receives events as they happen.
using TraceSink = std::function<void(const TraceEvent&)>;

/// "t=88.000 us  node 3  send -> 5  (256 B, tag 2)" style rendering.
std::string to_string(const TraceEvent& event);

/// Incremental receiver of a trace stream. on_event() is called once
/// per event, in the kernel's commit order (the exact order
/// TraceRecorder::events() would store). When fed from a live run it
/// executes under the kernel lock: implementations must be fast and
/// must never call back into the simulation. Concrete consumers
/// (MetricsBuilder, TraceValidator, TraceFileWriter) expose their own
/// typed finalize step for whatever they accumulate.
class TraceConsumer {
 public:
  virtual ~TraceConsumer() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// Convenience sink: records events in order and offers simple queries;
/// used by tests, the benchmark and the pattern-explorer's --trace mode.
class TraceRecorder {
 public:
  /// The sink to hand to the kernel. The recorder must outlive the run.
  TraceSink sink();

  /// The recorded events, in commit order.
  const std::vector<TraceEvent>& events() const noexcept { return events_; }

  /// Recorded events stably sorted by virtual time.
  std::vector<TraceEvent> sorted() const;

  /// Number of events of one kind recorded so far — O(1).
  std::int64_t count(TraceEvent::Kind kind) const;

  /// Total events recorded.
  std::int64_t total_events() const noexcept {
    return static_cast<std::int64_t>(events_.size());
  }

  /// Recorded events involving one node (as actor or peer), in order.
  /// Served from a lazily built per-node index, so repeated queries on
  /// a large trace cost O(answer), not O(E) rescans per call.
  std::vector<TraceEvent> for_node(net::NodeId node) const;

  /// Renders up to `max_lines` recorded events as text lines.
  std::string render(std::size_t max_lines = 100) const;

  /// Renders an ASCII timeline: one row per node, `width` time buckets
  /// from t=0 to the last event. Bucket glyphs: '#' mostly compute,
  /// '=' mostly in-transfer, '.' idle/blocked. Crude but very effective
  /// for *seeing* LEX's serialization vs PEX's parallel steps.
  std::string timeline(std::int32_t nprocs, std::size_t width = 72) const;

 private:
  void ingest(const TraceEvent& event);
  void ensure_node_index() const;

  std::vector<TraceEvent> events_;
  std::array<std::int64_t, TraceEvent::kNumKinds> kind_counts_{};
  /// Lazy per-node index over the recorded events (event positions where
  /// the node appears as actor or peer); rebuilt after new events arrive.
  mutable std::unordered_map<net::NodeId, std::vector<std::size_t>>
      node_index_;
  mutable bool node_index_valid_ = false;
};

}  // namespace cm5::sim
