#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cm5/net/maxmin.hpp"
#include "cm5/net/topology.hpp"
#include "cm5/util/time.hpp"

/// \file fluid_network.hpp
/// Event-driven fluid (flow-level) simulation of the fat-tree data network.
///
/// Each in-flight message is a flow along its route. At any instant all
/// active flows progress at max-min fair rates; rates change only when a
/// flow starts or finishes. The owner (the DES kernel) drives this object
/// with monotonically non-decreasing times:
///
///   start_flow(t, ...)  ->  flow enters at time t
///   next_event()        ->  earliest projected completion, if any
///   advance_to(t)       ->  progress all flows to time t, collect
///                           completions
///
/// Rate re-solves are lazy: a flow start, a completion batch or a
/// capacity change only marks the rates stale, and they are re-solved
/// when next_event(), advance_to() or a later time needs them. Starting k
/// flows at the same instant therefore costs one re-solve as long as the
/// owner does not query next_event() between the starts; the kernel
/// skips that query while a flow start at the network's now() is pending
/// (Kernel::schedule_next, docs/MODEL.md §2). This matters because the
/// paper's algorithms launch whole steps of flows simultaneously.
///
/// Live flows sit in one vector in FlowId order (ids are monotonic, so
/// start_flow appends and a completion batch is a stable erase). The
/// max-min solve runs over that vector and persistent link state: the
/// per-link flow counts and a list of the links that carry traffic, so a
/// solve touches only loaded links and allocates nothing once warm. Flows
/// are processed in FlowId order so the arithmetic matches the seed
/// solve_max_min exactly; that solve is retained behind SolverMode::kOracle
/// as a differential-testing reference. next_event() is a memoized scan
/// of the flow vector; its answer only goes stale after a re-solve or a
/// time advance, each of which already costs O(flows) (docs/PERF.md §3).

namespace cm5::net {

/// Identifier of an in-flight flow, unique within a FluidNetwork instance.
using FlowId = std::int64_t;

/// Aggregate traffic statistics, queryable after (or during) a run.
struct NetworkStats {
  /// Wire bytes carried per tree level: [0] = node links (inject+eject),
  /// [l] = level-l subtree links. Counts each byte once per link crossed.
  std::vector<double> bytes_by_level;
  /// Wire bytes carried by each individual link.
  std::vector<double> bytes_by_link;
  /// Time-integrated utilization per link: seconds the link spent busy,
  /// weighted by load fraction (sum over intervals of dt * min(1,
  /// load/capacity)). Divide by the makespan for average utilization —
  /// the contention evidence behind the paper's §3.4 argument.
  std::vector<double> link_busy_seconds;
  std::int64_t flows_started = 0;
  std::int64_t flows_completed = 0;
  /// Number of max-min re-solves performed (a cost/behaviour metric).
  std::int64_t rate_solves = 0;
  /// Flows re-frozen by progressive filling, summed over all solves (each
  /// solve re-freezes every active flow).
  std::int64_t flows_refrozen = 0;
  /// Always 0: next_event() is a scan, so there is no completion heap to
  /// pop. Kept only because the benchmark still reports it.
  std::int64_t heap_pops = 0;
};

/// Flow-level network simulation over a FatTreeTopology.
class FluidNetwork {
 public:
  /// Which rate solver resolve_rates() uses. Simulation results are
  /// identical; kOracle re-solves the whole network from scratch on every
  /// rate change and exists as the reference for differential tests.
  enum class SolverMode { kIncremental, kOracle };

  explicit FluidNetwork(const FatTreeTopology& topo);

  /// Starts a flow of `wire_bytes` from src to dst at time `now`.
  /// `now` must be >= the time of every previous call. A zero-byte flow
  /// is legal and completes instantly at `now`.
  FlowId start_flow(util::SimTime now, NodeId src, NodeId dst,
                    double wire_bytes);

  /// Earliest projected completion time over all active flows, or
  /// nullopt if the network is idle. Never earlier than the last
  /// advance/start time.
  std::optional<util::SimTime> next_event();

  /// Advances the fluid state to time t (>= last time seen) and returns
  /// the flows that completed, in (completion_time, FlowId) order.
  std::vector<FlowId> advance_to(util::SimTime t);

  /// Number of currently active flows.
  std::size_t active_flows() const noexcept { return flows_.size(); }

  /// Time of the latest start/advance/capacity change. next_event() never
  /// returns an earlier time, and a new flow may not start before it.
  util::SimTime now() const noexcept { return now_; }

  /// Scales the capacity of one link to `scale` x its topology capacity,
  /// effective from time `now` (fluid state up to `now` progresses at the
  /// old rates first). Used by the fault-injection layer to model link
  /// degradation; `scale` must be >= 0 (0 stalls the link entirely).
  void set_link_capacity_scale(util::SimTime now, LinkId link, double scale);

  /// Current capacity scale of a link (1.0 unless degraded).
  double link_capacity_scale(LinkId link) const;

  /// Selects the rate solver. Only legal while the network is idle (no
  /// active flows), i.e. before a run or between runs.
  void set_solver_mode(SolverMode mode);
  SolverMode solver_mode() const noexcept { return solver_mode_; }

  /// Test hook: the current max-min rate (bytes/s) of an active flow.
  /// Re-solves if rates are stale, so calling it perturbs rate_solves.
  double flow_rate(FlowId id);

  const NetworkStats& stats() const noexcept { return stats_; }
  const FatTreeTopology& topology() const noexcept { return topo_; }

 private:
  struct Flow {
    FlowId id = -1;
    double bytes_remaining = 0.0;
    double rate = 0.0;
    /// Route links, copied inline at start_flow (topology route_into):
    /// flow state holds no pointers into topology-owned tables, which is
    /// what lets routes be computed on demand instead of tabulated O(N²).
    std::array<LinkId, kMaxRouteLinks> route_links{};
    std::uint8_t route_len = 0;
    std::span<const LinkId> route() const noexcept {
      return {route_links.data(), route_len};
    }
  };

  void resolve_rates();
  void resolve_oracle();
  /// The production solve: every active flow over every live link.
  void solve_all();
  /// Progressive filling of the flows queued in fill_flows_ (indices into
  /// flows_, in FlowId order) over live_links_.
  void fill();
  /// Drops links whose flows all retired from live_links_ and zeroes
  /// their load.
  void sweep_live_links();
  /// Moves fluid state (bytes + busy accounting) forward to time t.
  void progress_to(util::SimTime t);

  const FatTreeTopology& topo_;
  /// Live flows in FlowId order.
  std::vector<Flow> flows_;
  /// Live-flow count per link, maintained on flow start/retire so a
  /// solve never recounts routes.
  std::vector<std::int32_t> flows_on_link_;
  /// Links with at least one live flow, each listed once (link_listed_).
  /// Appended on a 0→1 count transition; entries whose count dropped back
  /// to 0 stay until the next solve sweeps them (and zeroes their load).
  std::vector<LinkId> live_links_;
  std::vector<std::uint8_t> link_listed_;
  std::vector<double> link_load_;  // bytes/s per link at current rates
  std::vector<double> capacity_scale_;  // degradation multipliers (1 = healthy)

  /// Scratch for the production solver (persist across calls so a solve
  /// allocates nothing once warm).
  std::vector<double> residual_;
  std::vector<std::int32_t> active_on_link_;
  std::vector<double> link_share_;  // residual/active, +inf when inactive
  /// Dense mirror of link_share_ over this solve's live links, so the
  /// per-round min-scan is a contiguous sweep; link_pos_ maps a link id
  /// to its index here (only valid for the current solve's live links).
  std::vector<double> fill_shares_;
  std::vector<std::uint32_t> link_pos_;
  std::vector<std::uint32_t> fill_flows_;  // per-round unfrozen worklist

  /// Memoized next_event() answer: the kernel peeks the next completion
  /// on every scheduling iteration, but the answer can only change when
  /// time advances or rates are re-solved (both clear the flag).
  bool next_cache_valid_ = false;
  std::optional<util::SimTime> next_cache_;

  /// Scratch for the oracle solver, reused across calls so repeated
  /// whole-network solves stop reallocating routes/caps every time.
  std::vector<FlowRoute> oracle_routes_;
  std::vector<double> oracle_caps_;

  util::SimTime now_ = 0;
  bool rates_dirty_ = false;
  SolverMode solver_mode_ = SolverMode::kIncremental;
  FlowId next_id_ = 0;
  NetworkStats stats_;
};

}  // namespace cm5::net
