#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
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
/// Rate re-solves are batched: starting k flows at the same instant costs
/// one re-solve, which matters because the paper's algorithms launch whole
/// steps of flows simultaneously.
///
/// Two performance-critical structures back this API (see docs/PERF.md):
///
/// * An *incremental* max-min solver. Re-solves only happen when a flow
///   start/finish or a link-fault capacity change dirties a link, and the
///   solve reuses state built once per flow: the flow→link adjacency, a
///   FlowId-ordered active list maintained across solves, and stamp-based
///   link sets, so it touches only links that carry traffic and allocates
///   nothing once warm. Flows are processed in FlowId order so the
///   arithmetic matches the seed whole-network solve exactly; that solve
///   is retained behind SolverMode::kOracle as a differential-testing
///   reference. While many flows are active the solve is further
///   restricted to the connected component of the flow/link sharing graph
///   that the dirtied links reach, under a guard that keeps it
///   bit-identical to the whole-network solve and falls back to it when a
///   near-tie could couple components (see resolve_incremental).
///
/// * A lazy min-heap of projected completion times, so next_event() is a
///   heap peek instead of a scan over every active flow. Entries are
///   invalidated by a per-flow epoch counter: each re-solve bumps the
///   epoch of the flows whose projection changed and pushes a fresh
///   entry; stale entries are discarded when they surface at the top.
///   next_event() reprojects the entries within a small window of the
///   heap top fresh from the current time, so the times it returns are
///   bit-identical to the original O(F) rescan (see fluid_network.cpp).

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
  /// Flows re-frozen by progressive filling, summed over all solves: the
  /// active count for a whole-network solve, the component size for a
  /// restricted one (plus the active count when its guard falls back).
  std::int64_t flows_refrozen = 0;
  /// Number of completion-heap pops (stale-entry discards included) — a
  /// cost metric for the event-lookup path, reported in bench perf JSON.
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
  std::size_t active_flows() const noexcept { return active_count_; }

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
  /// Slot-based flow storage: completed flows free their slot for reuse,
  /// so memory stays proportional to the peak number of concurrent flows.
  struct Slot {
    FlowId id = -1;
    NodeId src = -1;
    NodeId dst = -1;
    double bytes_remaining = 0.0;
    double rate = 0.0;
    /// Route links, copied inline at start_flow (topology route_into):
    /// slot reuse never allocates and flow state holds no pointers into
    /// topology-owned tables, which is what lets routes be computed on
    /// demand instead of tabulated O(N²).
    std::array<LinkId, kMaxRouteLinks> route_links{};
    std::uint8_t route_len = 0;
    std::span<const LinkId> route() const noexcept {
      return {route_links.data(), route_len};
    }
    /// Invalidation counter for heap entries; bumped whenever the slot's
    /// outstanding entry becomes wrong (new projection, flow retired).
    std::uint64_t epoch = 0;
    /// Time of this slot's valid heap entry; -1 (kNoHeapEntry) if none.
    util::SimTime heap_time = -1;
    bool live = false;
  };

  struct HeapEntry {
    util::SimTime time;
    FlowId id;
    std::uint32_t slot;
    std::uint64_t epoch;
  };

  /// Min-heap ordering for std::push_heap/pop_heap (which build max-heaps).
  static bool heap_later(const HeapEntry& a, const HeapEntry& b) noexcept {
    return a.time > b.time;
  }

  void resolve_rates();
  void resolve_incremental();
  void resolve_oracle();
  /// Progressive filling of the flows queued in fill_flows_ (slots, in
  /// FlowId order) over the live links they use. When `guarded`, returns
  /// false if a round saw a link share strictly inside (share, share *
  /// kFreezeTolerance], and until then records round shares in
  /// fill_levels_.
  bool fill(std::span<const LinkId> links, bool guarded);
  void solve_all(bool guarded);
  /// Re-solves the dirtied links' sharing component alone; commits and
  /// returns true only if the guard proves solve_all would agree.
  bool solve_component();
  /// Builds (or drops) the guard state: link→flow lists, level table.
  void set_guarded(bool on);
  /// Drops links whose flows all retired from live_links_.
  void sweep_live_links();
  void level_add(double rate);
  void level_remove(double rate);
  /// True if a held rate r != m satisfies r < m <= r * kFreezeTolerance
  /// or m < r <= m * kFreezeTolerance.
  bool level_near(double m) const;
  /// Recomputes a slot's projected completion and (if it changed) pushes
  /// a fresh heap entry, invalidating the old one via the epoch.
  void refresh_heap_entry(std::uint32_t si);
  /// Drops invalid heap entries so the heap never outgrows the live set
  /// by more than a constant factor.
  void compact_heap();
  bool heap_entry_valid(const HeapEntry& e) const;
  /// Marks a link's rates as needing a re-solve.
  void mark_dirty(LinkId l);
  /// Frees a completed flow's slot and dirties the links it occupied.
  void retire_slot(std::uint32_t si);
  /// Moves fluid state (bytes + busy accounting) forward to time t.
  void progress_to(util::SimTime t);

  const FatTreeTopology& topo_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t active_count_ = 0;
  /// Live-flow count per link, maintained on flow start/retire so a
  /// solve never recounts routes.
  std::vector<std::int32_t> flows_on_link_;
  /// Links with at least one live flow, each listed once (link_listed_).
  /// Appended on a 0→1 count transition; entries whose count dropped back
  /// to 0 stay (with zero load) until a whole-network solve sweeps them.
  std::vector<LinkId> live_links_;
  std::vector<std::uint8_t> link_listed_;
  std::vector<double> link_load_;  // bytes/s per link at current rates
  std::vector<double> capacity_scale_;  // degradation multipliers (1 = healthy)

  /// Links whose flow set or capacity changed since the last re-solve.
  std::vector<LinkId> dirty_links_;
  std::vector<std::uint8_t> link_dirty_;

  /// Completion-time min-heap (std::push_heap/pop_heap on a vector so
  /// compact_heap can filter in place).
  std::vector<HeapEntry> heap_;

  /// Scratch for the incremental solver (persist across calls so a solve
  /// allocates nothing once warm). Stamp arrays implement O(1) "seen"
  /// sets without clearing.
  std::vector<std::uint64_t> link_stamp_;
  std::uint64_t stamp_gen_ = 0;
  std::vector<double> residual_;
  std::vector<std::int32_t> active_on_link_;
  std::vector<double> link_share_;  // residual/active, +inf when inactive
  /// Dense mirror of link_share_ over this solve's live links, so the
  /// per-round min-scan is a contiguous sweep; link_pos_ maps a link id
  /// to its index here (only valid for the current solve's live links).
  std::vector<double> fill_shares_;
  std::vector<std::uint32_t> link_pos_;
  std::vector<std::uint32_t> fill_flows_;  // per-round unfrozen worklist
  std::vector<double> fill_levels_;  // round shares of a guarded fill
  /// Flows whose rate changed bits in the current solve — the only ones
  /// whose heap projections need refreshing afterwards.
  std::vector<std::uint32_t> changed_slots_;

  /// Guard state, kept only while the active set is large (empty
  /// link_flows_ means unguarded): the flows on each link, the active
  /// flows' distinct rates with multiplicities in ascending order (empty
  /// until a restricted solve needs it), and whether the last
  /// whole-network solve was free of band events.
  std::vector<std::vector<std::uint32_t>> link_flows_;
  std::vector<std::pair<double, std::int32_t>> levels_;
  bool decoupled_ = false;
  /// solve_component scratch: the component's flows (FlowId order), their
  /// pre-solve rates, its links, and per-slot visit stamps.
  std::vector<std::uint32_t> comp_flows_;
  std::vector<double> comp_rates_;
  std::vector<LinkId> comp_links_;
  std::vector<std::uint64_t> slot_stamp_;

  /// Scratch for next_event's reprojection window: slots popped near the
  /// heap top whose times are recomputed fresh before being re-pushed.
  std::vector<std::uint32_t> reproject_scratch_;

  /// Active flows in FlowId order (ids are monotonic, so push_back keeps
  /// the order). Entries for retired flows — recognisable because the
  /// slot was freed or reused under a new id — are swept out lazily at
  /// the start of each incremental solve.
  struct ActiveRef {
    FlowId id;
    std::uint32_t slot;
  };
  std::vector<ActiveRef> active_order_;

  /// Memoized next_event() answer: the kernel peeks the next completion
  /// on every scheduling iteration, but the answer can only change when
  /// time advances or rates are re-solved (both clear the flag).
  bool next_cache_valid_ = false;
  std::optional<util::SimTime> next_cache_;

  /// Scratch for the oracle solver, reused across calls so repeated
  /// whole-network solves stop reallocating routes/caps every time.
  std::vector<std::uint32_t> oracle_order_;
  std::vector<FlowRoute> oracle_routes_;
  std::vector<double> oracle_caps_;

  util::SimTime now_ = 0;
  bool rates_dirty_ = false;
  SolverMode solver_mode_ = SolverMode::kIncremental;
  FlowId next_id_ = 0;
  NetworkStats stats_;
};

}  // namespace cm5::net
