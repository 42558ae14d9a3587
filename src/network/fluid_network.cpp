#include "cm5/net/fluid_network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "cm5/net/maxmin.hpp"
#include "cm5/util/check.hpp"

namespace cm5::net {
namespace {

/// Residual below which a flow counts as complete; far below one packet.
constexpr double kDoneEpsilonBytes = 1e-6;

/// solve_max_min's freeze tolerance: a flow freezes at the round share
/// `s` if one of its links has a fair share <= s * kFreezeTolerance.
constexpr double kFreezeTolerance = 1.0 + 1e-12;

}  // namespace

FluidNetwork::FluidNetwork(const FatTreeTopology& topo) : topo_(topo) {
  const auto num_links = static_cast<std::size_t>(topo_.num_links());
  stats_.bytes_by_level.assign(static_cast<std::size_t>(topo_.levels()) + 1, 0.0);
  stats_.bytes_by_link.assign(num_links, 0.0);
  stats_.link_busy_seconds.assign(num_links, 0.0);
  link_load_.assign(num_links, 0.0);
  capacity_scale_.assign(num_links, 1.0);
  flows_on_link_.assign(num_links, 0);
  residual_.assign(num_links, 0.0);
  active_on_link_.assign(num_links, 0);
  link_share_.assign(num_links, 0.0);
  link_pos_.assign(num_links, 0);
  link_listed_.assign(num_links, 0);
}

void FluidNetwork::set_solver_mode(SolverMode mode) {
  // A pending re-solve with no active flows is harmless (both solvers
  // just zero the loads of links whose flows retired), so idle == no
  // active flows.
  CM5_CHECK_MSG(flows_.empty(),
                "solver mode can only change while the network is idle");
  solver_mode_ = mode;
}

void FluidNetwork::set_link_capacity_scale(util::SimTime now, LinkId link,
                                           double scale) {
  CM5_CHECK_MSG(now >= now_, "time must not go backwards");
  CM5_CHECK_MSG(link >= 0 && link < topo_.num_links(), "bad link id");
  CM5_CHECK_MSG(scale >= 0.0, "capacity scale must be non-negative");
  if (rates_dirty_) resolve_rates();
  progress_to(now);
  capacity_scale_[static_cast<std::size_t>(link)] = scale;
  rates_dirty_ = true;
}

double FluidNetwork::link_capacity_scale(LinkId link) const {
  return capacity_scale_[static_cast<std::size_t>(link)];
}

void FluidNetwork::progress_to(util::SimTime t) {
  const double dt = util::to_seconds(t - now_);
  if (dt > 0.0) {
    next_cache_valid_ = false;
    if (rates_dirty_) resolve_rates();
    for (Flow& f : flows_) {
      f.bytes_remaining = std::max(0.0, f.bytes_remaining - f.rate * dt);
    }
    // Only links on a live flow's route can carry load: rates were just
    // resolved above if anything was dirty, live_links_ lists every such
    // link once, and a resolve zeroes the load of every link that lost
    // its flows.
    for (const LinkId link : live_links_) {
      const auto l = static_cast<std::size_t>(link);
      if (link_load_[l] <= 0.0) continue;
      const double cap = topo_.link(link).capacity * capacity_scale_[l];
      // A stalled link (capacity scaled to 0) carries no fluid at all —
      // it is idle, not saturated, so it contributes no busy time.
      if (cap <= 0.0) continue;
      stats_.link_busy_seconds[l] += dt * std::min(1.0, link_load_[l] / cap);
    }
  }
  now_ = t;
}

FlowId FluidNetwork::start_flow(util::SimTime now, NodeId src, NodeId dst,
                                double wire_bytes) {
  CM5_CHECK_MSG(now >= now_, "time must not go backwards");
  CM5_CHECK_MSG(src != dst, "flows to self never touch the network");
  CM5_CHECK(wire_bytes >= 0.0);

  // Progress existing flows to `now` (without harvesting completions;
  // the kernel harvests them via advance_to, which it is contractually
  // obliged to call for any completion earlier than `now`).
  progress_to(now);

  const FlowId id = next_id_++;
  Flow& f = flows_.emplace_back();  // ids grow: flows_ stays sorted
  f.id = id;
  f.bytes_remaining = wire_bytes;
  f.route_len = static_cast<std::uint8_t>(
      topo_.route_into(src, dst, f.route_links.data()));

  rates_dirty_ = true;
  ++stats_.flows_started;
  for (LinkId l : f.route()) {
    const auto li = static_cast<std::size_t>(l);
    if (flows_on_link_[li]++ == 0 && !link_listed_[li]) {
      link_listed_[li] = 1;
      live_links_.push_back(l);
    }
    stats_.bytes_by_link[static_cast<std::size_t>(l)] += wire_bytes;
    stats_.bytes_by_level[static_cast<std::size_t>(topo_.link_level(l))] +=
        wire_bytes;
  }
  return id;
}

void FluidNetwork::resolve_rates() {
  if (!rates_dirty_) return;
  next_cache_valid_ = false;
  if (solver_mode_ == SolverMode::kOracle) {
    resolve_oracle();
  } else {
    solve_all();
  }
  rates_dirty_ = false;
  ++stats_.rate_solves;
}

void FluidNetwork::sweep_live_links() {
  // Drop links whose flows have all retired: the fill needs exactly the
  // links that carry traffic, and a dropped link carries no load.
  std::erase_if(live_links_, [this](LinkId l) {
    const auto li = static_cast<std::size_t>(l);
    if (flows_on_link_[li] != 0) return false;
    link_listed_[li] = 0;
    link_load_[li] = 0.0;
    return true;
  });
}

void FluidNetwork::solve_all() {
  // flows_ is in FlowId order, the order the reference solve processes
  // flows in.
  fill_flows_.resize(flows_.size());
  std::iota(fill_flows_.begin(), fill_flows_.end(), 0u);
  sweep_live_links();
  fill();

  // Rebuild link loads in FlowId order, so the partial sums match the
  // reference solve's.
  for (LinkId l : live_links_) {
    link_load_[static_cast<std::size_t>(l)] = 0.0;
  }
  for (const Flow& f : flows_) {
    for (LinkId l : f.route()) {
      link_load_[static_cast<std::size_t>(l)] += f.rate;
    }
  }
}

void FluidNetwork::fill() {
  stats_.flows_refrozen += static_cast<std::int64_t>(fill_flows_.size());
  // link_share_ caches residual/active for every link that still has
  // unfrozen flows, updated with the reference algorithm's exact
  // expression on every mutation, so both the min-scan and the per-flow
  // bottleneck checks below read a double that is bit-identical to
  // recomputing the division in place (links without unfrozen flows hold
  // +inf, which neither wins a min nor passes a <= tolerance check).
  // fill_shares_ mirrors the same values densely — one entry per link,
  // kept in sync through link_pos_ — so the per-round min-scan is a
  // straight (vectorizable) sweep over a contiguous double array instead
  // of a gather through the link-indexed tables.
  const std::size_t num_links = live_links_.size();
  fill_shares_.resize(num_links);
  for (std::size_t i = 0; i < num_links; ++i) {
    const auto li = static_cast<std::size_t>(live_links_[i]);
    residual_[li] = topo_.link(live_links_[i]).capacity * capacity_scale_[li];
    active_on_link_[li] = flows_on_link_[li];
    link_share_[li] = residual_[li] / active_on_link_[li];
    fill_shares_[i] = link_share_[li];
    link_pos_[li] = static_cast<std::uint32_t>(i);
  }
  std::size_t unfrozen = fill_flows_.size();
  while (unfrozen > 0) {
    // Most constrained link: minimum fair share among links with traffic.
    // Links whose flows all froze hold +inf and never win. The shares
    // are non-negative and NaN-free, so the minimum is order-independent
    // down to the bit; the 4-way unroll only breaks the dependency chain
    // (the compiler will not reorder a conditional FP min itself).
    double m0 = std::numeric_limits<double>::infinity();
    double m1 = m0, m2 = m0, m3 = m0;
    std::size_t j = 0;
    for (; j + 4 <= num_links; j += 4) {
      m0 = std::min(m0, fill_shares_[j]);
      m1 = std::min(m1, fill_shares_[j + 1]);
      m2 = std::min(m2, fill_shares_[j + 2]);
      m3 = std::min(m3, fill_shares_[j + 3]);
    }
    for (; j < num_links; ++j) m0 = std::min(m0, fill_shares_[j]);
    double share = std::min(std::min(m0, m1), std::min(m2, m3));
    CM5_CHECK_MSG(share < std::numeric_limits<double>::infinity(),
                  "unfrozen flow with no active link");
    if (share < 0.0) share = 0.0;  // guard against FP round-down of residuals
    const double tol = share * kFreezeTolerance;

    // Freeze every flow whose path touches a link at exactly this share.
    // The scan is sequential by construction — an earlier freeze in the
    // round updates the shares later flows are checked against — and the
    // compaction is stable, so unfrozen flows are always visited in
    // FlowId order, exactly as the reference does.
    bool froze_any = false;
    std::size_t wf = 0;
    for (std::size_t i = 0; i < unfrozen; ++i) {
      const std::uint32_t fi = fill_flows_[i];
      Flow& f = flows_[fi];
      bool bottlenecked = false;
      for (LinkId l : f.route()) {
        if (link_share_[static_cast<std::size_t>(l)] <= tol) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) {
        fill_flows_[wf++] = fi;
        continue;
      }
      f.rate = share;
      froze_any = true;
      for (LinkId l : f.route()) {
        const auto li = static_cast<std::size_t>(l);
        residual_[li] -= share;
        if (residual_[li] < 0.0) residual_[li] = 0.0;
        const std::int32_t remaining = --active_on_link_[li];
        link_share_[li] = remaining > 0
                              ? residual_[li] / remaining
                              : std::numeric_limits<double>::infinity();
        fill_shares_[link_pos_[li]] = link_share_[li];
      }
    }
    unfrozen = wf;
    CM5_CHECK_MSG(froze_any, "progressive filling failed to make progress");
  }
}

void FluidNetwork::resolve_oracle() {
  // The seed whole-network solve: every active flow, every link, from
  // scratch via solve_max_min. Kept as the reference oracle for
  // differential testing of the incremental path. Scratch vectors are
  // members so repeated solves allocate nothing once warm.
  sweep_live_links();
  oracle_caps_.resize(static_cast<std::size_t>(topo_.num_links()));
  for (std::int32_t l = 0; l < topo_.num_links(); ++l) {
    oracle_caps_[static_cast<std::size_t>(l)] =
        topo_.link(l).capacity * capacity_scale_[static_cast<std::size_t>(l)];
  }
  oracle_routes_.clear();
  for (const Flow& f : flows_) oracle_routes_.push_back(FlowRoute{f.route()});
  const std::vector<double> rates = solve_max_min(oracle_routes_, oracle_caps_);
  stats_.flows_refrozen += static_cast<std::int64_t>(flows_.size());
  std::fill(link_load_.begin(), link_load_.end(), 0.0);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& f = flows_[i];
    f.rate = rates[i];
    for (LinkId l : f.route()) {
      link_load_[static_cast<std::size_t>(l)] += f.rate;
    }
  }
}

std::optional<util::SimTime> FluidNetwork::next_event() {
  if (flows_.empty()) return std::nullopt;
  resolve_rates();
  // The kernel peeks this on every scheduling iteration; the answer can
  // only change when time advances or rates are re-solved, and each of
  // those already walked every flow, so a scan on a cache miss adds no
  // asymptotic cost. The returned time is, for reproducibility,
  //   min over active flows of: now_ + transfer_time(bytes_remaining, rate)
  // computed fresh at this call. A flow blocked on a stalled link (rate 0
  // with bytes left) cannot finish and does not count; if every flow is
  // blocked the answer is nullopt.
  if (next_cache_valid_) return next_cache_;
  util::SimTime best = util::kTimeNever;
  for (const Flow& f : flows_) {
    if (f.bytes_remaining <= kDoneEpsilonBytes) {
      best = std::min(best, now_);
    } else if (f.rate > 0.0) {
      best = std::min(best,
                      now_ + util::transfer_time(f.bytes_remaining, f.rate));
    }
  }
  next_cache_ = best == util::kTimeNever ? std::nullopt
                                         : std::optional<util::SimTime>(best);
  next_cache_valid_ = true;
  return next_cache_;
}

std::vector<FlowId> FluidNetwork::advance_to(util::SimTime t) {
  CM5_CHECK_MSG(t >= now_, "time must not go backwards");
  resolve_rates();
  progress_to(t);

  // A stable erase over the FlowId-ordered vector: the done ids come out
  // sorted and the survivors keep their order.
  std::vector<FlowId> done;
  std::erase_if(flows_, [this, &done](const Flow& f) {
    if (f.bytes_remaining > kDoneEpsilonBytes) return false;
    done.push_back(f.id);
    for (LinkId l : f.route()) --flows_on_link_[static_cast<std::size_t>(l)];
    return true;
  });
  if (!done.empty()) {
    stats_.flows_completed += static_cast<std::int64_t>(done.size());
    rates_dirty_ = true;
  }
  return done;
}

double FluidNetwork::flow_rate(FlowId id) {
  resolve_rates();
  const auto it = std::lower_bound(
      flows_.begin(), flows_.end(), id,
      [](const Flow& f, FlowId key) { return f.id < key; });
  CM5_CHECK_MSG(it != flows_.end() && it->id == id,
                "flow_rate on a flow that is not active");
  return it->rate;
}

}  // namespace cm5::net
