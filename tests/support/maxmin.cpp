#include "maxmin.hpp"

#include <limits>

#include "cm5/util/check.hpp"

namespace cm5::net {

std::vector<double> solve_max_min(std::span<const FlowRoute> flows,
                                  std::span<const double> link_capacity) {
  const std::size_t num_flows = flows.size();
  const std::size_t num_links = link_capacity.size();

  std::vector<double> rate(num_flows, std::numeric_limits<double>::infinity());
  if (num_flows == 0) return rate;

  std::vector<double> residual(link_capacity.begin(), link_capacity.end());
  std::vector<std::int32_t> active_on_link(num_links, 0);
  std::vector<bool> frozen(num_flows, false);

  std::size_t unfrozen = 0;
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (flows[f].links.empty()) {
      frozen[f] = true;  // no constraining link: infinite rate
      continue;
    }
    ++unfrozen;
    for (LinkId l : flows[f].links) {
      CM5_CHECK(l >= 0 && static_cast<std::size_t>(l) < num_links);
      ++active_on_link[static_cast<std::size_t>(l)];
    }
  }

  while (unfrozen > 0) {
    // Most constrained link: minimum fair share among links with traffic.
    double share = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < num_links; ++l) {
      if (active_on_link[l] == 0) continue;
      const double s = residual[l] / active_on_link[l];
      if (s < share) share = s;
    }
    CM5_CHECK_MSG(share < std::numeric_limits<double>::infinity(),
                  "unfrozen flow with no active link");
    if (share < 0.0) share = 0.0;  // guard against FP round-down of residuals

    // Freeze every flow whose path touches a link at exactly this share.
    bool froze_any = false;
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      bool bottlenecked = false;
      for (LinkId l : flows[f].links) {
        const auto li = static_cast<std::size_t>(l);
        if (active_on_link[li] > 0 &&
            residual[li] / active_on_link[li] <= share * (1.0 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      rate[f] = share;
      frozen[f] = true;
      froze_any = true;
      --unfrozen;
      for (LinkId l : flows[f].links) {
        const auto li = static_cast<std::size_t>(l);
        residual[li] -= share;
        if (residual[li] < 0.0) residual[li] = 0.0;
        --active_on_link[li];
      }
    }
    CM5_CHECK_MSG(froze_any, "progressive filling failed to make progress");
  }
  return rate;
}

}  // namespace cm5::net
