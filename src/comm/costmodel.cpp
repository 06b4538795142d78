#include "comm/costmodel.hpp"

#include <algorithm>
#include <cmath>

namespace dms {

double CostModel::group_beta(const std::vector<int>& ranks) const {
  double b = link_.beta_intra;
  for (std::size_t i = 0; i + 1 < ranks.size(); ++i) {
    if (!same_node(ranks[i], ranks[i + 1])) return link_.beta_inter;
  }
  // Also compare first/last (defensive for non-contiguous groups).
  if (ranks.size() >= 2 && !same_node(ranks.front(), ranks.back())) {
    return link_.beta_inter;
  }
  return b;
}

double CostModel::broadcast(const std::vector<int>& group, std::size_t bytes) const {
  const auto n = static_cast<double>(group.size());
  if (n <= 1.0) return 0.0;
  const double steps = std::ceil(std::log2(n));
  return steps * (link_.alpha + static_cast<double>(bytes) * group_beta(group));
}

double CostModel::allreduce(const std::vector<int>& group, std::size_t bytes) const {
  const auto n = static_cast<double>(group.size());
  if (n <= 1.0) return 0.0;
  const double b = group_beta(group);
  return 2.0 * (n - 1.0) * link_.alpha +
         2.0 * (n - 1.0) / n * static_cast<double>(bytes) * b;
}

double CostModel::alltoallv(
    const std::vector<int>& group,
    const std::vector<std::vector<std::size_t>>& send_bytes) const {
  double worst = 0.0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    double t = 0.0;
    for (std::size_t j = 0; j < group.size(); ++j) {
      if (i == j) continue;
      const std::size_t bytes = send_bytes[i][j];
      if (bytes == 0) continue;
      t += link_.alpha + static_cast<double>(bytes) * beta(group[i], group[j]);
    }
    worst = std::max(worst, t);
  }
  return worst;
}

}  // namespace dms
