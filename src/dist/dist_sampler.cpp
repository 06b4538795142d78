#include "dist/dist_sampler.hpp"

#include <algorithm>

namespace dms {

std::vector<BulkRound> plan_bulk_rounds(index_t steps_per_rank, index_t bulk_steps) {
  check(steps_per_rank >= 0, "plan_bulk_rounds: negative step count");
  if (steps_per_rank == 0) return {};
  const index_t stride =
      bulk_steps <= 0 ? steps_per_rank : std::min(bulk_steps, steps_per_rank);
  std::vector<BulkRound> rounds;
  for (index_t s = 0; s < steps_per_rank; s += stride) {
    rounds.push_back({s, std::min<index_t>(steps_per_rank, s + stride)});
  }
  return rounds;
}

PartitionedSamplerBase::PartitionedSamplerBase(const Graph& graph,
                                               const ProcessGrid& grid,
                                               SamplePlan plan,
                                               SamplerConfig config,
                                               PartitionedSamplerOptions opts)
    : PlanSampler(graph, std::move(plan), std::move(config), {.optimize = false}),
      opts_(opts),
      dist_adj_(grid, this->graph().adjacency()) {}

PartitionedSamplerBase::PartitionedSamplerBase(std::unique_ptr<const Graph> graph,
                                               const ProcessGrid& grid,
                                               SamplePlan plan,
                                               SamplerConfig config,
                                               PartitionedSamplerOptions opts)
    : PlanSampler(std::move(graph), std::move(plan), std::move(config),
                  {.optimize = false}),
      opts_(opts),
      dist_adj_(grid, this->graph().adjacency()) {}

std::vector<std::vector<MinibatchSample>> PartitionedSamplerBase::sample_bulk(
    Cluster& cluster, const std::vector<std::vector<index_t>>& batches,
    const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed,
    std::span<const index_t> row_batches) const {
  check(batches.size() == batch_ids.size(), "sample_bulk: ids/batches mismatch");
  const ProcessGrid& grid = dist_adj_.grid();
  check(grid.size() <= cluster.size(),
        "sample_bulk: the sampler's grid has more ranks than the cluster");
  // Batches are block-assigned to *alive* process rows (a row is alive while
  // it has a keeper, an alive replica among global ranks of the sampler's
  // grid). Without row_batches they are split evenly: with no crashes this
  // reproduces the balanced BlockPartition exactly, and after a crash the
  // dead rows get zero-width blocks. Sample content is unchanged either
  // way, because randomness derives from global batch ids, never from the
  // row assignment (the determinism contract).
  const auto n = static_cast<index_t>(batches.size());
  const index_t rows = grid.rows();
  std::vector<char> alive_row(static_cast<std::size_t>(rows), 0);
  index_t num_alive_rows = 0;
  for (index_t i = 0; i < rows; ++i) {
    alive_row[static_cast<std::size_t>(i)] =
        row_keepers(cluster, grid, static_cast<int>(i)).empty() ? 0 : 1;
    num_alive_rows += alive_row[static_cast<std::size_t>(i)];
  }
  check(num_alive_rows > 0 || n == 0,
        "sample_bulk: every process row has crashed — nothing can sample");
  check(row_batches.empty() || row_batches.size() == static_cast<std::size_t>(rows),
        "sample_bulk: need one batch count per process row");
  std::vector<index_t> offsets(static_cast<std::size_t>(rows) + 1, 0);
  index_t placed = 0, alive_seen = 0;
  for (index_t i = 0; i < rows; ++i) {
    const bool alive = alive_row[static_cast<std::size_t>(i)] != 0;
    index_t width = 0;
    if (!row_batches.empty()) {
      width = row_batches[static_cast<std::size_t>(i)];
      check(width >= 0 && (alive || width == 0),
            "sample_bulk: a dead process row cannot take batches");
    } else if (alive) {
      width = n / num_alive_rows + (alive_seen < n % num_alive_rows ? 1 : 0);
      ++alive_seen;
    }
    placed += width;
    offsets[static_cast<std::size_t>(i) + 1] = placed;
  }
  check(placed == n, "sample_bulk: per-row batch counts must sum to the batch count");
  const BlockPartition assign = BlockPartition::from_offsets(std::move(offsets));
  return executor().run_partitioned(cluster, dist_adj_, assign, batches,
                                    batch_ids, epoch_seed, run_state(),
                                    opts_.sparsity_aware, global_weights());
}

std::vector<MinibatchSample> PartitionedSamplerBase::sample_bulk(
    const std::vector<std::vector<index_t>>& batches,
    const std::vector<index_t>& batch_ids, std::uint64_t epoch_seed) const {
  std::vector<std::vector<MinibatchSample>> per_row;
  if (bound_cluster_ != nullptr) {
    per_row = sample_bulk(*bound_cluster_, batches, batch_ids, epoch_seed);
  } else {
    Cluster ephemeral(grid(), CostModel(LinkParams{}));
    per_row = sample_bulk(ephemeral, batches, batch_ids, epoch_seed);
  }
  std::vector<MinibatchSample> flat;
  flat.reserve(batches.size());
  for (auto& row : per_row) {
    for (auto& ms : row) flat.push_back(std::move(ms));
  }
  return flat;
}

}  // namespace dms
