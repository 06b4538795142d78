#include "train/feature_store.hpp"

#include <algorithm>
#include <utility>

#include "common/timer.hpp"

namespace dms {

FeatureStore::FeatureStore(const ProcessGrid& grid, const DenseF& features,
                           FeatureStoreOptions opts)
    : grid_(grid),
      part_(features.rows(), grid.rows()),
      dim_(features.cols()),
      opts_(std::move(opts)),
      features_(&features),
      src_rows_(features.rows()),
      caches_(static_cast<std::size_t>(grid.size()),
              FeatureRowCache(opts_.cache)) {
  check(opts_.global_ranks.empty() ||
            static_cast<int>(opts_.global_ranks.size()) == grid_.size(),
        "FeatureStore: global_ranks must map every rank of the store's grid");
}

const DenseF& FeatureStore::source() const {
#ifndef NDEBUG
  // A dangling borrow usually shows up as a moved-from or destroyed source
  // whose shape no longer matches the one captured at construction.
  check(features_->rows() == src_rows_ && features_->cols() == dim_,
        "FeatureStore: borrowed feature matrix changed shape — the source "
        "must outlive the store");
#endif
  return *features_;
}

std::size_t FeatureStore::block_bytes(index_t i) const {
  return static_cast<std::size_t>(part_.size(i)) * static_cast<std::size_t>(dim_) *
         sizeof(float);
}

std::size_t FeatureStore::cache_bytes() const {
  return caches_.empty() ? 0
                         : static_cast<std::size_t>(caches_[0].capacity()) *
                               static_cast<std::size_t>(dim_) * sizeof(float);
}

void FeatureStore::pin_rows(const std::vector<index_t>& rows) {
  for (auto& c : caches_) c.pin(rows);
}

std::size_t FeatureStore::gather_rows(int rank, const std::vector<index_t>& wanted,
                                      DenseF* out) {
  check(out != nullptr, "FeatureStore::gather_rows: output buffer required");
  check(rank >= 0 && static_cast<std::size_t>(rank) < caches_.size(),
        "FeatureStore::gather_rows: rank out of range");
  const DenseF& h = source();
  const std::size_t row_bytes = static_cast<std::size_t>(dim_) * sizeof(float);
  FeatureRowCache& cache = caches_[static_cast<std::size_t>(rank)];
  const index_t my_row = part_.parts() == 0 ? 0 : rank % part_.parts();
  out->resize(static_cast<index_t>(wanted.size()), dim_);
  std::size_t miss_bytes = 0;
  stats_.requested += wanted.size();
  for (std::size_t q = 0; q < wanted.size(); ++q) {
    const index_t v = wanted[q];
    if (v < 0 || v >= part_.total()) {
      throw DmsError("FeatureStore::gather_rows: vertex " + std::to_string(v) +
                     " out of range");
    }
    std::copy(h.row(v), h.row(v) + dim_, out->row(static_cast<index_t>(q)));
    if (part_.owner(v) == my_row) {
      ++stats_.local;
    } else if (cache.lookup(v)) {
      ++stats_.hits;
      if (cache.pinned(v)) ++stats_.pinned_hits;
      stats_.bytes_saved += row_bytes;
    } else {
      ++stats_.misses;
      miss_bytes += row_bytes;
      cache.insert(v);
    }
  }
  stats_.bytes_moved += miss_bytes;
  return miss_bytes;
}

std::vector<DenseF> FeatureStore::fetch_all(
    Cluster& cluster, const std::vector<std::vector<index_t>>& wanted,
    const std::string& phase) {
  const ProcessGrid& grid = grid_;
  check(static_cast<int>(wanted.size()) == grid.size(),
        "FeatureStore::fetch_all: need one request list per rank of the "
        "store's grid");
  const CostModel& model = cluster.cost_model();
  const DenseF& h = source();
  const std::size_t row_bytes = static_cast<std::size_t>(dim_) * sizeof(float);

  std::vector<DenseF> out(wanted.size());
  double max_gather = 0.0;
  double worst_column_comm = 0.0;
  std::size_t total_bytes = 0;
  std::size_t total_msgs = 0;

  // The all-to-allv is column-local: ranks in column j exchange rows among
  // themselves (each column holds all of H).
  for (int j = 0; j < grid.replication(); ++j) {
    const std::vector<int> col = grid.col_ranks(j);
    const auto nranks = col.size();
    std::vector<std::vector<std::size_t>> send_bytes(
        nranks, std::vector<std::size_t>(nranks, 0));

    for (std::size_t ii = 0; ii < nranks; ++ii) {
      const int rank = col[ii];
      const int my_row = grid.row_of(rank);
      FeatureRowCache& cache = caches_[static_cast<std::size_t>(rank)];
      Timer t;
      const auto& req = wanted[static_cast<std::size_t>(rank)];
      stats_.requested += req.size();
      DenseF gathered(static_cast<index_t>(req.size()), dim_);
      for (std::size_t q = 0; q < req.size(); ++q) {
        const index_t v = req[q];
        if (v < 0 || v >= part_.total()) {
          throw DmsError("FeatureStore::fetch_all: vertex " + std::to_string(v) +
                         " out of range [0, " + std::to_string(part_.total()) + ")");
        }
        std::copy(h.row(v), h.row(v) + dim_, gathered.row(static_cast<index_t>(q)));
        const index_t owner_row = part_.owner(v);
        if (owner_row == my_row) {
          ++stats_.local;
        } else if (cache.lookup(v)) {
          ++stats_.hits;
          if (cache.pinned(v)) ++stats_.pinned_hits;
          stats_.bytes_saved += row_bytes;
        } else {
          // Row shipped from (owner_row, j) to (my_row, j); now resident.
          ++stats_.misses;
          send_bytes[static_cast<std::size_t>(owner_row)][ii] += row_bytes;
          cache.insert(v);
        }
      }
      out[static_cast<std::size_t>(rank)] = std::move(gathered);
      max_gather = std::max(max_gather, t.seconds());
    }

    // Cost-model ranks: translate the store's local ranks onto the cluster's
    // ids so link classification (intra/inter node) matches where those
    // ranks actually live (identity when global_ranks is empty).
    std::vector<int> cost_col = col;
    if (!opts_.global_ranks.empty()) {
      for (auto& r : cost_col) {
        r = opts_.global_ranks[static_cast<std::size_t>(r)];
      }
    }
    const double t_col = model.alltoallv(cost_col, send_bytes);
    worst_column_comm = std::max(worst_column_comm, t_col);
    for (const auto& rowvec : send_bytes) {
      for (const std::size_t b : rowvec) {
        if (b > 0) {
          total_bytes += b;
          ++total_msgs;
        }
      }
    }
  }

  stats_.bytes_moved += total_bytes;
  cluster.add_compute(phase, max_gather);
  cluster.record_comm(phase, worst_column_comm, total_bytes, total_msgs);
  return out;
}

}  // namespace dms
