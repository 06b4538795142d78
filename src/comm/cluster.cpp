#include "comm/cluster.hpp"

#include <algorithm>

namespace dms {

Cluster::Cluster(ProcessGrid grid, CostModel model)
    : grid_(grid), model_(model), st_(std::make_shared<State>(grid_.size())) {}

Cluster::Cluster(ProcessGrid grid, Cluster& parent)
    : grid_(grid), model_(parent.model_), st_(parent.st_) {
  check(grid_.size() <= st_->ranks,
        "Cluster: sub-grid view larger than its parent cluster");
}

void Cluster::add_compute(const std::string& phase, double seconds) {
  const double scaled = seconds / model_.link().compute_scale;
  st_->compute_time[phase] += scaled * st_->straggler_factor;
  if (st_->straggler_factor > 1.0) {
    st_->fault_stats.straggler_seconds += scaled * (st_->straggler_factor - 1.0);
  }
}

void Cluster::add_compute_irregular(const std::string& phase, double seconds) {
  const double scaled = seconds / model_.link().irregular_compute_scale;
  st_->compute_time[phase] += scaled * st_->straggler_factor;
  if (st_->straggler_factor > 1.0) {
    st_->fault_stats.straggler_seconds += scaled * (st_->straggler_factor - 1.0);
  }
}

void Cluster::record_comm(const std::string& phase, double seconds, std::size_t bytes,
                          std::size_t messages) {
  CommStats& s = st_->comm_stats[phase];
  s.seconds += seconds;
  s.bytes += bytes;
  s.messages += messages;
  const FaultPlan* faults = st_->faults;
  if (faults == nullptr || !faults->has_loss()) return;
  // Transient loss: this call is one communication event. Each lost attempt
  // pays a full retransmit plus the policy's backoff; the final allowed
  // attempt always delivers, so the event count and payload stay
  // deterministic. Retry time/volume lands in the phase's comm table (the
  // clock and the accounting invariants see real costs) and is additionally
  // broken out in the fault stats.
  FaultStats& fs = st_->fault_stats;
  const std::uint64_t event = st_->comm_event++;
  for (int attempt = 0; attempt + 1 < st_->recovery.max_attempts; ++attempt) {
    if (!faults->lost(event, attempt)) break;
    const double retry = seconds + st_->recovery.backoff(attempt);
    s.seconds += retry;
    s.bytes += bytes;
    s.messages += messages;
    fs.retry_seconds += retry;
    fs.retry_bytes += bytes;
    fs.retry_messages += messages;
    ++fs.lost_messages;
  }
}

void Cluster::add_overhead(const std::string& phase, double seconds) {
  st_->compute_time[phase] += seconds;  // overheads are device-side, not scaled
}

void Cluster::credit_overlap(double seconds) {
  check(seconds >= 0.0, "credit_overlap: negative overlap credit");
  st_->overlap_credit += seconds;
}

double Cluster::total_compute() const {
  double t = 0.0;
  for (const auto& [_, sec] : st_->compute_time) t += sec;
  return t;
}

double Cluster::total_comm() const {
  double t = 0.0;
  for (const auto& [_, s] : st_->comm_stats) t += s.seconds;
  return t;
}

double Cluster::phase_time(const std::string& phase) const {
  double t = 0.0;
  if (const auto it = st_->compute_time.find(phase);
      it != st_->compute_time.end()) {
    t += it->second;
  }
  if (const auto it = st_->comm_stats.find(phase);
      it != st_->comm_stats.end()) {
    t += it->second.seconds;
  }
  return t;
}

void Cluster::reset_clock() {
  st_->compute_time.clear();
  st_->comm_stats.clear();
  st_->overlap_credit = 0.0;
  // Fault state (alive set, superstep counter, fault stats) deliberately
  // survives: crashes are permanent across epochs, and fault accounting is
  // cumulative like FeatureCacheStats.
}

void Cluster::install_faults(const FaultPlan* plan, RecoveryPolicy policy) {
  check(policy.max_attempts >= 1,
        "install_faults: max_attempts must be >= 1");
  check(policy.base_backoff >= 0.0 && policy.max_backoff >= 0.0,
        "install_faults: backoff seconds must be non-negative");
  check(policy.backoff_factor >= 1.0,
        "install_faults: backoff_factor must be >= 1");
  if (plan != nullptr) {
    for (const CrashEvent& e : plan->config().crashes) {
      check(e.rank < st_->ranks,
            "install_faults: crash rank out of range for this grid");
    }
  }
  State& st = *st_;
  st.faults = plan;
  st.recovery = policy;
  st.dead.assign(static_cast<std::size_t>(st.ranks), 0);
  st.superstep = 0;
  st.comm_event = 0;
  st.straggler_factor = 1.0;
  st.fault_stats = FaultStats{};
}

index_t Cluster::begin_superstep() {
  State& st = *st_;
  const index_t idx = st.superstep++;
  if (st.faults == nullptr) return idx;
  for (const int r : st.faults->crashes_at(idx)) {
    if (st.dead[static_cast<std::size_t>(r)] == 0) {
      st.dead[static_cast<std::size_t>(r)] = 1;
      ++st.fault_stats.crashed_ranks;
    }
  }
  // The round is gated by its slowest member, so one multiplier (the max
  // over alive ranks' draws) covers every compute contribution until the
  // next boundary.
  double f = 1.0;
  if (st.faults->has_stragglers()) {
    for (int r = 0; r < st.ranks; ++r) {
      if (alive(r)) f = std::max(f, st.faults->slowdown(idx, r));
    }
  }
  st.straggler_factor = f;
  return idx;
}

int Cluster::num_alive() const {
  if (st_->dead.empty()) return grid_.size();
  int n = 0;
  for (int r = 0; r < grid_.size(); ++r) n += alive(r) ? 1 : 0;
  return n;
}

std::vector<int> Cluster::alive_ranks() const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(grid_.size()));
  for (int r = 0; r < grid_.size(); ++r) {
    if (alive(r)) out.push_back(r);
  }
  return out;
}

void Cluster::add_fault_redistribution(double seconds, std::size_t bytes) {
  check(seconds >= 0.0, "add_fault_redistribution: negative seconds");
  st_->fault_stats.redistribution_seconds += seconds;
  st_->fault_stats.redistribution_bytes += bytes;
}

bool Cluster::row_alive(int row) const {
  if (st_->dead.empty()) return true;
  for (int j = 0; j < grid_.replication(); ++j) {
    if (alive(grid_.rank_of(row, j))) return true;
  }
  return false;
}

}  // namespace dms
