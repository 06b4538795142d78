#include "comm/cluster.hpp"

#include <algorithm>

namespace dms {

Cluster::Cluster(ProcessGrid grid, CostModel model) : grid_(grid), model_(model) {}

void Cluster::add_compute(const std::string& phase, double seconds) {
  const double scaled = seconds / model_.link().compute_scale;
  compute_time_[phase] += scaled * straggler_factor_;
  if (straggler_factor_ > 1.0) {
    fault_stats_.straggler_seconds += scaled * (straggler_factor_ - 1.0);
  }
}

void Cluster::add_compute_irregular(const std::string& phase, double seconds) {
  const double scaled = seconds / model_.link().irregular_compute_scale;
  compute_time_[phase] += scaled * straggler_factor_;
  if (straggler_factor_ > 1.0) {
    fault_stats_.straggler_seconds += scaled * (straggler_factor_ - 1.0);
  }
}

void Cluster::record_comm(const std::string& phase, double seconds, std::size_t bytes,
                          std::size_t messages) {
  CommStats& s = comm_stats_[phase];
  s.seconds += seconds;
  s.bytes += bytes;
  s.messages += messages;
  if (faults_ == nullptr || !faults_->has_loss()) return;
  // Transient loss: this call is one communication event. Each lost attempt
  // pays a full retransmit plus the policy's backoff; the final allowed
  // attempt always delivers, so the event count and payload stay
  // deterministic. Retry time/volume lands in the phase's comm table (the
  // clock and the accounting invariants see real costs) and is additionally
  // broken out in the fault stats.
  FaultStats& fs = fault_stats_;
  const std::uint64_t event = comm_event_++;
  for (int attempt = 0; attempt + 1 < recovery_.max_attempts; ++attempt) {
    if (!faults_->lost(event, attempt)) break;
    const double retry = seconds + recovery_.backoff(attempt);
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
  compute_time_[phase] += seconds;  // overheads are device-side, not scaled
}

void Cluster::credit_overlap(double seconds) {
  check(seconds >= 0.0, "credit_overlap: negative overlap credit");
  overlap_credit_ += seconds;
}

double Cluster::total_compute() const {
  double t = 0.0;
  for (const auto& [_, sec] : compute_time_) t += sec;
  return t;
}

double Cluster::total_comm() const {
  double t = 0.0;
  for (const auto& [_, s] : comm_stats_) t += s.seconds;
  return t;
}

double Cluster::phase_time(const std::string& phase) const {
  double t = 0.0;
  if (const auto it = compute_time_.find(phase); it != compute_time_.end()) {
    t += it->second;
  }
  if (const auto it = comm_stats_.find(phase); it != comm_stats_.end()) {
    t += it->second.seconds;
  }
  return t;
}

void Cluster::reset_clock() {
  compute_time_.clear();
  comm_stats_.clear();
  overlap_credit_ = 0.0;
  // Fault state (alive set, superstep counter, fault stats) deliberately
  // survives: crashes are permanent across epochs, and fault accounting is
  // cumulative like FeatureCacheStats.
}

void Cluster::install_faults(const FaultPlan* plan, RecoveryPolicy policy) {
  check(policy.max_attempts >= 1,
        "install_faults: max_attempts must be >= 1");
  if (plan != nullptr) {
    for (const CrashEvent& e : plan->config().crashes) {
      check(e.rank < size(),
            "install_faults: crash rank out of range for this grid");
    }
  }
  faults_ = plan;
  recovery_ = policy;
  dead_.assign(static_cast<std::size_t>(size()), 0);
  superstep_ = 0;
  comm_event_ = 0;
  straggler_factor_ = 1.0;
  fault_stats_ = FaultStats{};
}

index_t Cluster::begin_superstep() {
  const index_t idx = superstep_++;
  if (faults_ == nullptr) return idx;
  for (const int r : faults_->crashes_at(idx)) {
    if (dead_[static_cast<std::size_t>(r)] == 0) {
      dead_[static_cast<std::size_t>(r)] = 1;
      ++fault_stats_.crashed_ranks;
    }
  }
  // The round is gated by its slowest member, so one multiplier (the max
  // over alive ranks' draws) covers every compute contribution until the
  // next boundary.
  double f = 1.0;
  if (faults_->has_stragglers()) {
    for (int r = 0; r < size(); ++r) {
      if (alive(r)) f = std::max(f, faults_->slowdown(idx, r));
    }
  }
  straggler_factor_ = f;
  return idx;
}

int Cluster::num_alive() const {
  if (dead_.empty()) return grid_.size();
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
  fault_stats_.redistribution_seconds += seconds;
  fault_stats_.redistribution_bytes += bytes;
}

}  // namespace dms
