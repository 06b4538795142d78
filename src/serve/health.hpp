// Serving health-state machine (DESIGN.md §13): graceful degradation under
// overload.
//
// The monitor watches queue pressure — pending requests as a fraction of the
// configured capacity — and walks a three-state machine:
//
//   kHealthy   every arrival admitted, every queued request served;
//   kDegraded  arrivals still admitted, but requests whose deadline passed
//              while queued are shed at batch formation (the serving loop
//              passes shed_overdue() to Coalescer::pop);
//   kShedding  new arrivals are rejected outright (ShedReason::kQueueFull)
//              until the backlog drains (admit_arrivals() is false), and
//              overdue requests are still shed at formation.
//
// Transitions use hysteresis (enter thresholds above exit thresholds) so a
// queue oscillating around one level doesn't flap between policies: pressure
// must fall well below where degradation began before the monitor recovers.
// The thresholds are constants (health.cpp): kDegraded is entered at
// pressure >= 0.5 and left at <= 0.25, kShedding entered at >= 0.9 and left
// (down to kDegraded) at <= 0.5.
//
// Like the Coalescer, the monitor is clock-free and deterministic — state is
// a pure function of the observation sequence, so a replayed arrival trace
// reproduces identical admission decisions.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace dms {

enum class HealthState { kHealthy, kDegraded, kShedding };

const char* to_string(HealthState state);

struct HealthConfig {
  /// Pending-request depth that counts as 100% pressure (typically the
  /// coalescer's max_pending). >= 1.
  std::size_t queue_capacity = 64;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig cfg);

  /// Feeds one queue-depth observation; returns the (possibly changed)
  /// state. Call on every arrival and every batch formation.
  HealthState observe(std::size_t pending);

  HealthState state() const { return state_; }
  /// The last observed pressure (pending / capacity).
  double pressure() const { return pressure_; }
  const HealthConfig& config() const { return cfg_; }

  /// Policy the current state implies for the serving loop: whether to
  /// offer arrivals to Coalescer::push, and the shed_overdue argument of
  /// Coalescer::pop.
  bool admit_arrivals() const { return state_ != HealthState::kShedding; }
  bool shed_overdue() const { return state_ != HealthState::kHealthy; }

  /// State-change count (observability: a flapping monitor means the
  /// hysteresis band is too narrow for the workload).
  std::size_t transitions() const { return transitions_; }

 private:
  HealthConfig cfg_;
  HealthState state_ = HealthState::kHealthy;
  double pressure_ = 0.0;
  std::size_t transitions_ = 0;
};

}  // namespace dms
