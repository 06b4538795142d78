#include "serve/health.hpp"

namespace dms {

namespace {

/// Enter kDegraded at >= kDegradedEnter pressure; leave it (back to
/// kHealthy) only at <= kDegradedExit.
constexpr double kDegradedEnter = 0.5;
constexpr double kDegradedExit = 0.25;
/// Enter kShedding at >= kShedEnter pressure; step back down to kDegraded
/// only at <= kShedExit.
constexpr double kShedEnter = 0.9;
constexpr double kShedExit = 0.5;
static_assert(0.0 <= kDegradedExit && kDegradedExit < kDegradedEnter &&
                  kDegradedEnter <= kShedEnter && kShedEnter <= 1.0 &&
                  0.0 <= kShedExit && kShedExit < kShedEnter,
              "health thresholds: each exit below its enter, degraded entered "
              "at or below shedding, all within [0, 1]");

}  // namespace

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kShedding:
      return "shedding";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(HealthConfig cfg) : cfg_(cfg) {
  check(cfg_.queue_capacity >= 1, "HealthMonitor: queue_capacity must be >= 1");
}

HealthState HealthMonitor::observe(std::size_t pending) {
  pressure_ = static_cast<double>(pending) /
              static_cast<double>(cfg_.queue_capacity);
  const HealthState before = state_;
  switch (state_) {
    case HealthState::kHealthy:
      if (pressure_ >= kShedEnter) {
        state_ = HealthState::kShedding;
      } else if (pressure_ >= kDegradedEnter) {
        state_ = HealthState::kDegraded;
      }
      break;
    case HealthState::kDegraded:
      if (pressure_ >= kShedEnter) {
        state_ = HealthState::kShedding;
      } else if (pressure_ <= kDegradedExit) {
        state_ = HealthState::kHealthy;
      }
      break;
    case HealthState::kShedding:
      // Recovery steps down one level at a time: even a briefly empty queue
      // passes through kDegraded first, so the shed→admit flip and the
      // resume of deadline service never happen on the same observation.
      if (pressure_ <= kShedExit) {
        state_ = HealthState::kDegraded;
      }
      break;
  }
  if (state_ != before) ++transitions_;
  return state_;
}

}  // namespace dms
