// Request admission and coalescing for online serving (DESIGN.md §10).
//
// A serving request is a small seed set (the user vertices) that needs a
// sampled neighborhood plus a forward pass at low latency. The paper's bulk
// formulation makes N concurrent requests exactly as cheap to sample as one
// stacked-frontier plan execution (Eq. 1 stacks per-batch frontiers of any
// size), so the serving layer's whole job is deciding *which* requests share
// a bulk: the Coalescer buffers arrivals in a RequestQueue and closes a
// CoalescedBatch when either (a) `max_requests` are waiting (the batch cap)
// or (b) the oldest request has waited `window` seconds (the latency
// deadline). window = 0 degrades to serve-on-arrival (only simultaneous
// arrivals and backlog accumulated behind a busy server coalesce);
// max_requests = 1 degrades to strict batch-size-1 serving.
//
// The coalescer is clock-driven, not thread-driven: requests carry arrival
// timestamps on the caller's serve clock and pop(now) is a pure function of
// the queue contents and `now`. That keeps admission deterministic — the
// bench's open-loop arrival process and the tests replay identical batching
// decisions on every run — in the same spirit as the simulated-cluster
// clock (§2).
//
// Degradation (DESIGN.md §13) enters at two points: push() is the one
// admission path and refuses an arrival once max_pending requests wait, and
// pop(now, shed_overdue) drops overdue requests when the caller's health
// state says so (HealthMonitor::shed_overdue).
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/types.hpp"
#include "serve/stats.hpp"

namespace dms {

/// One online inference request.
struct ServeRequest {
  /// Global request id; seeds the request's sampling randomness exactly as
  /// a global batch id does in training, which is what makes a coalesced
  /// request bit-identical to the same request served alone.
  index_t id = 0;
  /// Seed vertices needing predictions (heterogeneous sizes coalesce).
  std::vector<index_t> seeds;
  /// Arrival timestamp on the serve clock, seconds.
  double arrival = 0.0;
  /// Absolute latest useful completion instant on the serve clock; 0 = no
  /// deadline. Under degraded health a request still queued past its
  /// deadline is shed at batch formation instead of served.
  double deadline = 0.0;
};

/// Admission policy knobs.
struct CoalescerConfig {
  /// Maximum time the oldest queued request may wait before its batch is
  /// closed (the deadline). 0 = close as soon as the oldest request could
  /// be served.
  double window = 0.0;
  /// Batch cap: a batch closes immediately once this many requests are
  /// queued; overflow beyond the cap splits into further batches. >= 1.
  index_t max_requests = 1;
  /// Bounded-queue capacity: push() refuses arrivals beyond this many
  /// pending requests (the caller records ShedReason::kQueueFull).
  /// 0 = unbounded.
  index_t max_pending = 0;
};

/// One admission decision: the requests that will share a bulk execution,
/// plus any requests dropped while forming it.
struct CoalescedBatch {
  std::vector<ServeRequest> requests;
  /// Requests shed at formation (only when pop was asked to shed overdue
  /// requests): their deadline passed while they queued. The caller
  /// forwards these to ServeStats::record_shed.
  std::vector<ShedRecord> shed;
  /// The instant the batch was closed (the pop(now) argument); per-request
  /// queue wait is measured from arrival to the batch's service start.
  double formed_at = 0.0;

  bool empty() const { return requests.empty(); }
  std::size_t size() const { return requests.size(); }
};

/// FIFO arrival buffer. Arrivals must be pushed in non-decreasing arrival
/// order (the serve clock is monotonic); each request needs at least one
/// in-range seed checked by the engine at service time.
class RequestQueue {
 public:
  void push(ServeRequest r);
  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }
  const ServeRequest& front() const;
  /// The i-th oldest queued request (i < size()).
  const ServeRequest& at(std::size_t i) const;
  ServeRequest pop_front();

 private:
  std::deque<ServeRequest> q_;
  double last_arrival_ = 0.0;
};

class Coalescer {
 public:
  explicit Coalescer(CoalescerConfig cfg);

  const CoalescerConfig& config() const { return cfg_; }

  /// Enqueues an arrival (non-decreasing arrival order) unless max_pending
  /// > 0 and the queue is already at capacity, in which case the request is
  /// dropped and false returned (the caller records a ShedReason::kQueueFull
  /// shed).
  bool push(ServeRequest r);

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

  /// Earliest instant the admission policy closes the next batch: the
  /// oldest request's deadline (arrival + window), pulled earlier to the
  /// cap-th queued request's arrival when the cap fills before the deadline
  /// — filling the cap can only hasten a batch, never delay one past the
  /// deadline. Requires a non-empty queue. A caller whose server frees
  /// later than ready_at() simply pops then — backlog coalesces naturally.
  double ready_at() const;

  /// Closes a batch at `now`: up to max_requests requests with
  /// arrival <= now, oldest first. Requires now >= ready_at(). Requests
  /// arriving after `now` stay queued for the next batch. With
  /// `shed_overdue` (the degraded health states), queued requests whose
  /// deadline passed are moved to the batch's `shed` list
  /// (ShedReason::kDeadlineExceeded) instead of its `requests`: they do not
  /// count against the cap, so shedding frees the slot for a servable
  /// request. Requests without a deadline are never shed.
  CoalescedBatch pop(double now, bool shed_overdue = false);

 private:
  CoalescerConfig cfg_;
  RequestQueue queue_;
};

}  // namespace dms
