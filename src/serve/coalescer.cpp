#include "serve/coalescer.hpp"

#include <algorithm>
#include <string>

namespace dms {

void RequestQueue::push(ServeRequest r) {
  check(r.arrival >= last_arrival_ || q_.empty(),
        "RequestQueue::push: arrivals must be non-decreasing (got " +
            std::to_string(r.arrival) + " after " +
            std::to_string(last_arrival_) + ")");
  last_arrival_ = r.arrival;
  q_.push_back(std::move(r));
}

const ServeRequest& RequestQueue::front() const {
  check(!q_.empty(), "RequestQueue::front: queue is empty");
  return q_.front();
}

const ServeRequest& RequestQueue::at(std::size_t i) const {
  check(i < q_.size(), "RequestQueue::at: index out of range");
  return q_[i];
}

ServeRequest RequestQueue::pop_front() {
  check(!q_.empty(), "RequestQueue::pop_front: queue is empty");
  ServeRequest r = std::move(q_.front());
  q_.pop_front();
  return r;
}

Coalescer::Coalescer(CoalescerConfig cfg) : cfg_(cfg) {
  check(cfg_.max_requests >= 1, "Coalescer: max_requests must be >= 1");
  check(cfg_.window >= 0.0, "Coalescer: window must be non-negative");
  check(cfg_.max_pending >= 0, "Coalescer: max_pending must be non-negative");
}

bool Coalescer::push(ServeRequest r) {
  if (cfg_.max_pending > 0 &&
      queue_.size() >= static_cast<std::size_t>(cfg_.max_pending)) {
    return false;
  }
  queue_.push(std::move(r));
  return true;
}

double Coalescer::ready_at() const {
  check(!queue_.empty(), "Coalescer::ready_at: no pending requests");
  // The oldest request's deadline bounds the wait; a met cap closes the
  // batch the instant the cap-th request arrived, but only ever earlier —
  // a cap filled by a far-future arrival must not delay requests whose
  // deadline already passed (the server-busy backlog case).
  const double deadline = queue_.front().arrival + cfg_.window;
  if (queue_.size() >= static_cast<std::size_t>(cfg_.max_requests)) {
    return std::min(
        deadline,
        queue_.at(static_cast<std::size_t>(cfg_.max_requests) - 1).arrival);
  }
  return deadline;
}

CoalescedBatch Coalescer::pop(double now, bool shed_overdue) {
  check(!queue_.empty(), "Coalescer::pop: no pending requests");
  check(now >= ready_at() - 1e-12,
        "Coalescer::pop: batch not ready (now " + std::to_string(now) +
            " < ready_at " + std::to_string(ready_at()) + ")");
  CoalescedBatch batch;
  batch.formed_at = now;
  while (!queue_.empty() &&
         batch.requests.size() < static_cast<std::size_t>(cfg_.max_requests) &&
         queue_.front().arrival <= now) {
    ServeRequest r = queue_.pop_front();
    if (shed_overdue && r.deadline > 0.0 && r.deadline < now) {
      // Its client gave up before the batch formed; spending a bulk slot on
      // it would only push the deadline of everything behind it.
      batch.shed.push_back(
          {r.id, r.arrival, now, ShedReason::kDeadlineExceeded});
      continue;
    }
    batch.requests.push_back(std::move(r));
  }
  return batch;
}

}  // namespace dms
