// Per-request latency accounting for the serving subsystem (DESIGN.md §10),
// layered on the phase conventions of EpochStats: the engine times each
// coalesced batch's sampling / fetch / inference phases (host wall-clock,
// like the plan executor's per-op table) and attributes to every request in
// the batch its queue wait (arrival → batch service start) plus the full
// batch service time — requests in one bulk complete together, so the
// batch's service time IS each member's service latency. Percentiles are
// computed over the completed-request records of a run.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace dms {

/// One completed request's latency breakdown (seconds).
struct RequestRecord {
  index_t request_id = 0;
  std::size_t batch_size = 0;  ///< how many requests shared its bulk
  double queue_wait = 0.0;     ///< arrival → batch service start
  double service = 0.0;        ///< its batch's sampling + fetch + inference
  double total() const { return queue_wait + service; }
};

/// One coalesced batch's phase breakdown (host wall-clock seconds).
struct BatchRecord {
  std::size_t requests = 0;
  double sampling = 0.0;   ///< bulk plan execution (sample_bulk)
  double fetch = 0.0;      ///< feature-row gather through the store
  double inference = 0.0;  ///< forward passes + demux
  double service() const { return sampling + fetch + inference; }
};

/// Why a request was dropped instead of served (DESIGN.md §13 graceful
/// degradation): the two shedding decisions are made at opposite ends of the
/// queue — kQueueFull rejects an arrival into a full bounded queue,
/// kDeadlineExceeded drops a queued request whose deadline passed before its
/// batch formed (serving it would waste a bulk slot on an answer the client
/// already gave up on).
enum class ShedReason { kQueueFull, kDeadlineExceeded };

/// One shed request. shed_at - arrival is the time the request spent queued
/// before the drop decision (0 for admission-time rejections).
struct ShedRecord {
  index_t request_id = 0;
  double arrival = 0.0;
  double shed_at = 0.0;
  ShedReason reason = ShedReason::kQueueFull;
};

/// Aggregates a serving run. The engine records one BatchRecord per
/// coalesced bulk and one RequestRecord per member request; accessors
/// summarize latency percentiles and phase totals.
class ServeStats {
 public:
  void record(const BatchRecord& batch, const std::vector<RequestRecord>& reqs);
  /// Records a dropped request (admission rejection or deadline shed).
  void record_shed(const ShedRecord& shed);
  void reset();

  std::size_t num_requests() const { return requests_.size(); }
  std::size_t num_batches() const { return batches_.size(); }
  std::size_t num_shed() const { return sheds_.size(); }
  std::size_t num_shed(ShedReason reason) const;
  const std::vector<RequestRecord>& requests() const { return requests_; }
  const std::vector<BatchRecord>& batches() const { return batches_; }
  const std::vector<ShedRecord>& sheds() const { return sheds_; }

  /// Cumulative phase seconds across all batches (the EpochStats-style
  /// coarse breakdown: sampling / fetch / inference).
  double sampling_seconds() const { return sampling_; }
  double fetch_seconds() const { return fetch_; }
  double inference_seconds() const { return inference_; }
  /// Total service seconds (the server-busy time of the run).
  double service_seconds() const { return sampling_ + fetch_ + inference_; }

  /// Mean coalesced batch size (requests per bulk); 0 with no batches.
  double mean_batch_size() const;

  /// Nearest-rank percentile (q in [0, 100]) of end-to-end request latency
  /// (queue wait + service). 0 with no recorded requests.
  double latency_percentile(double q) const;
  /// Nearest-rank percentile of queue wait alone.
  double queue_wait_percentile(double q) const;

  double p50() const { return latency_percentile(50.0); }
  double p95() const { return latency_percentile(95.0); }
  double p99() const { return latency_percentile(99.0); }

 private:
  std::vector<RequestRecord> requests_;
  std::vector<BatchRecord> batches_;
  std::vector<ShedRecord> sheds_;
  double sampling_ = 0.0;
  double fetch_ = 0.0;
  double inference_ = 0.0;
};

/// Nearest-rank percentile over an unsorted sample (q in [0, 100]); exposed
/// for the bench's throughput tables. 0 on an empty sample (summary paths
/// may run before any request completes).
double percentile(std::vector<double> sample, double q);

}  // namespace dms
