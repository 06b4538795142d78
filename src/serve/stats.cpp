#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>

namespace dms {

double percentile(std::vector<double> sample, double q) {
  check(q >= 0.0 && q <= 100.0, "percentile: q must be in [0, 100]");
  // An empty sample reports 0 rather than throwing: percentile feeds
  // summary paths (stats dumps, bench tables) that legitimately run before
  // any request completes — a reset-then-report sequence used to crash.
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  // Nearest-rank: the smallest value with at least q% of the sample at or
  // below it.
  const auto n = sample.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  return sample[rank == 0 ? 0 : rank - 1];
}

void ServeStats::record(const BatchRecord& batch,
                        const std::vector<RequestRecord>& reqs) {
  check(batch.requests == reqs.size(),
        "ServeStats::record: batch size does not match request records");
  batches_.push_back(batch);
  sampling_ += batch.sampling;
  fetch_ += batch.fetch;
  inference_ += batch.inference;
  requests_.insert(requests_.end(), reqs.begin(), reqs.end());
}

void ServeStats::record_shed(const ShedRecord& shed) {
  check(shed.shed_at >= shed.arrival,
        "ServeStats::record_shed: shed before arrival");
  sheds_.push_back(shed);
}

std::size_t ServeStats::num_shed(ShedReason reason) const {
  std::size_t n = 0;
  for (const ShedRecord& s : sheds_) n += s.reason == reason ? 1 : 0;
  return n;
}

void ServeStats::reset() {
  requests_.clear();
  batches_.clear();
  sheds_.clear();
  sampling_ = fetch_ = inference_ = 0.0;
}

double ServeStats::mean_batch_size() const {
  if (batches_.empty()) return 0.0;
  return static_cast<double>(requests_.size()) /
         static_cast<double>(batches_.size());
}

double ServeStats::latency_percentile(double q) const {
  std::vector<double> lat;
  lat.reserve(requests_.size());
  for (const RequestRecord& r : requests_) lat.push_back(r.total());
  return percentile(std::move(lat), q);
}

double ServeStats::queue_wait_percentile(double q) const {
  std::vector<double> w;
  w.reserve(requests_.size());
  for (const RequestRecord& r : requests_) w.push_back(r.queue_wait);
  return percentile(std::move(w), q);
}

}  // namespace dms
