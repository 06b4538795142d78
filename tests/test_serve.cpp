// Online serving subsystem (DESIGN.md §10): clock-driven coalescing policy,
// the serving identity (a coalesced request's prediction is bit-identical to
// the same request served alone, across every sampler kind and execution
// mode), steady-state workspace stability after warmup, and the per-request
// latency ledger.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "nn/model.hpp"
#include "plan/optimize.hpp"
#include "serve/engine.hpp"
#include "serve/health.hpp"
#include "test_util.hpp"

namespace dms {
namespace {

Graph serve_graph() { return generate_erdos_renyi(120, 8.0, 41); }

DenseF random_features(index_t rows, index_t dim, std::uint64_t seed) {
  DenseF f(rows, dim);
  Pcg32 rng(seed, 0xfea7);
  for (index_t i = 0; i < rows; ++i) {
    for (index_t j = 0; j < dim; ++j) {
      f(i, j) = static_cast<float>(rng.uniform() - 0.5);
    }
  }
  return f;
}

ModelConfig serve_model_config() {
  ModelConfig mc;
  mc.in_dim = 8;
  mc.hidden = 16;
  mc.num_classes = 4;
  mc.num_layers = 2;
  mc.seed = 11;
  return mc;
}

ServeEngineConfig engine_config(SamplerKind kind, DistMode mode) {
  ServeEngineConfig cfg;
  cfg.sampler = kind;
  cfg.mode = mode;
  cfg.fanouts = {4, 3};
  return cfg;
}

ServeRequest make_request(index_t id, std::vector<index_t> seeds,
                          double arrival) {
  ServeRequest r;
  r.id = id;
  r.seeds = std::move(seeds);
  r.arrival = arrival;
  return r;
}

/// Exact (bit-level) equality — the serving identity is not approximate.
void expect_bit_identical(const DenseF& a, const DenseF& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << what << " at (" << i << ", " << j << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Coalescing policy.

TEST(RequestQueue, FifoAndMonotonicArrivals) {
  RequestQueue q;
  q.push(make_request(7, {0}, 1.0));
  q.push(make_request(3, {1}, 1.0));  // equal arrivals are fine
  q.push(make_request(9, {2}, 2.5));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.front().id, 7);
  EXPECT_EQ(q.at(2).id, 9);
  EXPECT_THROW(q.push(make_request(1, {3}, 2.0)), DmsError);  // clock ran back
  EXPECT_EQ(q.pop_front().id, 7);
  EXPECT_EQ(q.pop_front().id, 3);
  EXPECT_EQ(q.pop_front().id, 9);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.pop_front(), DmsError);
}

TEST(Coalescer, EmptyWindowServesOnArrival) {
  Coalescer c({/*window=*/0.0, /*max_requests=*/4});
  c.push(make_request(0, {5}, 1.0));
  EXPECT_DOUBLE_EQ(c.ready_at(), 1.0);  // no deadline slack: ready immediately
  const CoalescedBatch b = c.pop(1.0);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_DOUBLE_EQ(b.formed_at, 1.0);
  EXPECT_TRUE(c.empty());
  // Simultaneous arrivals still share a bulk even with window = 0.
  c.push(make_request(1, {6}, 2.0));
  c.push(make_request(2, {7}, 2.0));
  EXPECT_EQ(c.pop(2.0).size(), 2u);
}

TEST(Coalescer, SingleRequestWaitsForItsDeadline) {
  Coalescer c({/*window=*/0.5, /*max_requests=*/8});
  c.push(make_request(4, {9}, 2.0));
  EXPECT_DOUBLE_EQ(c.ready_at(), 2.5);
  EXPECT_THROW(c.pop(2.2), DmsError);  // deadline not reached, cap not met
  const CoalescedBatch b = c.pop(2.5);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.requests[0].id, 4);
  EXPECT_DOUBLE_EQ(b.formed_at, 2.5);
}

TEST(Coalescer, CapOverflowSplitsIntoTwoBatches) {
  Coalescer c({/*window=*/10.0, /*max_requests=*/2});
  c.push(make_request(0, {1}, 0.0));
  c.push(make_request(1, {2}, 0.1));
  c.push(make_request(2, {3}, 0.2));
  // Cap met at the second arrival; the batch closes there, not at the
  // deadline.
  EXPECT_DOUBLE_EQ(c.ready_at(), 0.1);
  const CoalescedBatch first = c.pop(0.1);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first.requests[0].id, 0);
  EXPECT_EQ(first.requests[1].id, 1);
  // The overflow request runs in a second bulk round on its own deadline.
  EXPECT_EQ(c.pending(), 1u);
  EXPECT_DOUBLE_EQ(c.ready_at(), 10.2);
  const CoalescedBatch second = c.pop(10.2);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second.requests[0].id, 2);
}

TEST(Coalescer, FutureArrivalsStayQueued) {
  // pop(now) must not reach past the clock even when the cap allows it.
  Coalescer c({/*window=*/0.0, /*max_requests=*/4});
  c.push(make_request(0, {1}, 0.0));
  c.push(make_request(1, {2}, 5.0));
  EXPECT_DOUBLE_EQ(c.ready_at(), 0.0);
  const CoalescedBatch b = c.pop(0.0);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.requests[0].id, 0);
  EXPECT_EQ(c.pending(), 1u);
}

TEST(Coalescer, ServerBusyDrainAdmitsFifoPrefixUpToCap) {
  // Regression for the server-busy drain: when the clock has run far past
  // several deadlines (the server was busy with a previous bulk), pop(now)
  // must admit exactly the first max_requests FIFO arrivals with
  // arrival <= now — not every overdue request, and never out of order.
  const auto fill = [](Coalescer& c) {
    for (index_t i = 0; i < 5; ++i) {
      c.push(make_request(i, {i}, 0.1 * static_cast<double>(i)));
    }
  };
  Coalescer c({/*window=*/0.05, /*max_requests=*/3});
  fill(c);
  const CoalescedBatch first = c.pop(10.0);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first.requests[0].id, 0);
  EXPECT_EQ(first.requests[1].id, 1);
  EXPECT_EQ(first.requests[2].id, 2);
  EXPECT_DOUBLE_EQ(first.formed_at, 10.0);
  EXPECT_EQ(c.pending(), 2u);
  const CoalescedBatch second = c.pop(10.0);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second.requests[0].id, 3);
  EXPECT_EQ(second.requests[1].id, 4);
  EXPECT_EQ(c.pending(), 0u);
  // pop is a pure function of (queue, clock): replaying the same arrivals
  // against the same clock reproduces the same batch composition.
  Coalescer replay({/*window=*/0.05, /*max_requests=*/3});
  fill(replay);
  const CoalescedBatch again = replay.pop(10.0);
  ASSERT_EQ(again.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(again.requests[i].id, first.requests[i].id);
  }
  // A request still in the future stays queued even under a stale clock.
  replay.push(make_request(9, {1}, 20.0));
  const CoalescedBatch drained = replay.pop(10.0);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(replay.pending(), 1u);
}

TEST(Coalescer, RejectsDegenerateConfigs) {
  EXPECT_THROW(Coalescer({0.0, 0}), DmsError);
  EXPECT_THROW(Coalescer({-1.0, 1}), DmsError);
  Coalescer ok({0.0, 1});
  EXPECT_THROW(ok.ready_at(), DmsError);  // empty queue has no next batch
  EXPECT_THROW(ok.pop(0.0), DmsError);
}

TEST(Coalescer, DuplicateTimestampsDrainInFifoOrder) {
  // Many requests arriving at the same instant must batch in push order,
  // split cleanly at the cap, and never starve the tail.
  Coalescer c({/*window=*/0.2, /*max_requests=*/3});
  for (index_t i = 0; i < 7; ++i) c.push(make_request(i, {i}, 1.0));
  EXPECT_DOUBLE_EQ(c.ready_at(), 1.0);  // cap met by the 3rd identical stamp
  index_t next = 0;
  while (!c.empty()) {
    // The final partial batch (1 request < cap) waits out its window.
    const CoalescedBatch b = c.pop(std::max(1.0, c.ready_at()));
    ASSERT_FALSE(b.empty());
    for (const ServeRequest& r : b.requests) EXPECT_EQ(r.id, next++);
  }
  EXPECT_EQ(next, 7);  // every request served exactly once
}

TEST(Coalescer, ZeroWidthWindowWithCapOnePreservesFifoWithoutStarvation) {
  // The doubly-degenerate config: serve-on-arrival, one request per bulk.
  Coalescer c({/*window=*/0.0, /*max_requests=*/1});
  for (index_t i = 0; i < 4; ++i) {
    c.push(make_request(i, {i}, 0.5));  // identical stamps
  }
  c.push(make_request(4, {4}, 0.7));
  for (index_t expect = 0; expect < 5; ++expect) {
    ASSERT_FALSE(c.empty());
    const CoalescedBatch b = c.pop(std::max(0.7, c.ready_at()));
    ASSERT_EQ(b.size(), 1u) << "cap=1 must never coalesce";
    EXPECT_EQ(b.requests[0].id, expect);
  }
  EXPECT_TRUE(c.empty());
}

TEST(Coalescer, CapOneReadyAtIsTheFrontArrivalPlusWindow) {
  Coalescer c({/*window=*/0.3, /*max_requests=*/1});
  c.push(make_request(0, {1}, 2.0));
  c.push(make_request(1, {2}, 2.1));
  // Cap 1 is met by the front request itself: ready the instant it arrived.
  EXPECT_DOUBLE_EQ(c.ready_at(), 2.0);
  EXPECT_EQ(c.pop(2.0).requests[0].id, 0);
  EXPECT_DOUBLE_EQ(c.ready_at(), 2.1);
}

// ---------------------------------------------------------------------------
// Graceful degradation: bounded admission, deadline shedding, health machine.

TEST(Coalescer, PushBoundsTheQueue) {
  CoalescerConfig cfg;
  cfg.window = 1.0;
  cfg.max_requests = 4;
  cfg.max_pending = 2;
  Coalescer c(cfg);
  EXPECT_TRUE(c.push(make_request(0, {1}, 0.0)));
  EXPECT_TRUE(c.push(make_request(1, {2}, 0.1)));
  EXPECT_FALSE(c.push(make_request(2, {3}, 0.2)));  // full
  EXPECT_EQ(c.pending(), 2u);
  c.pop(1.0);
  EXPECT_TRUE(c.push(make_request(3, {4}, 1.5)));  // drained -> admits
  // max_pending = 0 leaves the queue unbounded.
  cfg.max_pending = 0;
  Coalescer unbounded(cfg);
  for (index_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(unbounded.push(make_request(i, {i}, 0.0)));
  }
  EXPECT_EQ(unbounded.pending(), 5u);
}

TEST(Coalescer, ShedOverdueDropsExpiredRequestsAtFormation) {
  CoalescerConfig cfg;
  cfg.window = 0.1;
  cfg.max_requests = 4;
  Coalescer c(cfg);
  ServeRequest dead = make_request(0, {1}, 0.0);
  dead.deadline = 1.0;  // will be long gone by the time the server frees
  ServeRequest live = make_request(1, {2}, 0.05);
  live.deadline = 99.0;
  ServeRequest no_deadline = make_request(2, {3}, 0.06);
  c.push(dead);
  c.push(live);
  c.push(no_deadline);
  const CoalescedBatch b = c.pop(5.0, true);  // server was busy for 5 s
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.requests[0].id, 1);
  EXPECT_EQ(b.requests[1].id, 2);  // deadline-less requests are never shed
  ASSERT_EQ(b.shed.size(), 1u);
  EXPECT_EQ(b.shed[0].request_id, 0);
  EXPECT_EQ(b.shed[0].reason, ShedReason::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(b.shed[0].shed_at, 5.0);

  // A healthy server (no shedding asked) serves the same sequence whole.
  Coalescer keep(cfg);
  keep.push(dead);
  keep.push(live);
  keep.push(no_deadline);
  const CoalescedBatch all = keep.pop(5.0);
  EXPECT_EQ(all.size(), 3u);
  EXPECT_TRUE(all.shed.empty());
}

TEST(Coalescer, ShedRequestsDoNotConsumeCapSlots) {
  CoalescerConfig cfg;
  cfg.window = 0.0;
  cfg.max_requests = 2;
  Coalescer c(cfg);
  for (index_t i = 0; i < 2; ++i) {
    ServeRequest r = make_request(i, {i}, 0.0);
    r.deadline = 0.5;
    c.push(r);
  }
  c.push(make_request(2, {2}, 0.1));
  c.push(make_request(3, {3}, 0.2));
  const CoalescedBatch b = c.pop(2.0, true);
  // Both overdue requests shed; the cap still admits two servable ones.
  ASSERT_EQ(b.shed.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.requests[0].id, 2);
  EXPECT_EQ(b.requests[1].id, 3);
}

TEST(ServeStats, ShedAccountingByReason) {
  ServeStats stats;
  stats.record_shed({7, 1.0, 1.0, ShedReason::kQueueFull});
  stats.record_shed({8, 1.0, 2.5, ShedReason::kDeadlineExceeded});
  stats.record_shed({9, 2.0, 3.0, ShedReason::kDeadlineExceeded});
  EXPECT_EQ(stats.num_shed(), 3u);
  EXPECT_EQ(stats.num_shed(ShedReason::kQueueFull), 1u);
  EXPECT_EQ(stats.num_shed(ShedReason::kDeadlineExceeded), 2u);
  EXPECT_THROW(stats.record_shed({1, 5.0, 4.0, ShedReason::kQueueFull}),
               DmsError);  // shed before arrival
  stats.reset();
  EXPECT_EQ(stats.num_shed(), 0u);
}

TEST(HealthMonitor, WalksTheStateMachineWithHysteresis) {
  HealthConfig cfg;
  cfg.queue_capacity = 10;
  HealthMonitor m(cfg);
  EXPECT_EQ(m.state(), HealthState::kHealthy);
  EXPECT_TRUE(m.admit_arrivals());
  EXPECT_FALSE(m.shed_overdue());

  EXPECT_EQ(m.observe(4), HealthState::kHealthy);   // 0.4 < enter
  EXPECT_EQ(m.observe(5), HealthState::kDegraded);  // 0.5 enters
  EXPECT_TRUE(m.shed_overdue());
  EXPECT_TRUE(m.admit_arrivals());
  EXPECT_EQ(m.observe(4), HealthState::kDegraded);  // hysteresis: 0.25 < 0.4
  EXPECT_EQ(m.observe(9), HealthState::kShedding);
  EXPECT_FALSE(m.admit_arrivals());
  EXPECT_EQ(m.observe(6), HealthState::kShedding);  // 0.6 > shed_exit
  EXPECT_EQ(m.observe(5), HealthState::kDegraded);  // steps down one level
  EXPECT_EQ(m.observe(1), HealthState::kHealthy);
  EXPECT_FALSE(m.shed_overdue());
  EXPECT_EQ(m.transitions(), 4u);
  EXPECT_STREQ(to_string(m.state()), "healthy");
}

TEST(HealthMonitor, EmptyQueueFromSheddingPassesThroughDegraded) {
  HealthConfig cfg;
  cfg.queue_capacity = 4;
  HealthMonitor m(cfg);
  m.observe(4);  // 1.0 -> shedding directly from healthy
  EXPECT_EQ(m.state(), HealthState::kShedding);
  EXPECT_EQ(m.observe(0), HealthState::kDegraded);  // one level per tick
  EXPECT_EQ(m.observe(0), HealthState::kHealthy);
}

TEST(HealthMonitor, RejectsInvertedThresholds) {
  HealthConfig bad;
  bad.queue_capacity = 0;
  EXPECT_THROW(HealthMonitor{bad}, DmsError);
}

TEST(HealthMonitor, GovernedOverloadKeepsAdmittedQueueWaitBounded) {
  // A miniature closed-form overload: arrivals at twice the service rate.
  // Ungoverned, the backlog (and thus admitted queue wait) grows linearly
  // with the run; governed by the monitor + bounded queue + deadline
  // shedding, admitted requests wait at most roughly cap * service time.
  // Each bulk serves at most 2 requests in 0.2 s (10 requests/s of
  // capacity) against arrivals every 0.05 s (20 requests/s): 2x overload.
  const double service = 0.2;
  const double interval = 0.05;
  const index_t n = 200;

  ServeStats governed, ungoverned;
  {
    // Ungoverned: unbounded queue, everything served.
    CoalescerConfig ccfg;
    ccfg.window = 0.02;
    ccfg.max_requests = 2;
    Coalescer coal(ccfg);
    double server_free = 0.0;
    for (index_t i = 0; i < n; ++i) {
      coal.push(make_request(i, {i % 100}, static_cast<double>(i) * interval));
    }
    while (!coal.empty()) {
      const double start = std::max(coal.ready_at(), server_free);
      const CoalescedBatch b = coal.pop(start);
      ASSERT_FALSE(b.empty());
      BatchRecord br;
      br.requests = b.size();
      br.inference = service;
      std::vector<RequestRecord> rr;
      for (const ServeRequest& r : b.requests) {
        rr.push_back({r.id, b.size(), start - r.arrival, service});
      }
      ungoverned.record(br, rr);
      server_free = start + service;
    }
  }
  {
    // Governed: bounded queue + health monitor + deadline shedding.
    CoalescerConfig ccfg;
    ccfg.window = 0.02;
    ccfg.max_requests = 2;
    ccfg.max_pending = 8;
    Coalescer coal(ccfg);
    HealthConfig hcfg;
    hcfg.queue_capacity = 8;
    HealthMonitor mon(hcfg);
    double server_free = 0.0;
    index_t next_arrival = 0;
    while (next_arrival < n || !coal.empty()) {
      // The next batch cannot start before the server frees, so every
      // arrival due by then reaches admission control first.
      const double now =
          coal.empty() ? std::max(static_cast<double>(next_arrival) * interval,
                                  server_free)
                       : std::max(coal.ready_at(), server_free);
      while (next_arrival < n &&
             static_cast<double>(next_arrival) * interval <= now) {
        ServeRequest r = make_request(next_arrival, {next_arrival % 100},
                                      static_cast<double>(next_arrival) * interval);
        r.deadline = r.arrival + 0.5;
        ++next_arrival;
        mon.observe(coal.pending());
        if (!mon.admit_arrivals() || !coal.push(r)) {
          governed.record_shed(
              {r.id, r.arrival, r.arrival, ShedReason::kQueueFull});
        }
      }
      if (coal.empty()) continue;
      const double start = std::max(coal.ready_at(), server_free);
      const CoalescedBatch b = coal.pop(start, mon.shed_overdue());
      for (const ShedRecord& s : b.shed) governed.record_shed(s);
      mon.observe(coal.pending());
      if (b.empty()) continue;
      BatchRecord br;
      br.requests = b.size();
      br.inference = service;
      std::vector<RequestRecord> rr;
      for (const ServeRequest& r : b.requests) {
        rr.push_back({r.id, b.size(), start - r.arrival, service});
      }
      governed.record(br, rr);
      server_free = start + service;
    }
    EXPECT_GT(mon.transitions(), 0u);
  }

  // Under 2x overload the governed server sheds real load...
  EXPECT_GT(governed.num_shed(), 0u);
  EXPECT_EQ(governed.num_requests() + governed.num_shed(),
            static_cast<std::size_t>(n));
  // ...and what it admits waits a bounded time, far below the ungoverned
  // tail (which grows linearly with the run length).
  EXPECT_LT(governed.queue_wait_percentile(99.0),
            ungoverned.queue_wait_percentile(99.0) / 2.0);
}

// ---------------------------------------------------------------------------
// Latency accounting.

TEST(ServeStats, NearestRankPercentile) {
  std::vector<double> sample;
  for (int i = 10; i >= 1; --i) sample.push_back(i);  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(sample, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(sample, 95.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(sample, 99.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(sample, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(sample, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({3.5}, 99.0), 3.5);
  EXPECT_THROW(percentile({1.0}, -1.0), DmsError);
  EXPECT_THROW(percentile({1.0}, 100.5), DmsError);
}

TEST(ServeStats, EmptySampleReportsZeroInsteadOfThrowing) {
  // Regression: summary paths run before any request completes (or right
  // after reset_stats) used to crash on "percentile: empty sample".
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  ServeStats s;
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
  EXPECT_DOUBLE_EQ(s.p99(), 0.0);
  EXPECT_DOUBLE_EQ(s.queue_wait_percentile(95.0), 0.0);
  BatchRecord b;
  b.requests = 1;
  b.sampling = 0.1;
  s.record(b, {RequestRecord{0, 1, 0.0, b.service()}});
  EXPECT_GT(s.p50(), 0.0);
  s.reset();  // reset-then-report is the sequence that crashed
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
}

TEST(ServeStats, AggregatesBatchesAndRequests) {
  ServeStats s;
  BatchRecord b1;
  b1.requests = 2;
  b1.sampling = 0.10;
  b1.fetch = 0.02;
  b1.inference = 0.03;
  RequestRecord r1{/*id=*/0, /*batch=*/2, /*wait=*/0.4, b1.service()};
  RequestRecord r2{/*id=*/1, /*batch=*/2, /*wait=*/0.1, b1.service()};
  s.record(b1, {r1, r2});
  BatchRecord b2;
  b2.requests = 1;
  b2.sampling = 0.20;
  RequestRecord r3{/*id=*/2, /*batch=*/1, /*wait=*/0.0, b2.service()};
  s.record(b2, {r3});
  EXPECT_EQ(s.num_batches(), 2u);
  EXPECT_EQ(s.num_requests(), 3u);
  EXPECT_DOUBLE_EQ(s.sampling_seconds(), 0.30);
  EXPECT_DOUBLE_EQ(s.fetch_seconds(), 0.02);
  EXPECT_DOUBLE_EQ(s.inference_seconds(), 0.03);
  EXPECT_DOUBLE_EQ(s.service_seconds(), 0.35);
  EXPECT_DOUBLE_EQ(s.mean_batch_size(), 1.5);
  // Totals: r1 = 0.55, r2 = 0.25, r3 = 0.20 → p50 is the 2nd smallest.
  EXPECT_DOUBLE_EQ(s.latency_percentile(50.0), 0.25);
  EXPECT_DOUBLE_EQ(s.queue_wait_percentile(100.0), 0.4);
  // A batch whose request-record count disagrees is a ledger bug.
  EXPECT_THROW(s.record(b1, {r1}), DmsError);
  s.reset();
  EXPECT_EQ(s.num_requests(), 0u);
  EXPECT_DOUBLE_EQ(s.service_seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// The serving identity: coalesced == individual, bit for bit, for every
// sampler kind × execution mode. Request randomness derives from the request
// id exactly as training batch randomness derives from the global batch id,
// so batching composition cannot change any request's prediction.

TEST(ServeEngine, CoalescedPredictionsMatchIndividualAcrossKindsAndModes) {
  const Graph g = serve_graph();
  const ProcessGrid grid(4, 2);
  const DenseF feats = random_features(g.num_vertices(), 8, 77);
  FeatureStore store(grid, feats);
  const SageModel model(serve_model_config());

  const std::vector<ServeRequest> requests = {
      make_request(100, {3}, 0.0),                  // singleton seed
      make_request(101, {10, 11, 12, 13, 14}, 0.2), // mid-size
      make_request(102, {55, 99}, 0.4),             // heterogeneous sizes mix
  };
  for (const SamplerKind kind :
       {SamplerKind::kGraphSage, SamplerKind::kLadies, SamplerKind::kFastGcn,
        SamplerKind::kLabor}) {
    for (const DistMode mode :
         {DistMode::kReplicated, DistMode::kPartitioned}) {
      ServeEngine engine(g, store, model, engine_config(kind, mode), &grid);
      CoalescedBatch batch;
      batch.requests = requests;
      batch.formed_at = 0.4;
      const ServeBatchResult coalesced = engine.serve(batch);
      ASSERT_EQ(coalesced.logits.size(), requests.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        ASSERT_EQ(coalesced.logits[i].rows(),
                  static_cast<index_t>(requests[i].seeds.size()));
        const DenseF alone = engine.serve_one(requests[i]);
        expect_bit_identical(coalesced.logits[i], alone,
                             std::string(to_string(kind)) + "/" +
                                 to_string(mode) + " request " +
                                 std::to_string(requests[i].id));
      }
    }
  }
}

TEST(ServeEngine, BatchCompositionDoesNotChangePredictions) {
  // The same request served inside two differently-composed batches (and by
  // a freshly built engine) yields identical bits: batching is purely a
  // throughput decision.
  const Graph g = serve_graph();
  const ProcessGrid grid(4, 2);
  const DenseF feats = random_features(g.num_vertices(), 8, 78);
  FeatureStore store(grid, feats);
  const SageModel model(serve_model_config());
  const auto cfg = engine_config(SamplerKind::kLadies, DistMode::kReplicated);

  const ServeRequest probe = make_request(500, {7, 8, 9}, 1.0);
  ServeEngine a(g, store, model, cfg, &grid);
  CoalescedBatch mixed;
  mixed.requests = {make_request(1, {0, 1}, 0.9), probe,
                    make_request(2, {2}, 1.0)};
  mixed.formed_at = 1.0;
  const DenseF in_mixed = a.serve(mixed).logits[1];

  ServeEngine b(g, store, model, cfg, &grid);
  const DenseF alone = b.serve_one(probe);
  expect_bit_identical(in_mixed, alone, "probe across batch compositions");
}

// ---------------------------------------------------------------------------
// Steady-state workspace contract.

TEST(ServeEngine, TraceReplayIsAllocationFreeAfterFreeze) {
  const Graph g = serve_graph();
  const ProcessGrid grid(4, 2);
  const DenseF feats = random_features(g.num_vertices(), 8, 79);
  FeatureStore store(grid, feats);
  const SageModel model(serve_model_config());
  ServeEngine engine(
      g, store, model,
      engine_config(SamplerKind::kGraphSage, DistMode::kReplicated), &grid);

  // A short trace of coalesced batches (the replay-warmup pattern: run the
  // trace once unfrozen to reach the high-water mark, freeze, replay).
  std::vector<CoalescedBatch> trace;
  {
    CoalescedBatch b1;
    b1.requests = {make_request(0, {1, 2, 3}, 0.0), make_request(1, {40}, 0.0)};
    CoalescedBatch b2;
    b2.requests = {make_request(2, {5, 6, 7, 8, 9, 10}, 0.1)};
    b2.formed_at = 0.1;
    CoalescedBatch b3;
    b3.requests = {make_request(3, {60, 61}, 0.2),
                   make_request(4, {70, 71, 72}, 0.2)};
    b3.formed_at = 0.2;
    trace = {b1, b2, b3};
  }
  std::vector<std::vector<DenseF>> warm_logits;
  for (const CoalescedBatch& b : trace) {
    warm_logits.push_back(engine.serve(b).logits);
  }
  engine.freeze();
  EXPECT_TRUE(engine.warmed());
  const Workspace* ws = engine.workspace();
  ASSERT_NE(ws, nullptr);
  EXPECT_TRUE(ws->frozen());
  const std::size_t frozen_bytes = ws->frozen_bytes();
  EXPECT_EQ(ws->bytes_held(), frozen_bytes);

  // Replaying the identical trace makes bit-identical kernel calls, so the
  // frozen arena must not grow — and the predictions must not change.
  for (std::size_t t = 0; t < trace.size(); ++t) {
    const ServeBatchResult replay = engine.serve(trace[t]);
    ASSERT_EQ(replay.logits.size(), warm_logits[t].size());
    for (std::size_t i = 0; i < replay.logits.size(); ++i) {
      expect_bit_identical(replay.logits[i], warm_logits[t][i],
                           "replay batch " + std::to_string(t));
    }
    EXPECT_LE(ws->bytes_held(), frozen_bytes) << "batch " << t;
  }
}

TEST(ServeEngine, WarmupFreezesAndClearsStats) {
  const Graph g = serve_graph();
  const ProcessGrid grid(4, 2);
  const DenseF feats = random_features(g.num_vertices(), 8, 80);
  FeatureStore store(grid, feats);
  const SageModel model(serve_model_config());
  ServeEngine engine(
      g, store, model,
      engine_config(SamplerKind::kFastGcn, DistMode::kReplicated), &grid);
  EXPECT_FALSE(engine.warmed());
  engine.warmup({{0, 1, 2, 3}, {10, 11}});
  EXPECT_TRUE(engine.warmed());
  EXPECT_TRUE(engine.workspace()->frozen());
  // Warmup traffic never leaks into the serving ledger.
  EXPECT_EQ(engine.stats().num_requests(), 0u);
  engine.serve_one(make_request(0, {2, 3}, 0.0));
  EXPECT_EQ(engine.stats().num_requests(), 1u);
  EXPECT_EQ(engine.stats().num_batches(), 1u);
}

// ---------------------------------------------------------------------------
// Engine accounting and validation.

TEST(ServeEngine, RecordsQueueWaitFromArrivalToBatchFormation) {
  const Graph g = serve_graph();
  const ProcessGrid grid(4, 2);
  const DenseF feats = random_features(g.num_vertices(), 8, 81);
  FeatureStore store(grid, feats);
  const SageModel model(serve_model_config());
  ServeEngine engine(
      g, store, model,
      engine_config(SamplerKind::kGraphSage, DistMode::kReplicated), &grid);
  CoalescedBatch batch;
  batch.requests = {make_request(0, {1}, 1.0), make_request(1, {2}, 2.5)};
  batch.formed_at = 3.0;
  engine.serve(batch);
  const auto& recs = engine.stats().requests();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_NEAR(recs[0].queue_wait, 2.0, 1e-12);
  EXPECT_NEAR(recs[1].queue_wait, 0.5, 1e-12);
  EXPECT_EQ(recs[0].batch_size, 2u);
  // Requests in one bulk complete together: same service latency, and the
  // batch's phase times compose it exactly.
  EXPECT_DOUBLE_EQ(recs[0].service, recs[1].service);
  const auto& batches = engine.stats().batches();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_DOUBLE_EQ(batches[0].service(), recs[0].service);
  EXPECT_GT(engine.stats().p50(), 0.0);
  EXPECT_GE(engine.stats().p99(), engine.stats().p50());
}

TEST(ServeEngine, ReplicaEnginesShareOneOptimizedPlan) {
  // Serving replicas (and engines sharing a sampler shape with training)
  // reuse the process-wide optimized plan instead of re-running the
  // optimizer per engine — and the shared plan changes no prediction.
  PlanCache::global().clear();
  const Graph g = serve_graph();
  const ProcessGrid grid(4, 2);
  const DenseF feats = random_features(g.num_vertices(), 8, 77);
  FeatureStore store(grid, feats);
  const SageModel model(serve_model_config());
  const auto cfg = engine_config(SamplerKind::kLadies, DistMode::kReplicated);
  ServeEngine first(g, store, model, cfg);
  EXPECT_FALSE(first.plan_cache_hit());
  ServeEngine replica(g, store, model, cfg);
  EXPECT_TRUE(replica.plan_cache_hit());
  const ServeRequest req = make_request(42, {5, 17, 30}, 0.0);
  expect_bit_identical(first.serve_one(req), replica.serve_one(req),
                       "replica engines");
}

TEST(ServeEngine, RejectsMalformedBatchesAndConfigs) {
  const Graph g = serve_graph();
  const ProcessGrid grid(4, 2);
  const DenseF feats = random_features(g.num_vertices(), 8, 82);
  FeatureStore store(grid, feats);
  const SageModel model(serve_model_config());
  ServeEngine engine(
      g, store, model,
      engine_config(SamplerKind::kGraphSage, DistMode::kReplicated), &grid);
  EXPECT_THROW(engine.serve(CoalescedBatch{}), DmsError);
  CoalescedBatch no_seeds;
  no_seeds.requests = {make_request(0, {}, 0.0)};
  EXPECT_THROW(engine.serve(no_seeds), DmsError);
  CoalescedBatch time_travel;
  time_travel.requests = {make_request(0, {1}, 5.0)};
  time_travel.formed_at = 1.0;  // formed before its member arrived
  EXPECT_THROW(engine.serve(time_travel), DmsError);
  EXPECT_THROW(engine.warmup({}), DmsError);

  // Fanout depth must match the model; feature dim must match in_dim.
  auto cfg = engine_config(SamplerKind::kGraphSage, DistMode::kReplicated);
  cfg.fanouts = {4, 3, 2};
  EXPECT_THROW(ServeEngine(g, store, model, cfg, &grid), DmsError);
}

}  // namespace
}  // namespace dms
