#include "common/threadpool.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace dms {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(0, num_threads - 1);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || (!tasks_.empty() && epoch_ != seen_epoch); });
      if (stop_ && tasks_.empty()) return;
      if (tasks_.empty()) { seen_epoch = epoch_; continue; }
      task = tasks_.back();
      tasks_.pop_back();
    }
    try {
      for (index_t i = task.begin; i < task.end; ++i) (*task.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(index_t n, const std::function<void(index_t)>& fn) {
  if (n <= 0) return;
  const int threads = size();
  if (threads <= 1 || n == 1) {
    for (index_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const index_t chunks = std::min<index_t>(n, threads);
  const index_t chunk_size = ceil_div(n, chunks);
  // The caller executes chunk 0; the pool executes the rest.
  {
    std::lock_guard<std::mutex> lock(mu_);
    error_ = nullptr;
    for (index_t c = 1; c < chunks; ++c) {
      Task t;
      t.fn = &fn;
      t.begin = c * chunk_size;
      t.end = std::min<index_t>(n, (c + 1) * chunk_size);
      if (t.begin < t.end) {
        tasks_.push_back(t);
        ++pending_;
      }
    }
    ++epoch_;
  }
  cv_.notify_all();
  std::exception_ptr local_error;
  try {
    for (index_t i = 0; i < std::min<index_t>(chunk_size, n); ++i) fn(i);
  } catch (...) {
    local_error = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    if (!local_error && error_) local_error = error_;
  }
  if (local_error) std::rethrow_exception(local_error);
}

int ThreadPool::resolve_pool_size(const char* env, int hardware) {
  const int fallback = std::max(1, hardware);
  if (env == nullptr) return fallback;
  // Parse strictly: a typo ("4x", "O4") falls back with a warning.
  errno = 0;
  char* end = nullptr;
  const long n = std::strtol(env, &end, 10);
  const bool integer = end != env && *end == '\0';
  if (!integer || errno == ERANGE || n <= 0 || n > INT_MAX) {
    std::fprintf(stderr, "[dms] DMS_THREADS='%s' is %s; using %d threads\n", env,
                 integer ? "out of range (need a positive int)" : "not an integer",
                 fallback);
    return fallback;
  }
  return static_cast<int>(n);
}

ThreadPool& ThreadPool::global() {
  // DMS_THREADS pins the pool size (CI runs the pipeline suites at 1 and 4
  // to lock in thread-count determinism); default is the hardware size.
  static ThreadPool pool(resolve_pool_size(
      std::getenv("DMS_THREADS"),
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()))));
  return pool;
}

}  // namespace dms
