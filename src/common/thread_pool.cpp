#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cachegen {

namespace {

thread_local bool t_in_parallel_region = false;

unsigned DefaultPoolSize() {
  if (const char* env = std::getenv("CACHEGEN_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(std::min(v, 1024L));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 4;
}

}  // namespace

struct ThreadPool::Job {
  const std::function<void(size_t)>* fn = nullptr;
  size_t n = 0;
  std::atomic<size_t> next{0};      // next index to claim
  std::atomic<size_t> pending{0};   // indices not yet finished
  std::atomic<int> slots{0};        // participant slots still open
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  // done_mu guards no data — all job state above is atomic; the pair exists
  // only so the `pending == 0` transition can wake Run()'s join wait without
  // a lost-wakeup race. Deliberately a plain std::mutex: there is nothing
  // here for the thread-safety analysis to check.
  std::mutex done_mu;
  std::condition_variable done_cv;

  bool Exhausted() const { return next.load(std::memory_order_relaxed) >= n; }
};

ThreadPool& ThreadPool::Instance() {
  static ThreadPool pool(DefaultPoolSize());
  return pool;
}

bool ThreadPool::InParallelRegion() { return t_in_parallel_region; }

ThreadPool::ThreadPool(unsigned pool_size)
    : pool_size_(pool_size == 0 ? 1 : pool_size) {
  // The caller participates in every job, so pool_size-1 background workers
  // give pool_size concurrent executors.
  const unsigned spawn = pool_size_ > 1 ? pool_size_ - 1 : 0;
  workers_.reserve(spawn);
  for (unsigned i = 0; i < spawn; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock l(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  // Explicit lock()/unlock() instead of a scoped guard: the loop drops the
  // lock around ExecuteSome, and the thread-safety analysis tracks the
  // explicit calls across the loop's join points.
  mu_.lock();
  for (;;) {
    std::shared_ptr<Job> job;
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      if ((*it)->Exhausted()) {
        it = jobs_.erase(it);
        continue;
      }
      if ((*it)->slots.load(std::memory_order_relaxed) > 0) {
        job = *it;
        break;
      }
      ++it;
    }
    if (job) {
      mu_.unlock();
      ExecuteSome(job);
      mu_.lock();
      continue;
    }
    if (stop_) {
      mu_.unlock();
      return;
    }
    cv_.Wait(mu_);
  }
}

void ThreadPool::ExecuteSome(const std::shared_ptr<Job>& job) {
  // Claim a participant slot; a saturated job needs no more executors.
  int s = job->slots.load(std::memory_order_relaxed);
  do {
    if (s <= 0) return;
  } while (!job->slots.compare_exchange_weak(s, s - 1,
                                             std::memory_order_acq_rel));

  // One span per participation (not per index): a worker's slice of a job is
  // the granularity that shows pool parallelism on the wall-clock timeline.
  CG_TRACE_SPAN("pool", "pool_task");
  const bool was_in_region = t_in_parallel_region;
  t_in_parallel_region = true;
  for (;;) {
    const size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job->n) break;
    // Prompt cancellation: check the flag before invoking fn, so a failed
    // job stops doing work as soon as in-flight calls return.
    if (!job->failed.load(std::memory_order_acquire)) {
      try {
        (*job->fn)(i);
      } catch (...) {
        if (!job->failed.exchange(true, std::memory_order_acq_rel)) {
          job->error = std::current_exception();
        }
      }
    }
    if (job->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> l(job->done_mu);
      job->done_cv.notify_all();
    }
  }
  t_in_parallel_region = was_in_region;
}

void ThreadPool::Run(size_t n, const std::function<void(size_t)>& fn,
                     unsigned max_participants) {
  if (n == 0) return;
  unsigned limit = max_participants ? std::min(max_participants, pool_size_)
                                    : pool_size_;
  if (limit > n) limit = static_cast<unsigned>(n);
  if (limit <= 1 || workers_.empty() || t_in_parallel_region) {
    // Serial path: single-executor requests, single-core pools, and nested
    // calls from inside a job (the oversubscription guard). Exceptions
    // propagate directly.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  CG_METRIC_COUNT("pool.jobs", 1);
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->pending.store(n, std::memory_order_relaxed);
  job->slots.store(static_cast<int>(limit), std::memory_order_relaxed);
  {
    MutexLock l(mu_);
    jobs_.push_back(job);
  }
  cv_.NotifyAll();

  ExecuteSome(job);

  {
    std::unique_lock<std::mutex> l(job->done_mu);
    job->done_cv.wait(l, [&] {
      return job->pending.load(std::memory_order_acquire) == 0;
    });
  }
  {
    // Drop the queue's reference; workers that still hold the job only touch
    // its atomics, never the caller-owned fn, once it is exhausted.
    MutexLock l(mu_);
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      if (*it == job) {
        jobs_.erase(it);
        break;
      }
    }
  }
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace cachegen
