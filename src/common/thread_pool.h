// Persistent process-wide worker pool behind ParallelFor.
//
// The seed spawned (and joined) a fresh std::thread set on every ParallelFor
// call — tens of microseconds of setup per codec chunk, multiplied by every
// in-flight request once the cluster layer drives the codec concurrently.
// The pool keeps workers alive across calls: each job's indices are claimed
// one at a time from a shared atomic counter (the same static work-stealing
// loop as before), the calling thread participates alongside the workers,
// and exception semantics are unchanged — the first error wins and is
// rethrown on the calling thread. Cancellation is prompt: once a job has
// failed, remaining claimed indices are skipped *before* invoking fn.
//
// Every job is a Run, joined by its caller: the pool holds no work past the
// call that issued it, so nothing runs beside a caller that has returned.
//
// Nesting guard: a Run issued from a thread that is already executing job
// indices (a pool worker, or a caller mid-participation) executes serially
// inline, so nested parallelism cannot deadlock the pool. A thread outside
// any job — the cluster's assembly decode threads included — queues its Run
// on the pool like any caller and joins in on its own indices.
//
// Sizing: the pool targets `hardware_concurrency` concurrent executors
// (calling thread included), capped by the CACHEGEN_THREADS environment
// variable if set. Per-call caps come through Run's max_participants.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace cachegen {

class ThreadPool {
 public:
  // The process-wide pool, created lazily on first use.
  static ThreadPool& Instance();

  // True while the current thread is executing indices of some job.
  static bool InParallelRegion();

  // Invoke fn(i) for every i in [0, n) with up to max_participants
  // concurrent executors (0 = pool default). Blocks until every index has
  // run; rethrows the first worker exception.
  void Run(size_t n, const std::function<void(size_t)>& fn,
           unsigned max_participants = 0);

  // Total concurrent executors the pool targets (background workers + the
  // calling thread).
  unsigned size() const { return pool_size_; }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

 private:
  struct Job;

  explicit ThreadPool(unsigned pool_size);
  void WorkerLoop();
  static void ExecuteSome(const std::shared_ptr<Job>& job);

  unsigned pool_size_;
  std::vector<std::thread> workers_;  // written in ctor/dtor only
  Mutex mu_;
  CondVar cv_;
  std::deque<std::shared_ptr<Job>> jobs_ CG_GUARDED_BY(mu_);
  bool stop_ CG_GUARDED_BY(mu_) = false;
};

}  // namespace cachegen
