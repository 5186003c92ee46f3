// Clang thread-safety ("capability") annotations + annotated lock primitives.
//
// Under clang with -Wthread-safety (the CACHEGEN_ANALYZE=ON CI job builds
// with -Wthread-safety -Werror) every access to a CG_GUARDED_BY member is
// checked at compile time against the set of capabilities (locks) held at
// that program point, and every CG_REQUIRES / CG_EXCLUDES contract on a
// function is checked at each call site. Off clang (g++, MSVC) every macro
// expands to nothing, so the annotations are free documentation.
//
// libstdc++'s std::mutex is not annotated, so annotated code must lock
// through the wrappers below:
//
//   Mutex      — std::mutex carrying the CAPABILITY attribute; lock()/
//                unlock()/try_lock() are ACQUIRE/RELEASE/TRY_ACQUIRE so the
//                analysis tracks explicit (including mid-function) lock and
//                unlock calls.
//   MutexLock  — scoped lock_guard equivalent (SCOPED_CAPABILITY).
//   CondVar    — std::condition_variable wait bound to a Mutex. There is no
//                predicate-lambda overload on purpose: the analysis checks a
//                lambda body as a separate function that does NOT hold the
//                lock, so waits must be written as explicit loops:
//                    while (!ready_) cv_.Wait(mu_);
//
// Conventions (see README "Static analysis"):
//   * every member protected by a mutex is CG_GUARDED_BY(that mutex);
//   * private helpers called with the lock held are named ...Locked and
//     annotated CG_REQUIRES(mu_);
//   * public entry points of a layer that must NOT be entered with the
//     layer lock held (because they do I/O or call back out) are
//     CG_EXCLUDES(mu_) — this encodes the PR 7 rule that PrefixCache never
//     holds its layer mutex across inner-tier I/O;
//   * CG_NO_THREAD_SAFETY_ANALYSIS is a last resort and always carries a
//     comment justifying why the analysis cannot see the invariant.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CG_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef CG_THREAD_ANNOTATION
#define CG_THREAD_ANNOTATION(x)  // no-op off clang
#endif

#define CG_CAPABILITY(x) CG_THREAD_ANNOTATION(capability(x))
#define CG_SCOPED_CAPABILITY CG_THREAD_ANNOTATION(scoped_lockable)
#define CG_GUARDED_BY(x) CG_THREAD_ANNOTATION(guarded_by(x))
#define CG_PT_GUARDED_BY(x) CG_THREAD_ANNOTATION(pt_guarded_by(x))
#define CG_REQUIRES(...) \
  CG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define CG_EXCLUDES(...) CG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define CG_ACQUIRE(...) CG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define CG_RELEASE(...) CG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define CG_TRY_ACQUIRE(...) \
  CG_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define CG_RETURN_CAPABILITY(x) CG_THREAD_ANNOTATION(lock_returned(x))
#define CG_NO_THREAD_SAFETY_ANALYSIS \
  CG_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace cachegen {

// std::mutex with the capability attribute, so CG_GUARDED_BY members and
// explicit lock()/unlock() sequences are analyzable.
class CG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CG_ACQUIRE() { mu_.lock(); }
  void unlock() CG_RELEASE() { mu_.unlock(); }
  bool try_lock() CG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // Escape hatch for code the analysis cannot follow (CondVar below).
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

// Scoped lock over Mutex — the annotated std::lock_guard equivalent.
class CG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CG_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() CG_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to Mutex. Wait() REQUIRES the mutex: the caller
// holds it across the call, the wait releases and reacquires it internally
// (invisible to — and irrelevant for — the lock-set analysis, which only
// needs "held on entry, held on return").
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) CG_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.native(), std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // the caller still owns the lock
  }

  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cachegen
