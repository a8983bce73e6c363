/// \file mutex.h
/// Annotated mutex wrapper for the Clang thread-safety analysis.
///
/// `soda::Mutex` wraps `std::mutex` and carries the `SODA_CAPABILITY`
/// attribute so `SODA_GUARDED_BY(mu_)` members and `SODA_REQUIRES(mu_)`
/// functions can be checked at compile time. `soda::MutexLock` is the
/// scoped RAII guard; `soda::CondVar` wraps a condition variable that
/// waits on the annotated mutex. All locking in the engine goes through
/// these types — soda-analyze's raw-sync check rejects raw `std::mutex`
/// elsewhere.

#ifndef SODA_UTIL_MUTEX_H_
#define SODA_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace soda {

/// A std::mutex with capability annotations. Also satisfies the C++
/// BasicLockable requirements (lowercase lock()/unlock()) so
/// std::condition_variable_any can wait on it directly.
class SODA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SODA_ACQUIRE() { mu_.lock(); }
  void Unlock() SODA_RELEASE() { mu_.unlock(); }
  bool TryLock() SODA_THREAD_ANNOTATION(try_acquire_capability(true)) {
    return mu_.try_lock();
  }

  // BasicLockable aliases for std::condition_variable_any. Marked as
  // acquire/release too so direct use is still analysis-visible.
  void lock() SODA_ACQUIRE() { mu_.lock(); }
  void unlock() SODA_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scoped lock over soda::Mutex.
class SODA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) SODA_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() SODA_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable that waits on a soda::Mutex. Wait() must be called
/// with the mutex held (checked under Clang).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) SODA_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  template <typename Pred>
  void Wait(Mutex* mu, Pred pred) SODA_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();
  }

  /// Timed wait: blocks until notified or `timeout` elapses. Returns
  /// false on timeout. Used by the admission queue and graceful drain,
  /// where a bounded wait is the whole point.
  bool WaitFor(Mutex* mu, std::chrono::milliseconds timeout)
      SODA_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    bool notified = cv_.wait_for(lock, timeout) == std::cv_status::no_timeout;
    lock.release();
    return notified;
  }

  /// Timed predicate wait: returns the predicate's value on exit (false
  /// means the deadline expired with the predicate still unsatisfied).
  template <typename Pred>
  bool WaitFor(Mutex* mu, std::chrono::milliseconds timeout, Pred pred)
      SODA_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    bool satisfied = cv_.wait_for(lock, timeout, std::move(pred));
    lock.release();
    return satisfied;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace soda

#endif  // SODA_UTIL_MUTEX_H_
