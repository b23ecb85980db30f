// Annotated synchronization primitives: the compile-time half of the
// repo's concurrency contract.
//
// Every latch in this codebase is a chase::Mutex, every scope-lock a
// chase::MutexLock, every condition variable a chase::CondVar. The
// wrappers are zero-cost pass-throughs over std::mutex /
// std::condition_variable; what they add is Clang thread-safety
// annotations (-Wthread-safety), so the locking discipline that used to
// live in comments — "guarded by mu_", "requires the shard latch" — is a
// compile-time proof under Clang and CI fails on any access to a
// GUARDED_BY field without its latch. Under other compilers the macros
// expand to nothing and the wrappers compile to the std types' code.
//
// Discipline for new code:
//  * declare shared fields GUARDED_BY(mu_);
//  * methods called with the latch held take REQUIRES(mu_);
//  * methods that must NOT be called with it held take EXCLUDES(mu_);
//  * the rare deliberate unlatched access (a barrier or pin invariant
//    standing in for the latch) gets NO_THREAD_SAFETY_ANALYSIS with a
//    comment naming the invariant that replaces the lock.
//
// Condition-variable predicates: write explicit `while (!pred) cv.Wait(mu)`
// loops instead of predicate lambdas — the analysis can follow guarded
// reads in the enclosing function but not through a lambda's operator().

#ifndef CHASE_BASE_SYNC_H_
#define CHASE_BASE_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

// Clang thread-safety analysis attributes (abseil-style spellings). The
// `defined(__clang__)` gate keeps GCC builds attribute-free rather than
// relying on __has_attribute probes per macro: Clang supports the whole
// family together.
#if defined(__clang__) && !defined(SWIG)
#define CHASE_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define CHASE_TS_ATTRIBUTE(x)  // no-op outside Clang
#endif

#define CAPABILITY(x) CHASE_TS_ATTRIBUTE(capability(x))
#define SCOPED_CAPABILITY CHASE_TS_ATTRIBUTE(scoped_lockable)
#define GUARDED_BY(x) CHASE_TS_ATTRIBUTE(guarded_by(x))
#define PT_GUARDED_BY(x) CHASE_TS_ATTRIBUTE(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) CHASE_TS_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) CHASE_TS_ATTRIBUTE(acquired_after(__VA_ARGS__))
#define REQUIRES(...) \
  CHASE_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) CHASE_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define RELEASE(...) CHASE_TS_ATTRIBUTE(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  CHASE_TS_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) CHASE_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) CHASE_TS_ATTRIBUTE(assert_capability(x))
#define RETURN_CAPABILITY(x) CHASE_TS_ATTRIBUTE(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  CHASE_TS_ATTRIBUTE(no_thread_safety_analysis)

namespace chase {

class CondVar;

// std::mutex with the "mutex" capability: fields declared GUARDED_BY an
// instance may only be touched while it is held, enforced by Clang.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII scope lock over a chase::Mutex (the std::lock_guard of this
// codebase). SCOPED_CAPABILITY teaches the analysis that the capability is
// held for exactly the guard's scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// std::condition_variable over chase::Mutex. Wait atomically releases and
// reacquires the mutex exactly like std::condition_variable::wait; the
// REQUIRES annotation reflects the caller's view (held before and after),
// which is what the analysis needs for the guarded fields a wait loop
// rechecks. Zero-cost: the adopt/release unique_lock dance below is
// pointer bookkeeping with no extra atomic.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  // Returns std::cv_status::timeout when the deadline passed first.
  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace chase

#endif  // CHASE_BASE_SYNC_H_
