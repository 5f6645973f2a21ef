// vecfd::core — Clang thread-safety annotations and annotated lock types.
//
// The concurrency contract of this repo is narrow on purpose: ALL fan-out
// goes through core::parallel_for_index (one persistent worker pool, see
// core/parallel.h), and any state shared across its participants is
// guarded by the annotated types below.  Annotating that small
// surface lets clang's -Wthread-safety analysis (enabled with -Werror in
// the CI lint job) prove at compile time that every access to
// VECFD_GUARDED_BY state happens under its capability — turning the
// "forgot the lock on one path" bug class into a build failure instead of
// a TSan flake.  vecfd-lint rule `raw-thread` is the other half of the
// contract: std::thread / std::mutex may not appear outside this header
// and core/parallel.h, so there is no unannotated locking to miss.
//
// The macros expand to nothing on compilers without the attribute (GCC),
// so the annotations are free in every non-clang build.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define VECFD_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef VECFD_THREAD_ANNOTATION
#define VECFD_THREAD_ANNOTATION(x)
#endif

#define VECFD_CAPABILITY(x) VECFD_THREAD_ANNOTATION(capability(x))
#define VECFD_SCOPED_CAPABILITY VECFD_THREAD_ANNOTATION(scoped_lockable)
#define VECFD_GUARDED_BY(x) VECFD_THREAD_ANNOTATION(guarded_by(x))
#define VECFD_PT_GUARDED_BY(x) VECFD_THREAD_ANNOTATION(pt_guarded_by(x))
#define VECFD_REQUIRES(...) \
  VECFD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define VECFD_ACQUIRE(...) \
  VECFD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define VECFD_RELEASE(...) \
  VECFD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define VECFD_EXCLUDES(...) VECFD_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define VECFD_RETURN_CAPABILITY(x) VECFD_THREAD_ANNOTATION(lock_returned(x))
#define VECFD_NO_THREAD_SAFETY_ANALYSIS \
  VECFD_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace vecfd::core {

/// std::mutex wrapped as an annotated capability: the analysis only tracks
/// types that carry the `capability` attribute, so shared state must be
/// guarded by THIS type (and locked through MutexLock) for
/// -Wthread-safety to see it.
class VECFD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() VECFD_ACQUIRE() { mu_.lock(); }
  void unlock() VECFD_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// std::condition_variable over a held core::Mutex.  wait() requires the
/// capability, releases it while blocked and holds it again on return, so
/// to the analysis the caller's lock is held throughout.  Callers loop on
/// their predicate: wake-ups may be spurious.
class CondVar {
 public:
  void wait(Mutex& mu) VECFD_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's MutexLock
  }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// RAII lock for Mutex, annotated as a scoped capability so the analysis
/// knows the capability is held for exactly the scope of the guard.
class VECFD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) VECFD_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() VECFD_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace vecfd::core
