// vecfd::core — the fan-out primitive: one persistent, process-wide,
// caller-runs worker pool.
//
// The assembly sweeps (core/experiment.h), the transient campaigns
// (core/campaign.h) and the sharded pressure solve's BSP epochs
// (solver/sharding.h) all map an index range onto independent, pre-sized
// result slots.  Every such fan-out is one pool *job*: the calling thread
// posts it, then claims indices from it itself, while idle pool workers
// may join and claim the rest.  Indices are claimed dynamically (expensive
// points don't serialize behind cheap ones), each participant writes only
// the slots of the indices it claimed (deterministic, race-free order),
// and errors are captured per job: first-error short-circuit for
// parallel_for_index, one slot per index for parallel_for_index_collect.
//
// Thread budget.  Workers are started lazily and live for the process.
// A top-level call asking for N participants grows the pool to N−1
// workers (the caller is the N-th) if it holds fewer, and at most N−1
// helpers ever join its job, so `--jobs N` still means N concurrent
// points.  A nested call — made from inside a job, like a ShardedCg
// epoch inside a campaign point — never starts a thread: with every
// worker busy it runs inline on the caller, and in a campaign's tail the
// idle workers pick it up.  Idle workers block on a condition variable;
// nothing spins.
//
// Job lifetime.  A job lives on its caller's stack.  The caller closes it
// under the pool mutex (no helper can join after that) and then waits
// only for the helpers already inside it, so a late-waking worker never
// touches a finished job.
//
// This header and core/thread_annotations.h are the ONLY files allowed to
// touch std::thread / std::mutex directly (vecfd-lint rule `raw-thread`);
// the pool's shared state is annotated for clang's -Wthread-safety
// analysis, which the CI lint job compiles with -Werror.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace vecfd::core {

/// First-exception capture shared by a job's participants: many may fail,
/// exactly one exception survives to be rethrown on the calling thread.
/// The `failed` flag is a relaxed atomic outside the capability for cheap
/// polling; the exception slot itself is written at most once per job and
/// only under the mutex.
class FirstError {
 public:
  /// Record @p e if no earlier failure was recorded.
  void record(std::exception_ptr e) VECFD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (!error_) error_ = e;
    failed_.store(true, std::memory_order_relaxed);
  }

  /// Cheap cross-thread poll: has any participant failed yet?
  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  /// Rethrow the recorded exception, if any.  Call after the job finished
  /// (single-threaded again), never from inside a participant.
  void rethrow_if_set() VECFD_EXCLUDES(mu_) {
    std::exception_ptr e;
    {
      MutexLock lock(mu_);
      e = error_;
    }
    if (e) std::rethrow_exception(e);
  }

 private:
  Mutex mu_;
  std::exception_ptr error_ VECFD_GUARDED_BY(mu_);
  std::atomic<bool> failed_{false};
};

namespace detail {

/// One fan-out over [0, count).  `body(ctx, i)` runs index i and returns
/// false to stop every participant from claiming further indices.
struct Job {
  std::size_t count;
  bool (*body)(void* ctx, std::size_t i);
  void* ctx;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stopped{false};

  bool exhausted() const {
    return stopped.load(std::memory_order_relaxed) ||
           next.load(std::memory_order_relaxed) >= count;
  }
};

/// THE worker loop: claim indices of @p job until it is exhausted or
/// stopped.  Callers, helpers and the serial path all run through it.
inline void drain(Job& job) {
  while (!job.stopped.load(std::memory_order_relaxed)) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) return;
    if (!job.body(job.ctx, i)) {
      job.stopped.store(true, std::memory_order_relaxed);
    }
  }
}

class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() VECFD_EXCLUDES(mu_) {
    std::vector<std::thread> threads;
    {
      MutexLock lock(mu_);
      stopping_ = true;
      threads.swap(threads_);
    }
    work_.notify_all();
    for (std::thread& t : threads) t.join();
  }

  /// Run @p job with the caller plus at most participants−1 helpers;
  /// returns once every index ran (or the job stopped) and every helper
  /// has left it.
  void run(Job& job, unsigned participants) VECFD_EXCLUDES(mu_) {
    const unsigned helpers = participants - 1;
    {
      MutexLock lock(mu_);
      if (depth() == 0) {
        while (threads_.size() < helpers) {
          threads_.emplace_back([this] { worker_main(); });
          started_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      slots_.push_back(Slot{&job, 0, helpers, true});
      for (unsigned k = std::min(idle_, helpers); k > 0; --k) {
        work_.notify_one();
      }
    }
    participate(job);
    MutexLock lock(mu_);
    slot_of(job)->open = false;
    while (slot_of(job)->helpers > 0) done_.wait(mu_);
    slots_.erase(slots_.begin() + (slot_of(job) - slots_.data()));
  }

  std::size_t threads_started() const {
    return started_.load(std::memory_order_relaxed);
  }

 private:
  /// A posted job's pool-side bookkeeping.  Closed slots take no new
  /// helpers and stay only until their last helper has left.
  struct Slot {
    Job* job;
    unsigned helpers;      ///< workers currently inside the job
    unsigned max_helpers;  ///< participants − 1 of the posting call
    bool open;
  };

  WorkerPool() = default;

  /// Nesting depth of pool jobs on this thread: > 0 inside a job.
  static int& depth() {
    thread_local int d = 0;
    return d;
  }

  static void participate(Job& job) {
    ++depth();
    drain(job);
    --depth();
  }

  Slot* slot_of(const Job& job) VECFD_REQUIRES(mu_) {
    for (Slot& s : slots_) {
      if (s.job == &job) return &s;
    }
    return nullptr;  // unreachable: a job's slot outlives its run()
  }

  /// Oldest open job with work left and a free helper seat, joined;
  /// nullptr when there is none.
  Job* join_open_job() VECFD_REQUIRES(mu_) {
    for (Slot& s : slots_) {
      if (s.open && s.helpers < s.max_helpers && !s.job->exhausted()) {
        ++s.helpers;
        return s.job;
      }
    }
    return nullptr;
  }

  void worker_main() VECFD_EXCLUDES(mu_) {
    for (;;) {
      Job* job = nullptr;
      {
        MutexLock lock(mu_);
        while ((job = join_open_job()) == nullptr) {
          if (stopping_) return;
          ++idle_;
          work_.wait(mu_);
          --idle_;
        }
      }
      participate(*job);
      MutexLock lock(mu_);
      Slot* s = slot_of(*job);
      if (--s->helpers == 0 && !s->open) done_.notify_all();
    }
  }

  Mutex mu_;
  CondVar work_;  ///< idle workers wait here for an open job
  CondVar done_;  ///< callers wait here for their job's last helper
  std::vector<Slot> slots_ VECFD_GUARDED_BY(mu_);
  unsigned idle_ VECFD_GUARDED_BY(mu_) = 0;
  bool stopping_ VECFD_GUARDED_BY(mu_) = false;
  std::atomic<std::size_t> started_{0};
  std::vector<std::thread> threads_ VECFD_GUARDED_BY(mu_);  // last: uses all
};

/// Run body(i) for i in [0, count) on up to @p jobs participants
/// (jobs <= 0 → std::thread::hardware_concurrency; one participant → a
/// plain loop on the caller, no pool).
template <class Body>
void fan_out(std::size_t count, int jobs, Body& body) {
  Job job{count,
          [](void* ctx, std::size_t i) {
            return (*static_cast<Body*>(ctx))(i);
          },
          &body};
  unsigned participants = jobs > 0 ? static_cast<unsigned>(jobs)
                                   : std::thread::hardware_concurrency();
  if (participants > count) participants = static_cast<unsigned>(count);
  if (participants <= 1) {
    drain(job);
    return;
  }
  WorkerPool::instance().run(job, participants);
}

}  // namespace detail

/// Threads the process-wide pool has started so far.  Monotone: the pool
/// never retires a worker, so an unchanged value across a call proves the
/// call created no thread.
inline std::size_t pool_threads_started() {
  return detail::WorkerPool::instance().threads_started();
}

/// Invoke `fn(i)` for every i in [0, count) on up to @p jobs participants
/// (jobs <= 0 → std::thread::hardware_concurrency; 1 → plain serial loop).
/// `fn` must be safe to call concurrently for distinct indices.  The first
/// exception thrown by any invocation stops further claims and is
/// rethrown here once the job has drained.
template <class Fn>
void parallel_for_index(std::size_t count, int jobs, Fn&& fn) {
  FirstError error;
  auto body = [&](std::size_t i) {
    try {
      fn(i);
      return true;
    } catch (...) {
      error.record(std::current_exception());
      return false;
    }
  };
  detail::fan_out(count, jobs, body);
  error.rethrow_if_set();
}

/// Collect-all-errors variant: invoke `fn(i)` for every i in [0, count)
/// like parallel_for_index, but NEVER short-circuit — a throwing index is
/// captured into its own slot of the returned vector (null = success) and
/// the remaining indices still run.  Fault-tolerant campaigns
/// (core/campaign.h run_points_ft) use this so one dead point cannot take
/// the rest of the sweep down with it; the sweep engine keeps the
/// first-error semantics above.
template <class Fn>
std::vector<std::exception_ptr> parallel_for_index_collect(std::size_t count,
                                                           int jobs,
                                                           Fn&& fn) {
  // Each participant writes only errors[i] for indices it claimed; the
  // pool's closing handshake publishes them to the calling thread.
  std::vector<std::exception_ptr> errors(count);
  auto body = [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    return true;
  };
  detail::fan_out(count, jobs, body);
  return errors;
}

}  // namespace vecfd::core
