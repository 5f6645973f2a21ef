// Stress suite for the core/parallel.h fan-out primitive — written to give
// TSan (and the clang thread-safety analysis over core::Mutex /
// FirstError and the worker pool's state) contended executions to chew
// on: oversubscribed jobs, a shared accumulator, many-threads-throwing
// races on the FirstError slot, back-to-back jobs on the persistent pool,
// and nested fan-out (a job posted from inside another job's index).  The
// CI tsan job runs this suite with the rest of `ctest -LE slow` under
// -fsanitize=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel.h"

namespace {

using vecfd::core::FirstError;
using vecfd::core::parallel_for_index;
using vecfd::core::parallel_for_index_collect;
using vecfd::core::pool_threads_started;

TEST(ParallelStress, OversubscribedPoolCoversEveryIndexExactlyOnce) {
  // More workers than cores and more tasks than workers: each slot must be
  // written exactly once, with no index skipped or claimed twice.
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_index(n, 16, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelStress, SharedAtomicAccumulatorIsExact) {
  const std::size_t n = 50000;
  std::atomic<long long> sum{0};
  parallel_for_index(n, 8, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(i) + 1, std::memory_order_relaxed);
  });
  const long long want = static_cast<long long>(n) * (n + 1) / 2;
  EXPECT_EQ(sum.load(), want);
}

TEST(ParallelStress, ManyConcurrentThrowersKeepExactlyOneException) {
  // Every task throws: the FirstError slot is hammered from all workers at
  // once, yet exactly one exception must survive to the spawning thread
  // and the pool must still join cleanly.
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for_index(256, 8, [&](std::size_t i) {
        throw std::runtime_error("boom " + std::to_string(i));
      });
      FAIL() << "expected the pool to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u);
    }
  }
}

TEST(ParallelStress, FailureShortCircuitsLaterClaims) {
  // After a worker records a failure, the claim loop drains: far fewer
  // than `count` tasks should run (never more than count, and the pool
  // must not deadlock waiting for abandoned work).
  std::atomic<std::size_t> ran{0};
  try {
    parallel_for_index(100000, 4, [&](std::size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 0) throw std::logic_error("early");
    });
    FAIL() << "expected rethrow";
  } catch (const std::logic_error&) {
  }
  EXPECT_LE(ran.load(), 100000u);
  EXPECT_GE(ran.load(), 1u);
}

TEST(ParallelStress, BackToBackPoolsReuseCleanly) {
  // Every call is a new job on the same persistent pool; rapid job
  // lifecycles must not leak state between rounds (each round's
  // accumulator starts from zero).
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    parallel_for_index(64, 8, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 64);
  }
}

TEST(ParallelStress, FirstErrorRecordRaceKeepsFirstNonNull) {
  // Direct FirstError contention, independent of the pool: concurrent
  // record() calls must leave exactly one stored exception and a set flag.
  FirstError err;
  parallel_for_index(64, 8, [&](std::size_t i) {
    try {
      throw std::runtime_error("r" + std::to_string(i));
    } catch (...) {
      err.record(std::current_exception());
    }
  });
  EXPECT_TRUE(err.failed());
  EXPECT_THROW(err.rethrow_if_set(), std::runtime_error);
}

TEST(ParallelStress, CollectModeRunsEveryIndexDespiteThrows) {
  // The collect-all-errors mode never short-circuits: a throwing index must
  // not stop its siblings (the per-point isolation contract of
  // Campaign::run_points / run_points_ft).
  const std::size_t n = 5000;
  std::vector<std::atomic<int>> hits(n);
  const std::vector<std::exception_ptr> errors =
      parallel_for_index_collect(n, 8, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        if (i % 7 == 0) throw std::runtime_error("e" + std::to_string(i));
      });
  ASSERT_EQ(errors.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    if (i % 7 == 0) {
      ASSERT_NE(errors[i], nullptr) << "index " << i;
      try {
        std::rethrow_exception(errors[i]);
      } catch (const std::runtime_error& e) {
        // Each error lands in ITS index's slot, not just any slot.
        EXPECT_EQ(std::string(e.what()), "e" + std::to_string(i));
      }
    } else {
      EXPECT_EQ(errors[i], nullptr) << "index " << i;
    }
  }
}

TEST(ParallelStress, CollectModeSerialAndParallelAgree) {
  const std::size_t n = 512;
  const auto body = [](std::size_t i) {
    if (i % 3 == 1) throw std::logic_error("x");
  };
  const auto serial = parallel_for_index_collect(n, 1, body);
  const auto parallel = parallel_for_index_collect(n, 8, body);
  ASSERT_EQ(serial.size(), n);
  ASSERT_EQ(parallel.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(serial[i] == nullptr, parallel[i] == nullptr) << "index " << i;
  }
}

TEST(ParallelStress, CollectModeAllCleanReturnsAllNull) {
  const auto errors =
      parallel_for_index_collect(1000, 8, [](std::size_t) {});
  ASSERT_EQ(errors.size(), 1000u);
  for (const std::exception_ptr& e : errors) EXPECT_EQ(e, nullptr);
}

TEST(ParallelStress, SerialFallbackMatchesParallelResult) {
  const std::size_t n = 1000;
  std::vector<double> serial(n), parallel(n);
  parallel_for_index(n, 1, [&](std::size_t i) {
    serial[i] = static_cast<double>(i) * 0.5;
  });
  parallel_for_index(n, 8, [&](std::size_t i) {
    parallel[i] = static_cast<double>(i) * 0.5;
  });
  EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------------
// Nested fan-out and the persistent pool
// ---------------------------------------------------------------------------

TEST(ParallelStress, NestedFanOutCoversEveryPairExactlyOnce) {
  // Every outer index of a collect job runs an inner first-error job — the
  // campaign-point → shard-epoch shape.  Each (outer, inner) pair must run
  // exactly once, whichever participant claims it.
  const std::size_t outer = 48, inner = 64;
  std::vector<std::atomic<int>> hits(outer * inner);
  const auto errors = parallel_for_index_collect(outer, 4, [&](std::size_t i) {
    parallel_for_index(inner, 4, [&](std::size_t j) {
      hits[i * inner + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (const std::exception_ptr& e : errors) EXPECT_EQ(e, nullptr);
  for (std::size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "pair " << k;
  }
}

TEST(ParallelStress, InnerThrowLandsInItsOuterSlot) {
  // An inner job's first error is rethrown on the participant running the
  // outer index, so it lands in THAT outer slot and no other; the clean
  // outer indices still run their whole inner range.
  const std::size_t outer = 40, inner = 32;
  std::vector<std::atomic<int>> inner_runs(outer);
  const auto errors = parallel_for_index_collect(outer, 4, [&](std::size_t i) {
    parallel_for_index(inner, 4, [&](std::size_t j) {
      inner_runs[i].fetch_add(1, std::memory_order_relaxed);
      if (i % 5 == 2 && j == 7) {
        throw std::runtime_error("inner " + std::to_string(i));
      }
    });
  });
  ASSERT_EQ(errors.size(), outer);
  for (std::size_t i = 0; i < outer; ++i) {
    if (i % 5 == 2) {
      ASSERT_NE(errors[i], nullptr) << "outer " << i;
      try {
        std::rethrow_exception(errors[i]);
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "inner " + std::to_string(i));
      }
    } else {
      EXPECT_EQ(errors[i], nullptr) << "outer " << i;
      EXPECT_EQ(inner_runs[i].load(), static_cast<int>(inner)) << "outer " << i;
    }
  }
}

TEST(ParallelStress, OversubscribedNestedJobsCompleteAndStartNoNestedThreads) {
  // Both levels ask for more participants than any CI runner has cores,
  // the inner level for more than the outer.  Only the top-level call may
  // grow the pool; the nested calls must reuse it (running inline when
  // every worker is busy).
  const std::size_t before = pool_threads_started();
  const std::size_t outer = 64, inner = 96;
  std::vector<std::atomic<int>> hits(outer * inner);
  const auto errors = parallel_for_index_collect(outer, 16, [&](std::size_t i) {
    parallel_for_index(inner, 32, [&](std::size_t j) {
      hits[i * inner + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (const std::exception_ptr& e : errors) EXPECT_EQ(e, nullptr);
  for (std::size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "pair " << k;
  }
  // The outer call needs 15 workers besides its caller; nothing more.
  EXPECT_LE(pool_threads_started(), std::max<std::size_t>(before, 15));
}

TEST(ParallelStress, BackToBackEpochsStartNoThreadsAfterWarmUp) {
  // The ShardedCg shape: thousands of tiny 4-index jobs in a row.  After
  // one warm-up call has sized the pool, the spawn counter must not move.
  std::vector<std::atomic<long long>> slots(4);
  parallel_for_index(slots.size(), 4, [](std::size_t) {});
  const std::size_t warm = pool_threads_started();
  for (int epoch = 0; epoch < 10000; ++epoch) {
    parallel_for_index(slots.size(), 4, [&](std::size_t p) {
      slots[p].fetch_add(static_cast<long long>(p) + 1,
                         std::memory_order_relaxed);
    });
  }
  for (std::size_t p = 0; p < slots.size(); ++p) {
    EXPECT_EQ(slots[p].load(), 10000LL * static_cast<long long>(p + 1)) << p;
  }
  // Nested epochs inside a collect job add nothing either.
  parallel_for_index_collect(4, 4, [&](std::size_t) {
    for (int epoch = 0; epoch < 100; ++epoch) {
      parallel_for_index(4, 4, [](std::size_t) {});
    }
  });
  EXPECT_EQ(pool_threads_started(), warm);
}

}  // namespace
