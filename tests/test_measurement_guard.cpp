// Dynamic measurement-region guard (mem/measurement_guard.h): freeing a
// Vpu-touched buffer mid-measurement tombstones its canonical lines, and a
// later measured access that re-aliases one — a new allocation inheriting
// the freed buffer's host line — must abort naming the canonical line.
//
// The guard only exists in -DVECFD_MEASUREMENT_GUARD=ON builds (the CI
// lint job); elsewhere the suite records a skip so tier-1 stays green.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "platforms/platforms.h"
#include "sim/vpu.h"

namespace {

using vecfd::sim::Vpu;

#ifdef VECFD_MEASUREMENT_GUARD

/// Reacquire the exact heap block just freed: the line-aligned allocator
/// (mem/aligned_new.cpp) forwards to aligned_alloc, and glibc serves the
/// freed chunk back for the next same-size request — usually on the first
/// try.  Extra allocations are parked in @p held so retries make progress.
/// Small blocks only come back when the freed chunk leaves the per-thread
/// cache for a coalescing bin, which depends on how many other same-size
/// frees preceded it; kMappedElems below takes the heap history out.
double* reacquire_block(std::uintptr_t target, std::size_t elems,
                        std::vector<double*>& held) {
  for (int attempt = 0; attempt < 256; ++attempt) {
    double* p = new double[elems];
    if (reinterpret_cast<std::uintptr_t>(p) == target) return p;
    held.push_back(p);
  }
  return nullptr;
}

/// 64 MiB of doubles: above glibc's largest dynamic mmap threshold
/// (32 MiB), so the block is always a mapping of its own.  Freeing it
/// unmaps it and the kernel hands the same hole to the next mapping of the
/// same length, whatever the heap did in between.  Only the first line is
/// ever written, so the block costs address space, not memory.
constexpr std::size_t kMappedElems = std::size_t{8} << 20;

TEST(MeasurementGuardDeathTest, ReAliasedCanonicalLineAbortsNamingIt) {
  EXPECT_DEATH(
      {
        Vpu vpu(vecfd::platforms::riscv_vec());
        double* a = new double[kMappedElems];
        std::fill_n(a, 8, 0.0);
        const auto target = reinterpret_cast<std::uintptr_t>(a);
        vpu.set_vl(8);
        (void)vpu.vload(a);  // first touch: a's line becomes canonical line 0
        delete[] a;          // mid-measurement free → tombstone
        std::vector<double*> held;
        double* b = reacquire_block(target, kMappedElems, held);
        ASSERT_NE(b, nullptr) << "allocator never reused the freed block";
        (void)vpu.vload(b);  // re-alias of canonical line 0 → abort
      },
      "re-aliases canonical line 0");
}

TEST(MeasurementGuard, FreeWithoutReTouchIsBenign) {
  Vpu vpu(vecfd::platforms::riscv_vec());
  // c is allocated BEFORE a is freed, so it cannot alias a's lines.
  std::vector<double> c(16, 1.0);
  double* a = new double[16]();
  vpu.set_vl(8);
  (void)vpu.vload(a);
  (void)vpu.vload(c.data());
  delete[] a;  // tombstoned, but the measurement never returns to the line
  (void)vpu.vload(c.data());
  EXPECT_GT(vpu.counters().total_cycles(), 0.0);
}

TEST(MeasurementGuard, FlushClosesTheMeasurementRegion) {
  Vpu vpu(vecfd::platforms::riscv_vec());
  double* a = new double[16]();
  const auto target = reinterpret_cast<std::uintptr_t>(a);
  vpu.set_vl(8);
  (void)vpu.vload(a);
  vpu.reset();  // flush: mappings and tombstones forgotten
  delete[] a;
  std::vector<double*> held;
  double* b = reacquire_block(target, 16, held);
  if (b != nullptr) {
    (void)vpu.vload(b);  // fresh region: same host line is a fresh mapping
    EXPECT_GT(vpu.counters().total_cycles(), 0.0);
    delete[] b;
  }
  for (double* p : held) delete[] p;
}

#else

TEST(MeasurementGuard, SkippedInNonGuardBuild) {
  GTEST_SKIP() << "built without -DVECFD_MEASUREMENT_GUARD=ON; the CI lint "
                  "job runs the guard suite";
}

#endif  // VECFD_MEASUREMENT_GUARD

}  // namespace
