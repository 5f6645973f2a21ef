// Unit tests for the cache and memory-hierarchy substrate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/cache.h"
#include "mem/memory_hierarchy.h"

namespace {

using vecfd::mem::Cache;
using vecfd::mem::CacheConfig;
using vecfd::mem::HierarchyConfig;
using vecfd::mem::MemoryHierarchy;

CacheConfig small_cache() {
  return {.size_bytes = 1024, .line_bytes = 64, .associativity = 2,
          .name = "t"};
}

TEST(Cache, ColdMissThenHit) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x103F));  // same 64B line
  EXPECT_FALSE(c.access(0x1040)); // next line
  EXPECT_EQ(c.misses(), 2u);
  EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, GeometryDerivedSets) {
  Cache c(small_cache());
  // 1024 / (64 * 2) = 8 sets
  EXPECT_EQ(c.config().num_sets(), 8u);
}

// The cache XOR-folds upper line bits into the set index; with 8 sets,
// lines 0, 9 and 18 all fold to set 0 (l ^ (l >> 3) ≡ 0 mod 8).
TEST(Cache, LruEvictionWithinSet) {
  Cache c(small_cache());  // 8 sets, 2 ways
  const std::uintptr_t a = 0 * 64;
  const std::uintptr_t b = 9 * 64;
  const std::uintptr_t d = 18 * 64;
  EXPECT_FALSE(c.access(a));
  EXPECT_FALSE(c.access(b));
  EXPECT_TRUE(c.access(a));   // a is now MRU
  EXPECT_FALSE(c.access(d));  // evicts b (LRU)
  EXPECT_TRUE(c.access(a));
  EXPECT_FALSE(c.access(b));  // b was evicted
}

TEST(Cache, PrefersInvalidWayOverEviction) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0x0));
  c.flush();
  EXPECT_EQ(c.resident_lines(), 0u);
  EXPECT_FALSE(c.access(0 * 64));
  EXPECT_FALSE(c.access(9 * 64));  // same folded set as line 0
  EXPECT_EQ(c.resident_lines(), 2u);
  // both lines coexist in the 2-way set
  EXPECT_TRUE(c.access(0 * 64));
  EXPECT_TRUE(c.access(9 * 64));
}

TEST(Cache, ZeroCapacityAlwaysMisses) {
  Cache c({.size_bytes = 0, .line_bytes = 64, .associativity = 0,
           .name = "null"});
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(c.access(0x40));
  EXPECT_EQ(c.misses(), 4u);
}

TEST(Cache, RejectsNonPowerOfTwoLine) {
  EXPECT_THROW(Cache({.size_bytes = 1024, .line_bytes = 48,
                      .associativity = 2, .name = "bad"}),
               std::invalid_argument);
}

// A line must hold a double; this also keeps the all-ones empty-way tag
// out of the set of line numbers.
TEST(Cache, LinesSmallerThanADoubleAreRejected) {
  for (std::size_t bytes : {1u, 2u, 4u}) {
    try {
      Cache c({.size_bytes = 1024, .line_bytes = bytes, .associativity = 2,
               .name = "tiny"});
      ADD_FAILURE() << "line_bytes " << bytes << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'tiny'"), std::string::npos) << msg;
      EXPECT_NE(msg.find("line_bytes must be at least 8"), std::string::npos)
          << msg;
    }
  }
  Cache c({.size_bytes = 1024, .line_bytes = 8, .associativity = 2,
           .name = "ok"});
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(7));
  EXPECT_FALSE(c.access(8));
  // The top line of the address space is an ordinary tag, never "empty".
  const std::uintptr_t top = ~std::uintptr_t{0};
  EXPECT_FALSE(c.access(top));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(top));  // a way-scan hit, not the MRU shortcut
  EXPECT_EQ(c.resident_lines(), 3u);
}

TEST(Cache, RejectsZeroAssociativityWithCapacity) {
  EXPECT_THROW(Cache({.size_bytes = 1024, .line_bytes = 64,
                      .associativity = 0, .name = "bad"}),
               std::invalid_argument);
}

TEST(Cache, RejectsCapacitySmallerThanOneSet) {
  EXPECT_THROW(Cache({.size_bytes = 64, .line_bytes = 64,
                      .associativity = 4, .name = "bad"}),
               std::invalid_argument);
}

TEST(Cache, FlushPreservesCounters) {
  Cache c(small_cache());
  c.access(0x0);
  c.access(0x0);
  c.flush();
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_FALSE(c.access(0x0));  // cold again after flush
}

// ---- hierarchy ----------------------------------------------------------

HierarchyConfig small_hier() {
  HierarchyConfig h;
  h.l1 = {.size_bytes = 1024, .line_bytes = 64, .associativity = 2,
          .name = "L1"};
  h.l2 = {.size_bytes = 8192, .line_bytes = 64, .associativity = 4,
          .name = "L2"};
  h.l1_latency = 0.0;
  h.l2_latency = 10.0;
  h.mem_latency = 100.0;
  return h;
}

TEST(MemoryHierarchy, LatencyAttributionPerLevel) {
  MemoryHierarchy mh(small_hier());
  auto r1 = mh.access(0x1000);
  EXPECT_EQ(r1.level, 3);  // cold: memory
  EXPECT_DOUBLE_EQ(r1.penalty, 110.0);
  auto r2 = mh.access(0x1000);
  EXPECT_EQ(r2.level, 1);  // L1 hit
  EXPECT_DOUBLE_EQ(r2.penalty, 0.0);
}

TEST(MemoryHierarchy, L2CatchesL1Evictions) {
  MemoryHierarchy mh(small_hier());
  // The hierarchy renames host lines in first-touch order, so touching 19
  // distinct lines in ascending order populates canonical lines 0..18.
  // Canonical lines 0, 9, 18 share an L1 set under the folded index (8
  // sets, 2 ways), so line 18 evicts line 0 from L1 — but not from L2.
  for (std::uintptr_t l = 0; l <= 18; ++l) mh.access(l * 64);
  auto r = mh.access(0 * 64);
  EXPECT_EQ(r.level, 2);
  EXPECT_DOUBLE_EQ(r.penalty, 10.0);
}

TEST(MemoryHierarchy, CanonicalizationErasesAllocatorPlacement) {
  // Two access sequences that differ only in absolute placement must
  // produce identical hit/miss behaviour.
  MemoryHierarchy a(small_hier());
  MemoryHierarchy b(small_hier());
  const std::uintptr_t offsets[] = {0, 64, 4096, 64, 1 << 20, 0};
  for (std::uintptr_t off : offsets) (void)a.access(0x10000 + off);
  for (std::uintptr_t off : offsets) (void)b.access(0x7fff0000 + off);
  EXPECT_EQ(a.l1_misses(), b.l1_misses());
  EXPECT_EQ(a.l2_misses(), b.l2_misses());
  EXPECT_EQ(a.l1_accesses(), b.l1_accesses());
}

TEST(MemoryHierarchy, GlobalAllocationsAreLineAligned) {
  // mem/aligned_new.cpp pins every heap allocation to the largest modelled
  // line size (128 bytes, SX-Aurora); the determinism story depends on it,
  // so fail loudly if the replacement operator new was not linked in.
  for (std::size_t n : {1ul, 8ul, 100ul, 4097ul}) {
    std::vector<double> v(n, 0.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 128, 0u) << n;
  }
}

TEST(MemoryHierarchy, MismatchedLineSizesAreRejected) {
  HierarchyConfig h = small_hier();
  h.l2.line_bytes = 128;
  EXPECT_THROW(MemoryHierarchy{h}, std::invalid_argument);
}

// A line must hold a double; this also keeps the line map's all-ones
// empty page key out of the set of host page numbers.
TEST(MemoryHierarchy, LinesSmallerThanADoubleAreRejected) {
  HierarchyConfig h = small_hier();
  h.l1.line_bytes = h.l2.line_bytes = 4;
  EXPECT_THROW(MemoryHierarchy{h}, std::invalid_argument);
  h.l1.line_bytes = h.l2.line_bytes = 8;
  EXPECT_NO_THROW(MemoryHierarchy{h});
}

TEST(MemoryHierarchy, TouchRangeCountsLines) {
  MemoryHierarchy mh(small_hier());
  std::uint64_t misses = 0;
  // 129 bytes starting inside a line → 3 lines
  const double penalty = mh.touch_range(0x100 + 32, 129, &misses);
  EXPECT_EQ(misses, 3u);
  EXPECT_DOUBLE_EQ(penalty, 3 * 110.0);
  EXPECT_EQ(mh.l1_accesses(), 3u);
}

TEST(MemoryHierarchy, TouchRangeZeroBytesIsFree) {
  MemoryHierarchy mh(small_hier());
  EXPECT_DOUBLE_EQ(mh.touch_range(0x100, 0), 0.0);
  EXPECT_EQ(mh.l1_accesses(), 0u);
}

TEST(MemoryHierarchy, StreamLargerThanL1StaysL2Resident) {
  MemoryHierarchy mh(small_hier());
  // stream 4 KB (64 lines): larger than L1 (1 KB), fits L2 (8 KB)
  for (int pass = 0; pass < 2; ++pass) {
    mh.touch_range(0x0, 4096);
  }
  // second pass must have been served from L2, not memory
  EXPECT_EQ(mh.l2_misses(), 64u);
  EXPECT_GT(mh.l1_misses(), 64u);  // first pass + second-pass L1 misses
}

}  // namespace
