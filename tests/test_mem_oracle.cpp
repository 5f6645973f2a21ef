// Differential oracle for the fast memory model.
//
// mem::Cache and mem::MemoryHierarchy run a division-free set index, an
// MRU fast path, tag-array sets, a page-grouped first-touch line map and a
// last-page memo.  Each
// is an exact optimization: for ANY access stream the fast model must
// serve every access from the same level with the same penalty as the
// straightforward reference model (tests/reference_memory_model.h), and
// end with the same hit/miss/resident-line counts at both levels.
//
// The streams drive both models side by side:
//   * splitmix64-random addresses (dense windows, full 64-bit range, and
//     deliberate same-line repeats),
//   * unit-stride element streams (eight touches of every line in a row),
//   * strided streams whose stride aliases cache sets,
//   * the recorded column stream of an ELL pressure operator (the Krylov
//     solves' x-gather), with x placed at host address 0,
//   * page-structured streams: runs across page-block boundaries, one line
//     per page, a flush inside a page, the top page of the address space,
// with flush() calls in mid-stream, over every platform geometry plus a
// non-power-of-two set count, 64- and 128-byte lines, a single-set cache
// and a capacity-less L1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fem/mesh.h"
#include "fem/projection.h"
#include "fem/shape.h"
#include "mem/cache.h"
#include "mem/memory_hierarchy.h"
#include "platforms/platforms.h"
#include "reference_memory_model.h"
#include "solver/vkernels.h"

namespace {

using namespace vecfd;
using mem::AccessResult;
using mem::CacheConfig;
using mem::HierarchyConfig;

struct SplitMix64 {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
};

/// One step of a stream: an access to `addr`, or a flush of both models.
struct Op {
  std::uintptr_t addr = 0;
  bool flush = false;
};

/// Insert a flush before roughly one op in @p period (deterministic).
std::vector<Op> with_flushes(const std::vector<std::uintptr_t>& addrs,
                             std::uint64_t seed, std::uint64_t period) {
  SplitMix64 rng{seed};
  std::vector<Op> ops;
  ops.reserve(addrs.size() + addrs.size() / period + 1);
  for (std::uintptr_t a : addrs) {
    if (rng.next() % period == 0) ops.push_back({.flush = true});
    ops.push_back({.addr = a});
  }
  return ops;
}

// ---- streams ---------------------------------------------------------------

/// Random 8-byte-aligned addresses in [0, window), with a same-line or
/// same-address repeat of the previous access about one time in four.
std::vector<std::uintptr_t> random_stream(std::uint64_t seed, std::size_t n,
                                          std::uint64_t window) {
  SplitMix64 rng{seed};
  std::vector<std::uintptr_t> out;
  out.reserve(n);
  std::uintptr_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = rng.next();
    std::uintptr_t a;
    switch (r & 7u) {
      case 0: a = prev; break;                   // same address again
      case 1: a = (prev & ~std::uintptr_t{63}) | ((r >> 3) & 56u); break;
      default:
        a = static_cast<std::uintptr_t>((r >> 8) % window) &
            ~std::uintptr_t{7};
    }
    out.push_back(a);
    prev = a;
  }
  return out;
}

/// Element-granular unit-stride passes over [base, base + bytes): every
/// line is touched line_bytes / 8 times in a row.
std::vector<std::uintptr_t> unit_stride_stream(std::uintptr_t base,
                                               std::size_t bytes, int passes) {
  std::vector<std::uintptr_t> out;
  for (int p = 0; p < passes; ++p) {
    for (std::size_t off = 0; off < bytes; off += 8) out.push_back(base + off);
  }
  return out;
}

/// Strided element accesses: @p count elements @p stride bytes apart,
/// repeated @p passes times.
std::vector<std::uintptr_t> strided_stream(std::uintptr_t base,
                                           std::size_t stride,
                                           std::size_t count, int passes) {
  std::vector<std::uintptr_t> out;
  for (int p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < count; ++i) out.push_back(base + i * stride);
  }
  return out;
}

/// The access stream of an instrumented ELL SpMV on the pressure
/// Laplacian of a shuffled n³ mesh, strip by strip as solver::vspmv issues
/// it: the unit-stride value and index slabs, then the x-gather of the
/// strip's real (non-pad) columns.  x sits at host address 0; the slabs at
/// arbitrary non-overlapping bases.
std::vector<std::uintptr_t> ell_column_stream(int n, int strip, int sweeps) {
  const fem::Mesh mesh({.nx = n, .ny = n, .nz = n, .shuffle_nodes = true});
  const fem::ShapeTable shape;
  const solver::EllMatrix ell(fem::assemble_pressure_laplacian(mesh, shape));
  const std::uintptr_t x_base = 0;
  const std::uintptr_t vals_base = 0x4000'0000;
  const std::uintptr_t cols_base = 0x8000'0000;
  const auto rows = static_cast<std::size_t>(ell.rows());
  std::vector<std::uintptr_t> out;
  for (int s = 0; s < sweeps; ++s) {
    for (int i = 0; i < ell.rows(); i += strip) {
      const int vl = std::min(strip, ell.rows() - i);
      for (int j = 0; j < ell.width(); ++j) {
        const std::size_t slab = static_cast<std::size_t>(j) * rows + i;
        for (int k = 0; k < vl; ++k) out.push_back(vals_base + 8 * (slab + k));
        for (int k = 0; k < vl; ++k) out.push_back(cols_base + 4 * (slab + k));
        for (int k = 0; k < vl; ++k) {
          const std::int32_t c = ell.cols(j)[i + k];
          if (c >= 0) {
            out.push_back(x_base + 8 * static_cast<std::uintptr_t>(c));
          }
        }
      }
    }
  }
  return out;
}

// ---- geometries ------------------------------------------------------------

struct Geometry {
  std::string name;
  HierarchyConfig h;
};

HierarchyConfig hier(CacheConfig l1, CacheConfig l2) {
  HierarchyConfig h;
  h.l1 = std::move(l1);
  h.l2 = std::move(l2);
  h.l1_latency = 1.0;
  h.l2_latency = 10.0;
  h.mem_latency = 100.0;
  return h;
}

std::vector<Geometry> geometries() {
  std::vector<Geometry> g;
  for (const sim::MachineConfig& m :
       {platforms::riscv_vec(), platforms::sx_aurora(),
        platforms::mn4_avx512()}) {
    g.push_back({m.name, m.memory});
  }
  // 48 KiB / 64 B / 8-way = 96 sets; 1.25 MiB / 64 B / 16-way = 1280 sets:
  // both take the exact-division index path.
  g.push_back({"non-pow2-64B",
               hier({.size_bytes = 48 * 1024, .line_bytes = 64,
                     .associativity = 8, .name = "L1"},
                    {.size_bytes = 1280 * 1024, .line_bytes = 64,
                     .associativity = 16, .name = "L2"})});
  // 128-byte lines with 6 / 12 sets: tiny, so the streams evict hard.
  g.push_back({"non-pow2-128B-tiny",
               hier({.size_bytes = 6 * 2 * 128, .line_bytes = 128,
                     .associativity = 2, .name = "L1"},
                    {.size_bytes = 12 * 4 * 128, .line_bytes = 128,
                     .associativity = 4, .name = "L2"})});
  g.push_back({"pow2-tiny",
               hier({.size_bytes = 1024, .line_bytes = 64,
                     .associativity = 2, .name = "L1"},
                    {.size_bytes = 8192, .line_bytes = 64,
                     .associativity = 4, .name = "L2"})});
  // One set (fully associative) and a direct-mapped L2.
  g.push_back({"single-set",
               hier({.size_bytes = 8 * 64, .line_bytes = 64,
                     .associativity = 8, .name = "L1"},
                    {.size_bytes = 64 * 64, .line_bytes = 64,
                     .associativity = 1, .name = "L2"})});
  g.push_back({"capacity-less-L1",
               hier({.size_bytes = 0, .line_bytes = 64, .associativity = 0,
                     .name = "L1"},
                    {.size_bytes = 4096, .line_bytes = 64,
                     .associativity = 4, .name = "L2"})});
  return g;
}

// ---- the oracle ------------------------------------------------------------

void expect_cache_equal(const mem::Cache& fast,
                        const mem::reference::Cache& ref,
                        const std::string& what) {
  EXPECT_EQ(fast.hits(), ref.hits()) << what;
  EXPECT_EQ(fast.misses(), ref.misses()) << what;
  EXPECT_EQ(fast.resident_lines(), ref.resident_lines()) << what;
}

/// Drive both hierarchies with @p ops; compare every access, then counts.
void run_oracle(const Geometry& g, const std::vector<Op>& ops,
                const std::string& stream) {
  const std::string what = g.name + " / " + stream;
  mem::MemoryHierarchy fast(g.h);
  mem::reference::MemoryHierarchy ref(g.h);
  std::size_t flushes = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (op.flush) {
      fast.flush();
      ref.flush();
      ++flushes;
      continue;
    }
    const AccessResult a = fast.access(op.addr);
    const AccessResult b = ref.access(op.addr);
    ASSERT_EQ(a.level, b.level)
        << what << ": access #" << i << " addr 0x" << std::hex << op.addr;
    ASSERT_EQ(a.penalty, b.penalty)
        << what << ": access #" << i << " addr 0x" << std::hex << op.addr;
  }
  expect_cache_equal(fast.l1(), ref.l1(), what + " L1");
  expect_cache_equal(fast.l2(), ref.l2(), what + " L2");
  EXPECT_EQ(fast.l1_accesses(), ops.size() - flushes) << what;
}

TEST(MemOracle, RandomStreams) {
  std::uint64_t seed = 1;
  for (const Geometry& g : geometries()) {
    // Dense window (heavy reuse, table grows past its initial capacity)
    // and a 64 MiB window (mostly cold lines, many table doublings).
    for (std::uint64_t window : {std::uint64_t{256} << 10,
                                 std::uint64_t{64} << 20}) {
      const auto addrs = random_stream(seed, 60'000, window);
      run_oracle(g, with_flushes(addrs, seed + 100, 20'000),
                 "random window " + std::to_string(window));
      ++seed;
    }
  }
}

TEST(MemOracle, FullRangeRandomAddresses) {
  // Host lines anywhere in the address space, including the very first
  // and very last lines: the all-ones empty key must never collide.
  std::vector<std::uintptr_t> addrs = {0, 8, 0, ~std::uintptr_t{7},
                                       ~std::uintptr_t{7}, 0};
  SplitMix64 rng{42};
  for (int i = 0; i < 20'000; ++i) {
    addrs.push_back(static_cast<std::uintptr_t>(rng.next()) &
                    ~std::uintptr_t{7});
    if (i % 5 == 0) addrs.push_back(addrs.back());
  }
  for (const Geometry& g : geometries()) {
    run_oracle(g, with_flushes(addrs, 7, 5'000), "full-range");
  }
}

TEST(MemOracle, UnitStrideStreams) {
  for (const Geometry& g : geometries()) {
    // Working sets around L1 and L2 capacity, from host address 0 and
    // from an address that is not line-aligned to the larger line size.
    for (std::size_t bytes : {std::size_t{16} << 10, std::size_t{160} << 10,
                              std::size_t{3} << 20}) {
      run_oracle(g, with_flushes(unit_stride_stream(0, bytes, 2), 3, 400'000),
                 "unit-stride " + std::to_string(bytes));
    }
    run_oracle(g, with_flushes(unit_stride_stream(0x1040, 96 << 10, 3), 4,
                               50'000),
               "unit-stride offset");
  }
}

TEST(MemOracle, StridedStreams) {
  for (const Geometry& g : geometries()) {
    for (std::size_t stride : {std::size_t{72}, std::size_t{4096},
                               std::size_t{4096 + 64}, std::size_t{96 * 64},
                               std::size_t{1} << 17}) {
      run_oracle(g,
                 with_flushes(strided_stream(0, stride, 3000, 3), stride,
                              4'000),
                 "strided " + std::to_string(stride));
    }
  }
}

TEST(MemOracle, EllPressureColumnStream) {
  // Strip lengths of the paper's VECTOR_SIZE study: short and near-vlmax.
  for (int strip : {16, 240}) {
    const auto addrs = ell_column_stream(10, strip, 2);
    for (const Geometry& g : geometries()) {
      run_oracle(g, with_flushes(addrs, static_cast<std::uint64_t>(strip),
                                 30'000),
                 "ell strip " + std::to_string(strip));
    }
  }
}

// ---- page-grouped line map ------------------------------------------------
//
// The fast model keys its line map by host page (kPageLines lines).  These
// streams aim at the page structure: runs that cross page-block
// boundaries, pages holding a single line, a flush that lands inside a
// page, and the top page of the address space.

constexpr std::size_t kPageLines = mem::MemoryHierarchy::kPageLines;

std::vector<Op> accesses(const std::vector<std::uintptr_t>& addrs) {
  std::vector<Op> ops;
  ops.reserve(addrs.size());
  for (std::uintptr_t a : addrs) ops.push_back({.addr = a});
  return ops;
}

TEST(MemOracle, UnitStrideRunsCrossPageBlocks) {
  for (const Geometry& g : geometries()) {
    const std::uintptr_t line = g.h.l1.line_bytes;
    const std::uintptr_t page = kPageLines * line;
    // One run from three lines (plus one element) before a page boundary
    // across five pages, twice.
    run_oracle(g,
               accesses(unit_stride_stream(7 * page - 3 * line + 8, 5 * page,
                                           2)),
               "run across pages");
    // Three interleaved element streams (an axpy's x, y and y again), each
    // crossing its page boundaries at a different element, so consecutive
    // accesses keep leaving the memoized page.
    const std::uintptr_t bases[] = {0x10000 - 5 * line,
                                    0x7f00'0000 + 17 * line + 8,
                                    0x2'0000'0000 - line};
    std::vector<std::uintptr_t> addrs;
    for (int pass = 0; pass < 3; ++pass) {
      for (std::uintptr_t off = 0; off < 3 * page; off += 8) {
        addrs.push_back(bases[0] + off);
        addrs.push_back(bases[1] + off);
        addrs.push_back(bases[2] + off);
      }
    }
    run_oracle(g, accesses(addrs), "interleaved runs across pages");
    run_oracle(g, with_flushes(addrs, 11, 5'000),
               "interleaved runs across pages, flushed");
  }
}

TEST(MemOracle, SparseStreamOneLinePerPage) {
  // 3000 pages with one touched line each, at a different line of every
  // page: the map grows by pages, not by lines.  The second pass walks
  // the pages backwards, the third forwards again.
  for (const Geometry& g : geometries()) {
    const std::uintptr_t line = g.h.l1.line_bytes;
    const std::uintptr_t page = kPageLines * line;
    std::vector<std::uintptr_t> one_pass;
    for (std::uintptr_t k = 0; k < 3000; ++k) {
      one_pass.push_back((3 * k + 1) * page + ((37 * k) % kPageLines) * line +
                         8 * (k % 4));
    }
    std::vector<std::uintptr_t> addrs = one_pass;
    addrs.insert(addrs.end(), one_pass.rbegin(), one_pass.rend());
    addrs.insert(addrs.end(), one_pass.begin(), one_pass.end());
    run_oracle(g, accesses(addrs), "one line per page");
    run_oracle(g, with_flushes(addrs, 12, 1'000), "one line per page, flushed");
  }
}

TEST(MemOracle, FlushInTheMiddleOfAPage) {
  // Page p is the first page touched in both measurement regions, so it
  // gets the same id block before and after the flush; page q is new
  // after it.  A flush that kept p's ids, the page memo or the table
  // would alias lines of p and q onto stale canonical lines.
  for (const Geometry& g : geometries()) {
    const std::uintptr_t line = g.h.l1.line_bytes;
    const std::uintptr_t page = kPageLines * line;
    const std::uintptr_t p = 5 * page;
    const std::uintptr_t q = 9 * page;
    std::vector<Op> ops;
    auto touch_lines = [&](std::uintptr_t base, std::size_t from,
                           std::size_t to) {
      for (std::size_t l = from; l < to; ++l) {
        ops.push_back({.addr = base + l * line});
        ops.push_back({.addr = base + l * line + 8});
      }
    };
    touch_lines(p, 0, kPageLines / 2);
    ops.push_back({.flush = true});  // the memo still holds page p
    touch_lines(p, kPageLines / 4, 3 * kPageLines / 4);
    touch_lines(q, 0, kPageLines);
    touch_lines(p, 0, kPageLines);
    touch_lines(q, 0, kPageLines);
    ops.push_back({.flush = true});
    touch_lines(q, kPageLines / 2, kPageLines);
    touch_lines(p, 0, kPageLines);
    touch_lines(q, 0, kPageLines);
    run_oracle(g, ops, "flush mid-page");
  }
}

TEST(MemOracle, TopPageOfTheAddressSpaceOn128ByteLines) {
  // SX-Aurora's 128-byte lines: the top page holds the largest page
  // number the map can see, next to the all-ones empty key.  Walk the top
  // two pages element by element, interleaved with host address 0, then
  // revisit them after a flush in reverse.
  const sim::MachineConfig m = platforms::sx_aurora();
  ASSERT_EQ(m.memory.l1.line_bytes, 128u);
  const Geometry g{m.name, m.memory};
  const std::uintptr_t page = kPageLines * 128;
  const std::uintptr_t top = ~std::uintptr_t{0} - 2 * page + 1;
  std::vector<Op> ops;
  for (std::uintptr_t off = 0; off < 2 * page; off += 8) {
    ops.push_back({.addr = top + off});
    if (off % 512 == 0) ops.push_back({.addr = off / 4});
  }
  ops.push_back({.addr = ~std::uintptr_t{7}});
  ops.push_back({.flush = true});
  for (std::uintptr_t off = 2 * page; off > 0; off -= 64) {
    ops.push_back({.addr = top + off - 8});
  }
  for (std::uintptr_t off = 0; off < 2 * page; off += 8) {
    ops.push_back({.addr = top + off});
  }
  run_oracle(g, ops, "top pages");
}

TEST(MemOracle, TouchRangeMatchesReference) {
  SplitMix64 rng{9};
  for (const Geometry& g : geometries()) {
    mem::MemoryHierarchy fast(g.h);
    mem::reference::MemoryHierarchy ref(g.h);
    for (int i = 0; i < 4000; ++i) {
      const std::uintptr_t addr =
          static_cast<std::uintptr_t>(rng.next() % (1u << 20));
      const std::size_t bytes = static_cast<std::size_t>(rng.next() % 2100);
      std::uint64_t mf = 0;
      std::uint64_t mr = 0;
      ASSERT_EQ(fast.touch_range(addr, bytes, &mf),
                ref.touch_range(addr, bytes, &mr))
          << g.name << " range #" << i;
      ASSERT_EQ(mf, mr) << g.name << " range #" << i;
      if (i % 1000 == 999) {
        fast.flush();
        ref.flush();
      }
    }
    expect_cache_equal(fast.l1(), ref.l1(), g.name + " L1");
    expect_cache_equal(fast.l2(), ref.l2(), g.name + " L2");
  }
}

TEST(MemOracle, StandaloneCacheOnRawAddresses) {
  // The Cache alone, on raw (not canonicalized) host addresses: large
  // line numbers exercise the XOR fold's upper bits on both index paths.
  SplitMix64 rng{5};
  for (const Geometry& g : geometries()) {
    for (const CacheConfig& cfg : {g.h.l1, g.h.l2}) {
      mem::Cache fast(cfg);
      mem::reference::Cache ref(cfg);
      std::uintptr_t prev = 0;
      for (int i = 0; i < 30'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uintptr_t a =
            (r & 3u) == 0 ? prev
                          : static_cast<std::uintptr_t>(
                                (r & 4u) != 0 ? r : r % (1u << 22));
        ASSERT_EQ(fast.access(a), ref.access(a))
            << g.name << " " << cfg.name << " access #" << i;
        if (i % 7000 == 6999) {
          fast.flush();
          ref.flush();
        }
        prev = a;
      }
      expect_cache_equal(fast, ref, g.name + " " + cfg.name);
    }
  }
}

TEST(MemOracle, CopiedHierarchyContinuesIdentically) {
  // MemoryHierarchy is copyable (Vpu copies carry their cache state): a
  // copy taken mid-stream must continue exactly like the original.
  const Geometry g = geometries().front();
  const auto addrs = random_stream(77, 40'000, std::uint64_t{1} << 22);
  mem::MemoryHierarchy a(g.h);
  for (std::size_t i = 0; i < addrs.size() / 2; ++i) a.access(addrs[i]);
  mem::MemoryHierarchy b = a;
  for (std::size_t i = addrs.size() / 2; i < addrs.size(); ++i) {
    const AccessResult ra = a.access(addrs[i]);
    const AccessResult rb = b.access(addrs[i]);
    ASSERT_EQ(ra.level, rb.level) << i;
  }
  EXPECT_EQ(a.l1_misses(), b.l1_misses());
  EXPECT_EQ(a.l2_misses(), b.l2_misses());
}

}  // namespace
