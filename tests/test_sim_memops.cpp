// Tests for the memory side of the Vpu: cache-counter interaction of every
// access pattern, the vl-dependent miss-overlap interpolation, and the
// folded set-index behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "platforms/platforms.h"
#include "reference_memory_model.h"
#include "sim/vpu.h"

namespace {

using vecfd::platforms::riscv_vec;
using vecfd::sim::MachineConfig;
using vecfd::sim::Vec;
using vecfd::sim::Vpu;

MachineConfig machine_with_penalties() {
  MachineConfig m = riscv_vec();
  m.memory.l2_latency = 10.0;
  m.memory.mem_latency = 100.0;
  return m;
}

TEST(VpuMem, UnitStrideLoadTouchesWholeLines) {
  Vpu v{machine_with_penalties()};
  std::vector<double> a(256, 1.0);
  v.set_vl(256);
  (void)v.vload(a.data());
  // 256 doubles = 2048 bytes = 32-33 lines depending on alignment
  EXPECT_GE(v.counters().l1_accesses, 32u);
  EXPECT_LE(v.counters().l1_accesses, 33u);
  EXPECT_EQ(v.counters().l1_misses, v.counters().l1_accesses);  // cold
}

TEST(VpuMem, RepeatedLoadHitsInL1) {
  Vpu v{machine_with_penalties()};
  std::vector<double> a(64, 1.0);
  v.set_vl(64);
  (void)v.vload(a.data());
  const auto misses_after_first = v.counters().l1_misses;
  (void)v.vload(a.data());
  EXPECT_EQ(v.counters().l1_misses, misses_after_first);
}

TEST(VpuMem, GatherTouchesOneLinePerElement) {
  Vpu v{machine_with_penalties()};
  std::vector<double> table(4096, 1.0);
  std::vector<std::int32_t> idx(16);
  for (int i = 0; i < 16; ++i) idx[i] = i * 64;  // distinct lines
  v.set_vl(16);
  const Vec vi = v.vload_i32(idx.data());
  const auto before = v.counters().l1_accesses;
  (void)v.vgather(table.data(), vi);
  EXPECT_EQ(v.counters().l1_accesses - before, 16u);
}

TEST(VpuMem, ShortUnitLoadsExposeMoreMissLatencyThanLongOnes) {
  // the VEC2 effect: a vl=4 load behaves like a scalar access, a vl=256
  // stream hides almost everything
  const MachineConfig m = machine_with_penalties();
  std::vector<double> a(4096, 1.0);

  auto cost_per_line = [&](int vl) {
    Vpu v{m};
    v.set_vl(vl);
    (void)v.vload(a.data());  // cold: every line misses
    const double base = v.timing().vmem_unit_cycles(vl);
    const double total = v.counters().vector_cycles;
    const double penalty = total - base;
    return penalty / double(v.counters().l1_misses);
  };
  const double short_cost = cost_per_line(4);
  const double long_cost = cost_per_line(256);
  EXPECT_GT(short_cost, 5.0 * long_cost);
}

TEST(VpuMem, StridedStoreExposesMostMissLatency) {
  MachineConfig m = machine_with_penalties();
  Vpu v{m};
  std::vector<double> dst(64 * 64, 0.0);
  v.set_vl(8);
  const Vec x = v.vsplat(1.0);
  const double base = v.timing().vmem_strided_cycles(8);
  const double before = v.counters().vector_cycles;
  v.vstore_strided(dst.data(), 64, x);  // 8 distinct lines, all cold
  const double penalty = v.counters().vector_cycles - before - base;
  // 8 cold misses at l1->mem (110) with strided exposure 0.9
  EXPECT_NEAR(penalty, 8 * 110.0 * m.miss_overlap_strided, 1.0);
}

TEST(VpuMem, ScalarAccessPaysFullPenalty) {
  MachineConfig m = machine_with_penalties();
  Vpu v{m};
  double x = 0.0;
  const double before = v.counters().scalar_cycles;
  (void)v.sload(&x);  // cold: L1+L2 miss
  const double cost = v.counters().scalar_cycles - before;
  EXPECT_NEAR(cost, m.scalar_mem_cpi + 110.0, 1e-9);
  (void)v.sload(&x);  // hit
  const double hit_cost = v.counters().scalar_cycles - before - cost;
  EXPECT_NEAR(hit_cost, m.scalar_mem_cpi, 1e-9);
}

TEST(VpuMem, L2MissesCountedSeparately) {
  MachineConfig m = machine_with_penalties();
  m.memory.l1.size_bytes = 1024;  // tiny L1, normal L2
  m.memory.l1.associativity = 2;
  Vpu v{m};
  // stream 16 KB twice: second pass hits L2, misses L1
  std::vector<double> a(2048, 1.0);
  v.set_vl(256);
  for (int pass = 0; pass < 2; ++pass) {
    for (int off = 0; off < 2048; off += 256) {
      (void)v.vload(a.data() + off);
    }
  }
  EXPECT_GT(v.counters().l1_misses, 256u);  // both passes miss L1
  EXPECT_LE(v.counters().l2_misses, 260u);  // only the first misses L2
}

TEST(VpuMem, FoldedIndexSpreadsPageAlignedBuffers) {
  // buffers at 4 KB stride would collide catastrophically in a modulo
  // cache; folding keeps them spread across sets
  vecfd::mem::Cache c({.size_bytes = 64 * 1024,
                       .line_bytes = 64,
                       .associativity = 2,
                       .name = "t"});
  // 64 KB / (64·2) = 512 sets; touch 64 lines, each 512 lines apart
  // (the modulo-mapping worst case: all to set 0)
  for (int i = 0; i < 64; ++i) {
    c.access(static_cast<std::uintptr_t>(i) * 512 * 64);
  }
  // with 2-way sets and modulo mapping only 2 would survive
  EXPECT_GE(c.resident_lines(), 32u);
}

// ---- per-lane reference for the indexed and strided instructions ----------
//
// Vpu touches each lane straight through MemoryHierarchy::access into a
// per-instruction tally, and counts vgather's distinct lines with a
// generation-stamped set.  The reference replays every lane address, in
// lane order, through the straightforward model of
// tests/reference_memory_model.h, and counts distinct lines with
// sort + unique.

struct SplitMix64 {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
};

/// Expected counter deltas of one instruction.
struct LaneRef {
  std::uint64_t l1_accesses = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t gather_lanes = 0;
  std::uint64_t lines = 0;
  std::uint64_t pads = 0;
};

class LaneReference {
 public:
  explicit LaneReference(const MachineConfig& m)
      : mem_(m.memory), line_bytes_(m.memory.l1.line_bytes) {}

  /// Lanes at @p addrs; a null address is a pad lane.
  LaneRef issue(const std::vector<const double*>& addrs) {
    LaneRef r;
    std::vector<std::uintptr_t> lines;
    for (const double* q : addrs) {
      if (q == nullptr) {
        ++r.pads;
        continue;
      }
      const auto a = reinterpret_cast<std::uintptr_t>(q);
      const vecfd::mem::AccessResult res = mem_.access(a);
      ++r.l1_accesses;
      r.l1_misses += res.level > 1 ? 1 : 0;
      r.l2_misses += res.level > 2 ? 1 : 0;
      lines.push_back(a & ~(line_bytes_ - 1));
    }
    std::sort(lines.begin(), lines.end());
    r.lines = static_cast<std::uint64_t>(
        std::unique(lines.begin(), lines.end()) - lines.begin());
    r.gather_lanes = r.l1_accesses;
    return r;
  }

 private:
  vecfd::mem::reference::MemoryHierarchy mem_;
  std::uintptr_t line_bytes_;
};

void expect_deltas(const vecfd::sim::Counters& before,
                   const vecfd::sim::Counters& after, const LaneRef& ref,
                   bool gather, const std::string& what) {
  EXPECT_EQ(after.l1_accesses - before.l1_accesses, ref.l1_accesses) << what;
  EXPECT_EQ(after.l1_misses - before.l1_misses, ref.l1_misses) << what;
  EXPECT_EQ(after.l2_misses - before.l2_misses, ref.l2_misses) << what;
  if (gather) {
    EXPECT_EQ(after.gather_lanes - before.gather_lanes, ref.gather_lanes)
        << what;
    EXPECT_EQ(after.gather_lines_touched - before.gather_lines_touched,
              ref.lines)
        << what;
    EXPECT_EQ(after.pad_lanes - before.pad_lanes, ref.pads) << what;
  }
}

TEST(VpuMem, IndexedAndStridedLanesMatchPerLaneReference) {
  for (const MachineConfig& m : {riscv_vec(), vecfd::platforms::sx_aurora()}) {
    ASSERT_EQ(m.vlmax, vecfd::sim::kMaxVl) << m.name;  // a full line set
    Vpu v{m};
    LaneReference ref{m};
    const std::size_t line_elems = m.memory.l1.line_bytes / 8;
    // 2 MiB of doubles: larger than either platform's L2, so the streams
    // see L1 and L2 misses alike.
    std::vector<double> table(std::size_t{1} << 18);
    std::iota(table.begin(), table.end(), 0.0);
    // First element of a whole line, whatever the buffer's alignment.
    const std::size_t first_line =
        (line_elems -
         (reinterpret_cast<std::uintptr_t>(table.data()) / 8) % line_elems) %
        line_elems;
    const std::size_t lines_in_table =
        (table.size() - first_line) / line_elems;

    SplitMix64 rng{static_cast<std::uint64_t>(m.vlmax) * 1000 + 17};
    Vec idx;
    for (int instr = 0; instr < 1500; ++instr) {
      const std::uint64_t r = rng.next();
      const int n = 1 + static_cast<int>((r >> 8) % m.vlmax);
      const int kind = static_cast<int>(r % 8);
      // Repeat the previous index vector about one time in four: the same
      // lines must be counted again, one generation later.
      const bool repeat = !idx.empty() && ((r >> 20) & 3u) == 0;
      if (!repeat) {
        idx = Vec(kind == 4 ? m.vlmax : n);
        const std::size_t one_line =
            first_line + ((r >> 24) % lines_in_table) * line_elems;
        const std::size_t stride_lines = lines_in_table / m.vlmax;
        for (int i = 0; i < idx.size(); ++i) {
          const std::uint64_t q = rng.next();
          double k = 0.0;
          switch (kind) {
            case 0:  // every lane a pad
              k = -1.0;
              break;
            case 1:  // every lane on one line
              k = static_cast<double>(one_line + q % line_elems);
              break;
            case 4:  // vlmax = 256 lanes on 256 distinct lines, shuffled below
              k = static_cast<double>(first_line +
                                      i * stride_lines * line_elems +
                                      q % line_elems);
              break;
            case 5:  // a 40-line window: many shared lines
              k = static_cast<double>(one_line % (table.size() - 40 *
                                                  line_elems) +
                                      q % (40 * line_elems));
              break;
            default:  // anywhere, one lane in eight a pad
              k = (q & 7u) == 0 ? -1.0
                                : static_cast<double>((q >> 3) % table.size());
          }
          idx[i] = k;
        }
        if (kind == 4) {
          for (int i = idx.size() - 1; i > 0; --i) {
            std::swap(idx[i], idx[static_cast<int>(rng.next() % (i + 1))]);
          }
        }
      }
      const std::string what = m.name + " instr " + std::to_string(instr) +
                               " kind " + std::to_string(kind);

      // vgather: pad lanes carry no traffic.
      std::vector<const double*> lanes;
      for (int i = 0; i < idx.size(); ++i) {
        lanes.push_back(idx[i] < 0 ? nullptr
                                   : table.data() +
                                         static_cast<std::size_t>(idx[i]));
      }
      vecfd::sim::Counters before = v.counters();
      (void)v.vgather(table.data(), idx);
      expect_deltas(before, v.counters(), ref.issue(lanes), true,
                    what + " vgather");

      // vscatter over the same indices with the pads made real.
      Vec sidx = idx;
      lanes.clear();
      for (int i = 0; i < sidx.size(); ++i) {
        if (sidx[i] < 0) sidx[i] = static_cast<double>(i);
        lanes.push_back(table.data() + static_cast<std::size_t>(sidx[i]));
      }
      before = v.counters();
      v.vscatter(table.data(), sidx, sidx);
      expect_deltas(before, v.counters(), ref.issue(lanes), false,
                    what + " vscatter");

      // Strided load and store, 1..64 elements apart.
      const std::ptrdiff_t stride = 1 + static_cast<std::ptrdiff_t>(r >> 58);
      v.set_vl(n);
      const std::size_t start = (r >> 30) % (table.size() - 64 * n);
      lanes.clear();
      for (int i = 0; i < n; ++i) {
        lanes.push_back(table.data() + start + i * stride);
      }
      before = v.counters();
      const Vec x = v.vload_strided(table.data() + start, stride);
      expect_deltas(before, v.counters(), ref.issue(lanes), false,
                    what + " vload_strided");
      before = v.counters();
      v.vstore_strided(table.data() + start, stride, x);
      expect_deltas(before, v.counters(), ref.issue(lanes), false,
                    what + " vstore_strided");
      if (HasFailure()) return;
    }
    // The open phase received exactly what the totals did.
    const vecfd::sim::Counters& ph = v.profiler().phase(0);
    EXPECT_EQ(ph.l1_accesses, v.counters().l1_accesses);
    EXPECT_EQ(ph.l1_misses, v.counters().l1_misses);
    EXPECT_EQ(ph.l2_misses, v.counters().l2_misses);
    EXPECT_EQ(ph.gather_lines_touched, v.counters().gather_lines_touched);
    EXPECT_EQ(ph.pad_lanes, v.counters().pad_lanes);
    EXPECT_GT(v.counters().l2_misses, 0u);
  }
}

TEST(VpuMem, TraceObserverSeesMemoryOps) {
  Vpu v{riscv_vec()};
  struct Probe final : vecfd::sim::InstrObserver {
    int mem = 0;
    void on_instr(int, vecfd::sim::InstrKind k, int, double) override {
      if (vecfd::sim::is_vector_memory(k)) ++mem;
    }
  } probe;
  v.set_observer(&probe);
  std::vector<double> a(16, 1.0);
  std::vector<std::int32_t> idx(16, 0);
  v.set_vl(16);
  const Vec vi = v.vload_i32(idx.data());
  (void)v.vgather(a.data(), vi);
  (void)v.vload_strided(a.data(), 1);
  v.vstore(a.data(), v.vsplat(2.0));
  EXPECT_EQ(probe.mem, 4);
}

}  // namespace
