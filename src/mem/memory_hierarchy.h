// vecfd::mem — two-level cache hierarchy with latency attribution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/cache.h"
#include "mem/measurement_guard.h"

namespace vecfd::mem {

/// Latency parameters and per-level geometry of the modelled hierarchy.
/// Defaults approximate the RISC-V VEC FPGA prototype of the paper (§2.1.3:
/// 1 MB L2, DDR4 main memory; L1 geometry is not published — see DESIGN.md).
struct HierarchyConfig {
  CacheConfig l1{.size_bytes = 64 * 1024,
                 .line_bytes = 64,
                 .associativity = 8,
                 .name = "L1D"};
  CacheConfig l2{.size_bytes = 1024 * 1024,
                 .line_bytes = 64,
                 .associativity = 16,
                 .name = "L2"};
  double l1_latency = 0.0;   ///< cycles beyond the pipelined base cost
  double l2_latency = 14.0;  ///< extra cycles when served from L2
  double mem_latency = 80.0; ///< extra cycles when served from DRAM
};

/// Which level served an access, plus the extra (beyond-L1) cycle cost.
struct AccessResult {
  int level = 1;        ///< 1 = L1 hit, 2 = L2 hit, 3 = memory
  double penalty = 0.0; ///< extra cycles attributable to this access
};

/// Inclusive two-level data-cache hierarchy.
///
/// Each `access()` touches one cache line; vector memory instructions call
/// `touch_range()` / repeated `access()` per element depending on their
/// access pattern (the caller — vecfd::sim — decides, because the pattern is
/// an instruction property).
///
/// Addresses are canonicalized before they reach the caches: each host
/// cache line is renamed, in first-touch order, onto a dense simulated
/// line space with in-line offsets preserved.  Host virtual addresses only
/// identify a line — where the allocator placed a buffer (ASLR, heap
/// history, per-thread arenas) cannot influence hit/miss behaviour, so a
/// measurement is a pure function of its access sequence.  Together with
/// the line-aligned global allocator (mem/aligned_new.cpp) this makes
/// sweeps reproducible run-to-run and lets the parallel sweep engine
/// promise byte-identical results to the serial path.
///
/// The renaming is grouped by host page (kPageLines consecutive lines): an
/// open-addressing table (power-of-two capacity, linear probing, all-ones
/// empty key) maps a page to a dense block of 32-bit per-line canonical
/// ids, fronted by a last-page memo.  Consecutive lines of a stream share
/// one memo hit and one host cache line of ids, and the per-access host
/// path allocates nothing once the table has grown to the working set.
/// The reference model it replaced is the differential oracle of
/// tests/test_mem_oracle.cpp.
class MemoryHierarchy {
 public:
  /// Lines per page of the line map (a power of two).
  static constexpr std::size_t kPageLines = 64;

  explicit MemoryHierarchy(HierarchyConfig cfg);
  /// Closes the measurement region in VECFD_MEASUREMENT_GUARD builds
  /// (measurement_guard.h); trivial otherwise.
  ~MemoryHierarchy();
  MemoryHierarchy(const MemoryHierarchy&) = default;
  MemoryHierarchy& operator=(const MemoryHierarchy&) = default;

  /// Touch the line containing @p addr.
  AccessResult access(std::uintptr_t addr) {
    const std::uintptr_t canon = canonical(addr);
    if (l1_.access(canon)) {
      return {1, cfg_.l1_latency};
    }
    if (l2_.access(canon)) {
      return {2, cfg_.l1_latency + cfg_.l2_latency};
    }
    return {3, cfg_.l1_latency + cfg_.l2_latency + cfg_.mem_latency};
  }

  /// Re-touch of @p addr's already-mapped line with no cache access: the
  /// measurement guard's re-alias check alone, for an access whose cache
  /// outcome steady-state replay serves from its tape (a no-op outside
  /// VECFD_MEASUREMENT_GUARD builds).
  void retouch(std::uintptr_t addr) {
    guard::on_line_retouched(this, addr & ~line_mask_);
  }

  /// Both caches' hit/miss totals and LRU clocks (Cache::Counts).
  struct Counts {
    Cache::Counts l1;
    Cache::Counts l2;
  };
  Counts counts() const { return {l1_.counts(), l2_.counts()}; }
  /// Cache::advance on both levels.
  void advance(const Counts& d) {
    l1_.advance(d.l1);
    l2_.advance(d.l2);
  }

  /// Touch every line overlapping [addr, addr + bytes).  Returns the summed
  /// penalty and the count of L1 misses in @p l1_misses_out (optional).
  double touch_range(std::uintptr_t addr, std::size_t bytes,
                     std::uint64_t* l1_misses_out = nullptr);

  /// Invalidate all cached lines and forget the canonical address mapping
  /// (e.g. between independent experiments).
  void flush();

  const HierarchyConfig& config() const { return cfg_; }
  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }

  std::uint64_t l1_accesses() const { return l1_.accesses(); }
  std::uint64_t l1_misses() const { return l1_.misses(); }
  std::uint64_t l2_misses() const { return l2_.misses(); }

 private:
  /// Empty-slot key and cleared memo.  Never a page number: lines are at
  /// least 8 bytes, so a page number has its top nine bits clear.  (Page 0
  /// holds host address 0, a valid line, so it cannot be the sentinel.)
  static constexpr std::uintptr_t kNoPage = ~std::uintptr_t{0};

  struct Slot {
    std::uintptr_t page = kNoPage;
    std::size_t block = 0;  // offset of the page's id block in ids_
  };

  /// Map @p addr into the dense first-touch canonical space.
  std::uintptr_t canonical(std::uintptr_t addr) {
    const std::uintptr_t page = addr >> page_shift_;
    if (page != memo_page_) {
      memo_block_ = page_block(page);
      memo_page_ = page;
    }
    const std::uintptr_t line = addr & ~line_mask_;
    std::uint32_t& id =
        ids_[memo_block_ + ((addr >> line_shift_) & (kPageLines - 1))];
    if (id == 0) {
      id = map_line(line);
    } else {
      // Aborts in guard builds if this line's backing buffer was freed
      // mid-measurement and a new allocation is re-aliasing it; a no-op
      // otherwise (measurement_guard.h).
      guard::on_line_retouched(this, line);
    }
    return (static_cast<std::uintptr_t>(id - 1) << line_shift_) |
           (addr & line_mask_);
  }

  /// Offset in ids_ of host page @p page's id block, allocating a zeroed
  /// block on the page's first touch.
  std::size_t page_block(std::uintptr_t page);
  /// Canonical id (1-based) for host line @p line on its first touch.
  /// @throws std::length_error past UINT32_MAX distinct lines.
  std::uint32_t map_line(std::uintptr_t line);
  /// Double the table capacity and re-insert every mapped page.
  void grow();

  HierarchyConfig cfg_;
  Cache l1_;
  Cache l2_;
  std::uintptr_t line_mask_;
  unsigned line_shift_;
  unsigned page_shift_;      // line_shift_ + log2(kPageLines)
  std::vector<Slot> table_;  // power-of-two size, linear probing
  unsigned hash_shift_;      // 64 - log2(table_.size())
  std::size_t pages_ = 0;    // mapped pages == id blocks in use
  /// kPageLines ids per block, block n at offset n * kPageLines; id 0 is
  /// an unmapped line, id n + 1 canonical line n.  Blocks past pages_ are
  /// all zero.
  std::vector<std::uint32_t> ids_;
  std::uint64_t next_line_ = 0;
  std::uintptr_t memo_page_ = kNoPage;  // host page of the previous access
  std::size_t memo_block_ = 0;          // ... and its id block
};

}  // namespace vecfd::mem
