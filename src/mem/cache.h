// vecfd::mem — set-associative cache model.
//
// The paper's analysis of the non-vectorized phases (Figure 9, Table 6)
// hinges on L1/L2 data-cache-miss behaviour as the application working set
// grows with VECTOR_SIZE.  This module provides the cache substrate that
// the vecfd::sim machine consults on every modelled memory access.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vecfd::mem {

/// Geometry and identity of one cache level.
struct CacheConfig {
  std::size_t size_bytes = 32 * 1024;  ///< total capacity
  std::size_t line_bytes = 64;         ///< line size (power of two, >= 8)
  unsigned associativity = 8;          ///< ways per set
  std::string name = "L1";             ///< used in reports and errors

  /// Number of sets implied by the geometry (0 for a capacity-less cache).
  std::size_t num_sets() const {
    const std::size_t way_bytes = line_bytes * associativity;
    return way_bytes == 0 ? 0 : size_bytes / way_bytes;
  }
};

/// Set-associative, write-allocate cache with LRU replacement.
///
/// The model is tag-only: it tracks which lines are resident, not their
/// contents (the simulator executes real arithmetic on real host memory, so
/// contents are always exact).  A `size_bytes == 0` configuration is valid
/// and behaves as "always miss" — used by tests and by machine configs that
/// model a cache-less path.
class Cache {
 public:
  /// @throws std::invalid_argument for non-power-of-two line sizes, lines
  ///         smaller than a double (8 bytes), or zero associativity with
  ///         non-zero capacity.
  explicit Cache(CacheConfig cfg);

  /// Touch the line containing @p addr.  @return true on hit.  On a miss the
  /// line is installed, evicting the LRU way of its set.
  ///
  /// Fast path: a touch of the same line as the previous access is a hit
  /// with no way scan and no LRU re-stamp.  That way already holds the
  /// cache-wide largest stamp, so re-stamping it could not change any LRU
  /// comparison — the result is exactly the full lookup's.
  bool access(std::uintptr_t addr) {
    const std::uintptr_t line = addr >> line_shift_;
    if (line == mru_line_ && mru_valid_) {
      ++hits_;
      return true;
    }
    return access_line(line);
  }

  /// Drop all resident lines and reset nothing else (hit/miss counters are
  /// preserved so a flush mid-measurement stays visible in the statistics).
  void flush();

  /// Hit/miss totals and the LRU clock (the stamp the next full lookup
  /// hands out, minus one).
  struct Counts {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t tick = 0;
  };
  Counts counts() const { return {hits_, misses_, tick_}; }
  /// Bulk-advance hits, misses and the LRU clock by @p d without touching
  /// the tag or stamp arrays.  Steady-state replay (DESIGN.md §9) applies
  /// one replayed iteration's deltas here: the arrays already hold that
  /// iteration's LRU fixed point, and only the relative order of stamps is
  /// ever compared, so the clock need only stay above every stamp.
  void advance(const Counts& d) {
    hits_ += d.hits;
    misses_ += d.misses;
    tick_ += d.tick;
  }

  const CacheConfig& config() const { return cfg_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t accesses() const { return hits_ + misses_; }

  /// Number of lines currently resident (for tests / introspection).
  std::size_t resident_lines() const;

 private:
  /// Full set lookup of line number @p line (the non-MRU path of access).
  bool access_line(std::uintptr_t line);

  /// Tag of an empty way.  Never a line number: lines are at least 8
  /// bytes, so a line number has its top three bits clear.
  static constexpr std::uintptr_t kNoTag = ~std::uintptr_t{0};

  CacheConfig cfg_;
  std::size_t num_sets_;
  unsigned line_shift_;
  /// Power-of-two set counts (every modelled platform) index with
  /// shift/mask; any other geometry keeps the exact division.
  bool pow2_sets_ = false;
  unsigned set_shift_ = 0;
  unsigned ways_ = 0;  // associativity
  /// num_sets_ * ways_ entries each, set-major.  A resident way holds its
  /// line number and an LRU stamp (larger == more recent, always >= 1); an
  /// empty way holds kNoTag and stamp 0.
  std::vector<std::uintptr_t> tags_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  /// Line of the previous access; it is resident and holds the largest
  /// stamp until the next access or flush().
  std::uintptr_t mru_line_ = 0;
  bool mru_valid_ = false;
};

}  // namespace vecfd::mem
