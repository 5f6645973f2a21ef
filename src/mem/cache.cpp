#include "mem/cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace vecfd::mem {

Cache::Cache(CacheConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.line_bytes == 0 || !std::has_single_bit(cfg_.line_bytes)) {
    throw std::invalid_argument("cache '" + cfg_.name +
                                "': line_bytes must be a power of two");
  }
  // A line must hold a double; this also keeps kNoTag out of the key set.
  if (cfg_.line_bytes < 8) {
    throw std::invalid_argument("cache '" + cfg_.name +
                                "': line_bytes must be at least 8");
  }
  if (cfg_.size_bytes != 0 && cfg_.associativity == 0) {
    throw std::invalid_argument("cache '" + cfg_.name +
                                "': associativity must be > 0");
  }
  num_sets_ = cfg_.num_sets();
  if (cfg_.size_bytes != 0 && num_sets_ == 0) {
    throw std::invalid_argument("cache '" + cfg_.name +
                                "': capacity smaller than one set");
  }
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.line_bytes));
  pow2_sets_ = std::has_single_bit(num_sets_);
  if (pow2_sets_) {
    set_shift_ = static_cast<unsigned>(std::countr_zero(num_sets_));
  }
  ways_ = cfg_.associativity;
  tags_.assign(num_sets_ * ways_, kNoTag);
  stamps_.assign(num_sets_ * ways_, 0);
}

bool Cache::access_line(std::uintptr_t line) {
  if (num_sets_ == 0) {  // capacity-less cache: every access misses
    ++misses_;
    return false;
  }
  // XOR-fold the upper line bits into the set index.  Virtual-address
  // simulation is otherwise hostage to where the allocator happened to
  // place a buffer; folding models the physical-page scattering real
  // hierarchies see and removes pathological alias patterns.
  const std::uintptr_t folded =
      pow2_sets_ ? line ^ (line >> set_shift_) : line ^ (line / num_sets_);
  const std::size_t set = static_cast<std::size_t>(
      pow2_sets_ ? folded & (num_sets_ - 1) : folded % num_sets_);
  mru_line_ = line;
  mru_valid_ = true;
  const std::size_t base = set * ways_;
  std::uintptr_t* tags = tags_.data() + base;
  std::uint64_t* stamps = stamps_.data() + base;
  ++tick_;

  // Branch-free hit scan over the set's contiguous tags: a line sits in at
  // most one way, so the last match is the match.  Scanning every way is
  // cheaper than an early exit that mispredicts on the hit position.
  unsigned hit = ways_;
  for (unsigned w = 0; w < ways_; ++w) {
    hit = tags[w] == line ? w : hit;
  }
  if (hit != ways_) {
    stamps[hit] = tick_;
    ++hits_;
    return true;
  }
  // Victim: the smallest stamp.  Empty ways hold stamp 0 and resident ways
  // distinct stamps >= 1, so an empty way is taken whenever one exists and
  // otherwise the least recently used line is evicted.
  unsigned victim = 0;
  std::uint64_t oldest = stamps[0];
  for (unsigned w = 1; w < ways_; ++w) {
    if (stamps[w] < oldest) {
      oldest = stamps[w];
      victim = w;
    }
  }
  tags[victim] = line;
  stamps[victim] = tick_;
  ++misses_;
  return false;
}

void Cache::flush() {
  std::fill(tags_.begin(), tags_.end(), kNoTag);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  mru_valid_ = false;
}

std::size_t Cache::resident_lines() const {
  return static_cast<std::size_t>(
      std::count_if(stamps_.begin(), stamps_.end(),
                    [](std::uint64_t s) { return s != 0; }));
}

}  // namespace vecfd::mem
