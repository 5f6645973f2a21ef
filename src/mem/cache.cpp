#include "mem/cache.h"

#include <bit>
#include <stdexcept>

namespace vecfd::mem {

Cache::Cache(CacheConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.line_bytes == 0 || !std::has_single_bit(cfg_.line_bytes)) {
    throw std::invalid_argument("cache '" + cfg_.name +
                                "': line_bytes must be a power of two");
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
  ways_.assign(num_sets_ * cfg_.associativity, Way{});
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
  Way* base = &ways_[set * cfg_.associativity];
  ++tick_;

  Way* victim = base;
  for (unsigned w = 0; w < cfg_.associativity; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == line) {
      way.stamp = tick_;
      ++hits_;
      return true;
    }
    if (!way.valid) {
      victim = &way;  // prefer an invalid way over evicting
    } else if (victim->valid && way.stamp < victim->stamp) {
      victim = &way;
    }
  }
  victim->tag = line;
  victim->stamp = tick_;
  victim->valid = true;
  ++misses_;
  return false;
}

void Cache::flush() {
  for (Way& w : ways_) w.valid = false;
  mru_valid_ = false;
}

std::size_t Cache::resident_lines() const {
  std::size_t n = 0;
  for (const Way& w : ways_) n += w.valid ? 1 : 0;
  return n;
}

}  // namespace vecfd::mem
