// Reference (oracle) memory model for test_mem_oracle.
//
// This is the straightforward cache model src/mem used before its hot path
// was made allocation- and division-free: an exact-division set index, a
// full way scan with a re-stamp on every access, and a node-based
// std::unordered_map for the first-touch host-line → canonical-line
// renaming.  It is kept here, test-only, as the exact oracle the fast
// model (mem/cache.h, mem/memory_hierarchy.h) is differentially tested
// against: for any access stream both must agree access by access on the
// served level and penalty, and on every hit/miss/resident-line count.
//
// The code is the pre-optimization model, moved unchanged apart from its
// namespace, header-only form and the measurement-guard hooks (dropped:
// the oracle is never a measured hierarchy).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "mem/cache.h"
#include "mem/memory_hierarchy.h"

namespace vecfd::mem::reference {

class Cache {
 public:
  explicit Cache(CacheConfig cfg) : cfg_(std::move(cfg)) {
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
    ways_.assign(num_sets_ * cfg_.associativity, Way{});
  }

  bool access(std::uintptr_t addr) {
    if (num_sets_ == 0) {  // capacity-less cache: every access misses
      ++misses_;
      return false;
    }
    const std::uintptr_t line = addr >> line_shift_;
    const std::uintptr_t folded = line ^ (line / num_sets_);
    const std::size_t set = static_cast<std::size_t>(folded % num_sets_);
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

  void flush() {
    for (Way& w : ways_) w.valid = false;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  std::size_t resident_lines() const {
    std::size_t n = 0;
    for (const Way& w : ways_) n += w.valid ? 1 : 0;
    return n;
  }

 private:
  struct Way {
    std::uintptr_t tag = 0;
    std::uint64_t stamp = 0;  // LRU timestamp; larger == more recent
    bool valid = false;
  };

  CacheConfig cfg_;
  std::size_t num_sets_;
  unsigned line_shift_;
  std::vector<Way> ways_;  // num_sets_ * associativity, set-major
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(HierarchyConfig cfg)
      : cfg_(cfg),
        l1_(cfg.l1),
        l2_(cfg.l2),
        line_mask_(static_cast<std::uintptr_t>(cfg.l1.line_bytes) - 1) {
    if (cfg_.l1.line_bytes != cfg_.l2.line_bytes) {
      throw std::invalid_argument(
          "MemoryHierarchy: L1/L2 line sizes must match");
    }
  }

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

  double touch_range(std::uintptr_t addr, std::size_t bytes,
                     std::uint64_t* l1_misses_out = nullptr) {
    if (bytes == 0) return 0.0;
    const std::uintptr_t first = addr & ~line_mask_;
    const std::uintptr_t last = (addr + bytes - 1) & ~line_mask_;
    double penalty = 0.0;
    std::uint64_t misses = 0;
    for (std::uintptr_t a = first; a <= last; a += line_mask_ + 1) {
      const AccessResult r = access(a);
      penalty += r.penalty;
      misses += r.level > 1 ? 1 : 0;
    }
    if (l1_misses_out != nullptr) *l1_misses_out += misses;
    return penalty;
  }

  void flush() {
    l1_.flush();
    l2_.flush();
    line_map_.clear();
    next_line_ = 0;
  }

  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }

 private:
  std::uintptr_t canonical(std::uintptr_t addr) {
    const std::uintptr_t line = addr & ~line_mask_;
    const auto [it, inserted] =
        line_map_.try_emplace(line, next_line_ * (line_mask_ + 1));
    if (inserted) ++next_line_;
    return it->second | (addr & line_mask_);
  }

  HierarchyConfig cfg_;
  Cache l1_;
  Cache l2_;
  std::uintptr_t line_mask_;
  std::unordered_map<std::uintptr_t, std::uintptr_t> line_map_;
  std::uintptr_t next_line_ = 0;
};

}  // namespace vecfd::mem::reference
