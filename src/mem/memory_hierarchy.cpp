#include "mem/memory_hierarchy.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

namespace vecfd::mem {

namespace {

/// Initial line-map capacity (page slots); the table doubles at half load.
constexpr std::size_t kInitialSlots = 64;

/// Fibonacci hashing: the top bits of page * 2^64/phi spread consecutive
/// page numbers evenly over a power-of-two table.
std::size_t slot_of(std::uintptr_t page, unsigned shift) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(page) * 0x9E3779B97F4A7C15ULL) >> shift);
}

}  // namespace

MemoryHierarchy::MemoryHierarchy(HierarchyConfig cfg)
    : cfg_(cfg),
      l1_(cfg.l1),
      l2_(cfg.l2),
      line_mask_(static_cast<std::uintptr_t>(cfg.l1.line_bytes) - 1),
      line_shift_(static_cast<unsigned>(std::countr_zero(cfg.l1.line_bytes))),
      page_shift_(line_shift_ +
                  static_cast<unsigned>(std::countr_zero(kPageLines))),
      table_(kInitialSlots),
      hash_shift_(64 - static_cast<unsigned>(std::countr_zero(kInitialSlots))) {
  // Canonicalization renames at L1-line granularity; with a larger L2 line
  // the renaming would scramble which L1 lines share an L2 line based on
  // touch order.  No modelled platform does that — refuse rather than be
  // silently wrong.
  if (cfg_.l1.line_bytes != cfg_.l2.line_bytes) {
    throw std::invalid_argument(
        "MemoryHierarchy: L1/L2 line sizes must match");
  }
  // A line must hold a double; this also keeps kNoPage out of the key set.
  if (cfg_.l1.line_bytes < 8) {
    throw std::invalid_argument(
        "MemoryHierarchy: line_bytes must be at least 8");
  }
}

std::size_t MemoryHierarchy::page_block(std::uintptr_t page) {
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = slot_of(page, hash_shift_);; i = (i + 1) & mask) {
    Slot& s = table_[i];
    if (s.page == page) return s.block;
    if (s.page == kNoPage) {
      const std::size_t block = pages_ * kPageLines;
      if (ids_.size() < block + kPageLines) ids_.resize(block + kPageLines);
      s = {page, block};
      ++pages_;
      if (2 * pages_ > table_.size()) grow();  // invalidates s
      return block;
    }
  }
}

std::uint32_t MemoryHierarchy::map_line(std::uintptr_t line) {
  // Line-granular first-touch renaming: the n-th distinct host line becomes
  // canonical line n; offsets inside the line are preserved.  Distinct host
  // lines stay distinct (locality and working-set size are untouched) while
  // the absolute placement the allocator chose is erased.
  if (next_line_ >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "MemoryHierarchy: more than 4294967295 distinct lines touched since "
        "the last flush (canonical line ids are 32-bit)");
  }
  guard::on_line_mapped(this, line, next_line_);
  return static_cast<std::uint32_t>(++next_line_);
}

void MemoryHierarchy::grow() {
  const std::vector<Slot> old =
      std::exchange(table_, std::vector<Slot>(2 * table_.size()));
  --hash_shift_;
  const std::size_t mask = table_.size() - 1;
  for (const Slot& s : old) {
    if (s.page == kNoPage) continue;
    std::size_t i = slot_of(s.page, hash_shift_);
    while (table_[i].page != kNoPage) i = (i + 1) & mask;
    table_[i] = s;
  }
}

double MemoryHierarchy::touch_range(std::uintptr_t addr, std::size_t bytes,
                                    std::uint64_t* l1_misses_out) {
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

void MemoryHierarchy::flush() {
  l1_.flush();
  l2_.flush();
  std::fill(table_.begin(), table_.end(), Slot{});
  std::fill_n(ids_.begin(), pages_ * kPageLines, 0);
  pages_ = 0;
  next_line_ = 0;
  memo_page_ = kNoPage;
  guard::on_hierarchy_reset(this);
}

MemoryHierarchy::~MemoryHierarchy() { guard::on_hierarchy_reset(this); }

}  // namespace vecfd::mem
