// vecfd::sim — steady-state replay of Krylov memory outcomes (DESIGN.md §9
// "Steady-state replay").
//
// Every iteration of a Krylov solve sends the same address stream through
// the memory model: the operator's index arrays and the workspace vectors
// are fixed for the solve.  Replacement is LRU, and one pass of a stream
// leaves each set holding the stream's distinct lines in recency order
// followed by its older lines in their old order — a map that is
// idempotent.  So L1 reaches a fixed point after two identical iterations,
// and L2, which sees only L1 misses, after three: once three consecutive
// iterations issue identical streams, the third one's per-instruction
// outcomes are exact for every later iteration whose stream matches.
//
// A SteadyTape holds one iteration: each memory instruction's address
// signature (MemRef) and its cache outcome (MemTally).  Recording compares
// and overwrites it in place; replay serves matching instructions from it
// without touching the cache model and, at each iteration mark, advances
// the caches' hit/miss totals and LRU clocks by the recorded iteration's
// deltas.  On the first mismatch, and on any exit or outside access while
// part of an iteration was replayed, the replayed prefix is re-run through
// the real hierarchy so its state is exactly the live one.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/memory_hierarchy.h"
#include "sim/vec.h"

namespace vecfd::sim {

/// Address pattern of a Vpu memory instruction.
enum class MemOp : std::uint8_t { kUnit, kStrided, kGather, kScatter, kScalar };

/// The exact address stream of one memory instruction (its signature): the
/// cache outcome is a pure function of it and of the hierarchy's state.
struct MemRef {
  MemOp op = MemOp::kScalar;
  int n = 0;                ///< lanes of kStrided / kGather / kScatter
  std::uintptr_t base = 0;  ///< first byte (kUnit, kScalar) or lane base
  std::ptrdiff_t arg = 0;   ///< kUnit: bytes; kStrided: stride in doubles
  /// kGather / kScatter: per-lane offsets from base, in doubles.  A
  /// negative gather offset is a masked-off pad lane with no traffic.
  const std::ptrdiff_t* lanes = nullptr;
};

/// Calls @p fn(addr) once per cache access of an @p Op instruction, in the
/// live instruction's order: every line of a unit-stride range
/// (line-aligned addresses, @p line_mask = line bytes − 1), every lane
/// otherwise, pad lanes of a gather skipped.  The arguments are MemRef's;
/// @p Lane is the offset type of @p lanes.
template <MemOp Op, class Lane, class Fn>
void for_each_access(std::uintptr_t base, std::ptrdiff_t arg, int n,
                     const Lane* lanes, std::uintptr_t line_mask, Fn&& fn) {
  constexpr std::uintptr_t kElem = sizeof(double);
  if constexpr (Op == MemOp::kUnit) {
    if (arg == 0) return;
    const std::uintptr_t first = base & ~line_mask;
    const std::uintptr_t last =
        (base + static_cast<std::uintptr_t>(arg) - 1) & ~line_mask;
    for (std::uintptr_t a = first;; a += line_mask + 1) {
      fn(a);
      if (a == last) break;
    }
  } else if constexpr (Op == MemOp::kStrided) {
    for (int i = 0; i < n; ++i) {
      fn(base + static_cast<std::uintptr_t>(arg * i) * kElem);
    }
  } else if constexpr (Op == MemOp::kGather) {
    for (int i = 0; i < n; ++i) {
      if (lanes[i] >= 0) {
        fn(base + static_cast<std::uintptr_t>(lanes[i]) * kElem);
      }
    }
  } else if constexpr (Op == MemOp::kScatter) {
    for (int i = 0; i < n; ++i) {
      fn(base + static_cast<std::uintptr_t>(lanes[i]) * kElem);
    }
  } else {
    fn(base);
  }
}

/// for_each_access with the pattern chosen at run time.
template <class Lane, class Fn>
void for_each_access(MemOp op, std::uintptr_t base, std::ptrdiff_t arg, int n,
                     const Lane* lanes, std::uintptr_t line_mask, Fn&& fn) {
  switch (op) {
    case MemOp::kUnit:
      return for_each_access<MemOp::kUnit>(base, arg, n, lanes, line_mask, fn);
    case MemOp::kStrided:
      return for_each_access<MemOp::kStrided>(base, arg, n, lanes, line_mask,
                                              fn);
    case MemOp::kGather:
      return for_each_access<MemOp::kGather>(base, arg, n, lanes, line_mask,
                                             fn);
    case MemOp::kScatter:
      return for_each_access<MemOp::kScatter>(base, arg, n, lanes, line_mask,
                                              fn);
    case MemOp::kScalar:
      return for_each_access<MemOp::kScalar>(base, arg, n, lanes, line_mask,
                                             fn);
  }
}

template <class Fn>
void for_each_access(const MemRef& m, std::uintptr_t line_mask, Fn&& fn) {
  for_each_access(m.op, m.base, m.arg, m.n, m.lanes, line_mask, fn);
}

/// Cache-counter tally of one instruction's line touches, plus the
/// distinct lines of a gather.  Lanes are 8-byte-aligned doubles (or
/// 4-byte-aligned 32-bit integers) and lines are powers of two of at least
/// 8 bytes, so a lane touches exactly one line.
struct MemTally {
  double penalty = 0.0;
  std::uint64_t accesses = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t lines = 0;  ///< distinct lines (kGather only)

  void touch(mem::MemoryHierarchy& m, std::uintptr_t addr) {
    const mem::AccessResult r = m.access(addr);
    penalty += r.penalty;
    ++accesses;
    l1_misses += r.level > 1 ? 1 : 0;
    l2_misses += r.level > 2 ? 1 : 0;
  }
};

/// Test-only switch for the replay oracle: with replay off, every
/// SteadyTape stays disengaged and every access runs the cache model.
/// Process-wide; read when a solve opens its tape.  On by default.
void set_steady_replay_for_testing(bool on);

/// One Vpu's memory-outcome tape (header comment).  Not thread-safe: it is
/// driven by whichever thread drives its Vpu.
class SteadyTape {
 public:
  /// Open a solve (nested opens are counted; only the outermost solve's
  /// marks count, so an inner solve's instructions are part of the outer
  /// iteration's stream).
  void open();
  /// Close a solve; the outermost close settles the tape.
  void close(mem::MemoryHierarchy& h);
  /// Top of a Krylov iteration of the open solve.
  void mark(mem::MemoryHierarchy& h);
  /// Re-run a replayed prefix through @p h and drop the tape; recording
  /// restarts at the next mark.  Called before anything outside the
  /// tape's instruction stream touches or flushes the hierarchy.
  void settle(mem::MemoryHierarchy& h);

  /// Recording or replaying: memory instructions go through the tape.
  bool engaged() const { return state_ >= State::kRecording; }
  bool replaying() const { return state_ == State::kReplaying; }

  /// While replaying: when @p m is the tape's next instruction, sets @p t
  /// to its recorded outcome and returns true.  Otherwise re-runs the
  /// replayed prefix through @p h, falls back to recording and returns
  /// false (the caller runs @p m live and records it).
  bool replay(const MemRef& m, mem::MemoryHierarchy& h, MemTally& t) {
    if (cursor_ == entries_.size() || !same(entries_[cursor_], m)) {
      diverge(h);
      return false;
    }
    const Entry& e = entries_[cursor_++];
    if (indexed(m.op)) lane_end_ = std::max(lane_end_, e.lanes_end());
    t = {e.penalty, e.accesses, e.l1_misses, e.l2_misses, e.lines};
    ++replayed_;
    if constexpr (mem::guard::kEnabled) {
      // The measurement guard's re-alias check still sees every line.
      for_each_access(m, h.config().l1.line_bytes - 1,
                      [&](std::uintptr_t a) { h.retouch(a); });
    }
    return true;
  }
  /// While recording: note @p m's live outcome @p t.
  void record(const MemRef& m, const MemTally& t) {
    if (!matching_ || cursor_ == entries_.size() ||
        !same(entries_[cursor_], m)) {
      return append(m, t);
    }
    Entry& e = entries_[cursor_++];
    if (indexed(m.op)) lane_end_ = std::max(lane_end_, e.lanes_end());
    e.set(t);
  }

  /// Instructions on the tape (introspection for tests and probes).
  std::size_t size() const { return entries_.size(); }
  /// Memory instructions served from the tape since construction.
  std::uint64_t replayed() const { return replayed_; }

 private:
  enum class State : std::uint8_t {
    kClosed,     // no solve open
    kOff,        // open, replay switched off or the iteration too long
    kIdle,       // open, waiting for the next mark
    kRecording,  // comparing against / overwriting the previous iteration
    kReplaying,  // serving the recorded iteration
  };

  /// One recorded instruction: signature and outcome.  Outcome counts are
  /// at most kMaxVl + 1, so 16 bits hold them.
  struct Entry {
    std::uintptr_t base;
    std::ptrdiff_t arg;
    double penalty;
    std::uint32_t lanes_at;  // kGather/kScatter: offsets start in lanes_
    std::uint16_t n;
    MemOp op;
    std::uint16_t accesses;
    std::uint16_t l1_misses;
    std::uint16_t l2_misses;
    std::uint16_t lines;

    std::size_t lanes_end() const { return std::size_t{lanes_at} + n; }
    void set(const MemTally& t) {
      penalty = t.penalty;
      accesses = static_cast<std::uint16_t>(t.accesses);
      l1_misses = static_cast<std::uint16_t>(t.l1_misses);
      l2_misses = static_cast<std::uint16_t>(t.l2_misses);
      lines = static_cast<std::uint16_t>(t.lines);
    }
  };
  static_assert(kMaxVl + 1 <= UINT16_MAX);

  static bool indexed(MemOp op) {
    return op == MemOp::kGather || op == MemOp::kScatter;
  }
  bool same(const Entry& e, const MemRef& m) const {
    return e.op == m.op && e.base == m.base && e.arg == m.arg && e.n == m.n &&
           (!indexed(m.op) || same_lanes(e.lanes_at, m));
  }
  /// The @p m.n offsets at lanes_[at] equal @p m's.
  bool same_lanes(std::uint32_t at, const MemRef& m) const {
    const std::int32_t* t = lanes_.data() + at;
    for (int i = 0; i < m.n; ++i) {
      if (t[i] != m.lanes[i]) return false;
    }
    return true;
  }
  /// record() of an instruction that does not continue the tape.
  void append(const MemRef& m, const MemTally& t);
  /// replay() of an instruction that does not continue the tape: re-run
  /// the replayed prefix and fall back to recording.
  void diverge(mem::MemoryHierarchy& h);
  /// Re-run entries [0, cursor_) through @p h (no Vpu counter is charged).
  void rebuild(mem::MemoryHierarchy& h) const;
  /// Close the recorded iteration at a mark.
  void end_recorded_iteration(mem::MemoryHierarchy& h);
  /// The iteration outgrew the tape's bounds: the rest of the solve runs
  /// live.
  void overflow();
  /// Stop recording the current iteration: it cannot be put on the tape.
  void poison() {
    poisoned_ = true;
    matching_ = false;
  }

  State state_ = State::kClosed;
  int depth_ = 0;
  std::vector<Entry> entries_;
  std::vector<std::int32_t> lanes_;  // gather/scatter offsets
  /// Offset + 1 in lanes_ of a block with a given hash (0: none seen).
  static constexpr unsigned kBlockShift = 64 - 11;  // top 11 hash bits
  static constexpr std::size_t kBlockSlots = std::size_t{1} << (64 - kBlockShift);
  std::array<std::uint32_t, kBlockSlots> block_at_{};
  std::size_t cursor_ = 0;    // next entry of the current iteration
  std::size_t lane_end_ = 0;  // lanes_ used by entries_[0, cursor_)
  bool matching_ = false;     // current iteration == tape so far
  bool poisoned_ = false;     // current iteration cannot be taped
  int streak_ = 0;            // consecutive identical iterations so far
  mem::MemoryHierarchy::Counts at_mark_;  // cache counts at the last mark
  mem::MemoryHierarchy::Counts delta_;    // one taped iteration's advance
  std::uint64_t replayed_ = 0;
};

}  // namespace vecfd::sim
