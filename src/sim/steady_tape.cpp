#include "sim/steady_tape.h"

#include <algorithm>
#include <atomic>
#include <limits>

namespace vecfd::sim {

namespace {

std::atomic<bool> g_replay{true};

/// Bound on one taped iteration: 4 Ki instructions (160 KiB of entries)
/// and 64 Ki distinct gather/scatter lane offsets (256 KiB).  A longer
/// iteration — a scalar-machine solve issues one instruction per element
/// access — runs live, untaped.
constexpr std::size_t kMaxEntries = std::size_t{4} << 10;
constexpr std::size_t kMaxLanes = std::size_t{64} << 10;

/// Make room for @p n elements in @p v, doubling, but never reserving
/// more than @p max.
template <class T>
void grow_to(std::vector<T>& v, std::size_t n, std::size_t max) {
  if (n > v.capacity()) v.reserve(std::min(std::max(n, 2 * v.capacity()), max));
}

std::uintptr_t line_mask(const mem::MemoryHierarchy& h) {
  return static_cast<std::uintptr_t>(h.config().l1.line_bytes) - 1;
}

mem::Cache::Counts minus(const mem::Cache::Counts& a,
                         const mem::Cache::Counts& b) {
  return {a.hits - b.hits, a.misses - b.misses, a.tick - b.tick};
}

}  // namespace

void set_steady_replay_for_testing(bool on) {
  g_replay.store(on, std::memory_order_relaxed);
}

void SteadyTape::open() {
  if (depth_++ > 0) return;
  state_ = g_replay.load(std::memory_order_relaxed) ? State::kIdle
                                                     : State::kOff;
}

void SteadyTape::close(mem::MemoryHierarchy& h) {
  if (depth_ == 0 || --depth_ > 0) return;
  settle(h);
  state_ = State::kClosed;
}

void SteadyTape::settle(mem::MemoryHierarchy& h) {
  if (!engaged()) return;
  if (state_ == State::kReplaying) rebuild(h);
  state_ = State::kIdle;
  entries_.clear();
  lanes_.clear();
  cursor_ = 0;
  lane_end_ = 0;
  streak_ = 0;
}

void SteadyTape::mark(mem::MemoryHierarchy& h) {
  if (depth_ != 1) return;
  switch (state_) {
    case State::kClosed:
    case State::kOff:
      return;
    case State::kIdle:
      // First iteration: nothing to compare against yet.
      state_ = State::kRecording;
      entries_.clear();
      lanes_.clear();
      streak_ = 0;
      at_mark_ = h.counts();
      cursor_ = 0;
      lane_end_ = 0;
      matching_ = true;
      poisoned_ = false;
      return;
    case State::kReplaying:
      if (cursor_ == entries_.size()) {  // the whole tape again: wrap
        h.advance(delta_);
        cursor_ = 0;
        lane_end_ = 0;
        return;
      }
      // The iteration ended inside the tape: it is the tape's prefix, with
      // exact outcomes, and becomes the recorded iteration.
      rebuild(h);
      state_ = State::kRecording;
      matching_ = false;
      end_recorded_iteration(h);
      return;
    case State::kRecording:
      end_recorded_iteration(h);
      return;
  }
}

void SteadyTape::end_recorded_iteration(mem::MemoryHierarchy& h) {
  const bool same_stream =
      matching_ && !poisoned_ && cursor_ == entries_.size();
  entries_.resize(cursor_);
  lanes_.resize(lane_end_);
  streak_ = poisoned_ ? 0 : same_stream ? streak_ + 1 : 1;
  const mem::MemoryHierarchy::Counts now = h.counts();
  // Three identical streams: L1 and then L2 are at their fixed points, so
  // this iteration's outcomes repeat exactly while the stream does.
  if (streak_ >= 3) {
    state_ = State::kReplaying;
    delta_ = {minus(now.l1, at_mark_.l1), minus(now.l2, at_mark_.l2)};
  }
  at_mark_ = now;
  cursor_ = 0;
  lane_end_ = 0;
  matching_ = true;
  poisoned_ = false;
}

void SteadyTape::overflow() {
  // Nothing of this iteration was replayed, so the hierarchy is live.
  entries_.clear();
  lanes_.clear();
  state_ = State::kOff;
}

void SteadyTape::diverge(mem::MemoryHierarchy& h) {
  rebuild(h);
  state_ = State::kRecording;
  matching_ = false;
}

void SteadyTape::append(const MemRef& m, const MemTally& t) {
  if (poisoned_) return;
  matching_ = false;
  entries_.resize(cursor_);
  lanes_.resize(lane_end_);
  if (entries_.size() == kMaxEntries) return overflow();
  Entry e{};
  e.base = m.base;
  e.arg = m.arg;
  e.n = static_cast<std::uint16_t>(m.n);
  e.op = m.op;
  e.set(t);
  if (indexed(m.op)) {
    // One operator's index blocks recur within an iteration: k columns of
    // a blocked SpMV, each SpMV of a Chebyshev rung.  Store each distinct
    // block once; a hash slot remembers where a block was seen, and a
    // stale or colliding slot just fails the comparison.
    std::uint64_t hash = 0xcbf29ce484222325ULL ^ static_cast<std::uint64_t>(m.n);
    for (int i = 0; i < m.n; ++i) {
      hash = (hash ^ static_cast<std::uint64_t>(m.lanes[i])) *
             0x100000001b3ULL;
    }
    std::uint32_t& seen = block_at_[hash >> kBlockShift];
    if (seen != 0 && std::size_t{seen} - 1 + m.n <= lanes_.size() &&
        same_lanes(seen - 1, m)) {
      e.lanes_at = seen - 1;
    } else {
      const std::size_t at = lanes_.size();
      const std::size_t end = at + static_cast<std::size_t>(m.n);
      if (end > kMaxLanes) return overflow();
      grow_to(lanes_, end, kMaxLanes);
      lanes_.resize(end);
      for (int i = 0; i < m.n; ++i) {
        if (m.lanes[i] < std::numeric_limits<std::int32_t>::min() ||
            m.lanes[i] > std::numeric_limits<std::int32_t>::max()) {
          lanes_.resize(at);
          return poison();
        }
        lanes_[at + static_cast<std::size_t>(i)] =
            static_cast<std::int32_t>(m.lanes[i]);
      }
      e.lanes_at = static_cast<std::uint32_t>(at);
      seen = e.lanes_at + 1;
    }
    lane_end_ = std::max(lane_end_, e.lanes_end());
  }
  grow_to(entries_, entries_.size() + 1, kMaxEntries);
  entries_.push_back(e);
  ++cursor_;
}

void SteadyTape::rebuild(mem::MemoryHierarchy& h) const {
  const std::uintptr_t mask = line_mask(h);
  for (std::size_t i = 0; i < cursor_; ++i) {
    const Entry& e = entries_[i];
    for_each_access(e.op, e.base, e.arg, e.n, lanes_.data() + e.lanes_at, mask,
                    [&](std::uintptr_t a) { h.access(a); });
  }
}

}  // namespace vecfd::sim
