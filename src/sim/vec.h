// vecfd::sim — value of a vector register.
//
// A Vec carries the actual double-precision elements a modelled vector
// register holds, so simulated kernels compute bit-exact results that the
// test suite validates against the golden scalar reference.
//
// The lanes live inline, up to kMaxVl doubles — a register value is never
// a heap allocation, so issuing an instruction allocates nothing.  Copies
// move only the size() live lanes.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace vecfd::sim {

/// Longest modelled vector register, in doubles: the paper's RISC-V VEC
/// (and SX-Aurora) register of 256 elements.  Vpu rejects a machine whose
/// vlmax exceeds it.
inline constexpr int kMaxVl = 256;

class Vec {
 public:
  /// Tag of the constructor that leaves the lanes unset.
  struct NoFill {};
  static constexpr NoFill kNoFill{};

  Vec() = default;
  /// @throws std::length_error when @p n exceeds kMaxVl.
  explicit Vec(std::size_t n, double fill = 0.0) : n_(checked_size(n)) {
    std::fill_n(v_, n_, fill);
  }
  /// @p n lanes with no fill, for an instruction that writes every lane
  /// before the value is read.  @throws std::length_error as above.
  Vec(std::size_t n, NoFill) : n_(checked_size(n)) {}
  Vec(const Vec& o) : n_(o.n_) { std::copy_n(o.v_, n_, v_); }
  Vec& operator=(const Vec& o) {
    if (this != &o) {
      n_ = o.n_;
      std::copy_n(o.v_, n_, v_);
    }
    return *this;
  }

  int size() const { return n_; }
  bool empty() const { return n_ == 0; }

  double& operator[](std::size_t i) {
    assert(i < static_cast<std::size_t>(n_));
    return v_[i];
  }
  double operator[](std::size_t i) const {
    assert(i < static_cast<std::size_t>(n_));
    return v_[i];
  }

  double* data() { return v_; }
  const double* data() const { return v_; }

 private:
  static int checked_size(std::size_t n) {
    if (n > static_cast<std::size_t>(kMaxVl)) {
      throw std::length_error("sim::Vec: " + std::to_string(n) +
                              " lanes exceed kMaxVl = " +
                              std::to_string(kMaxVl));
    }
    return static_cast<int>(n);
  }

  int n_ = 0;
  double v_[kMaxVl];
};

}  // namespace vecfd::sim
