// vecfd::solver — SELL-C-σ storage (sliced ELLPACK with σ-window sorting).
//
// The long-vector format the co-design layer prefers over plain ELL
// (DESIGN.md §6): rows are stably sorted by descending length inside
// windows of σ consecutive rows, then packed into slices of C rows; every
// slice stores its slabs column-major at the SLICE's maximum row width, so
// the pad volume is the per-slice excess instead of the global one.  Two
// properties make it a drop-in replacement for the ELL mirror:
//
//   * Bit-identity.  The sort permutes ROWS only; each row still consumes
//     its CSR entries in CSR order, pads are masked (negative column
//     sentinel — Vpu::vgather reads +0.0, no memory traffic) and the
//     result lane is scattered back to the original row, so y is
//     bit-for-bit the CSR/ELL product and residual histories are format-
//     independent.
//   * Coalescing.  assign() detects, per (slice, slab), column runs that
//     are exactly [c0, c0+1, ..., c0+rows-1] with no pads; the SpMV kernel
//     issues a unit-stride vload of x[c0..] for those instead of a vgather
//     (counted in Counters::coalesced_lanes).  On an RCM-banded operator
//     over a structured mesh most slabs coalesce.
//
// Choose C = the solve strip (solver::solve_effective_strip) so one slice
// is one vsetvl strip; σ = kDefaultSigmaSlices·C keeps the sort window —
// and therefore the scatter distance of any row — small enough that the
// y-store stays cache-local.
#pragma once

#include <cstdint>
#include <vector>

#include "solver/csr.h"

namespace vecfd::solver {

class SellMatrix {
 public:
  /// σ as a multiple of the slice height C: windows always hold whole
  /// slices, so each slice's rows come from one window and pads form a
  /// lane suffix per slab.
  static constexpr int kDefaultSigmaSlices = 4;

  SellMatrix() = default;
  SellMatrix(const CsrMatrix& a, int slice_height,
             int sigma_slices = kDefaultSigmaSlices);

  /// (Re)build the mirror, reusing the slab storage when the shape allows —
  /// repeated solves on an updated operator keep touching the same memory
  /// lines (the determinism requirement of mem/memory_hierarchy.h).
  void assign(const CsrMatrix& a, int slice_height,
              int sigma_slices = kDefaultSigmaSlices);

  int rows() const { return rows_; }
  int slice_height() const { return c_; }
  int sigma() const { return sigma_; }
  int num_slices() const { return num_slices_; }

  /// Lanes in slice s (slice_height, smaller for the tail slice).
  int slice_rows(int s) const {
    const int base = s * c_;
    return rows_ - base < c_ ? rows_ - base : c_;
  }
  int slice_width(int s) const {
    return width_[static_cast<std::size_t>(s)];
  }

  /// Slab j of slice s (j in [0, slice_width(s))): entry j of each of the
  /// slice's rows, lane-contiguous; padded lanes carry (col −1, 0.0).
  const double* vals(int s, int j) const {
    return vals_.data() + off_[static_cast<std::size_t>(s)] +
           static_cast<std::size_t>(j) *
               static_cast<std::size_t>(slice_rows(s));
  }
  const std::int32_t* cols(int s, int j) const {
    return cols_.data() + off_[static_cast<std::size_t>(s)] +
           static_cast<std::size_t>(j) *
               static_cast<std::size_t>(slice_rows(s));
  }

  /// Original row id of each lane of slice s (the y-scatter indices).
  const std::int32_t* row_ids(int s) const {
    return row_ids_.data() + static_cast<std::size_t>(s) *
                                 static_cast<std::size_t>(c_);
  }

  /// First original row when slice s holds the contiguous run
  /// [base, base+slice_rows(s)) in order — the store coalesces to a
  /// unit-stride vstore; −1 otherwise.
  int slice_row_base(int s) const {
    return row_base_[static_cast<std::size_t>(s)];
  }

  /// Start column c0 when slab j of slice s is the pad-free unit run
  /// [c0, c0+slice_rows(s)); −1 otherwise (the vgather path).
  int coalesced_col(int s, int j) const { return coalesced_cols(s)[j]; }
  /// coalesced_col(s, j) for every slab j of slice s.
  const std::int32_t* coalesced_cols(int s) const {
    return coal_.data() + slab_off_[static_cast<std::size_t>(s)];
  }

  /// The row permutation: permutation()[q] is the original row stored at
  /// sorted position q (lane q % C of slice q / C).
  const std::vector<std::int32_t>& permutation() const { return row_ids_; }

  // ---- layout statistics (benches/tests) -------------------------------
  std::uint64_t cells() const { return cells_; }          ///< Σ width·rows
  std::uint64_t pad_cells() const { return pad_cells_; }  ///< masked cells

 private:
  int rows_ = 0;
  int c_ = 0;          ///< slice height C
  int sigma_ = 0;      ///< sort-window length in rows
  int num_slices_ = 0;
  std::uint64_t cells_ = 0;
  std::uint64_t pad_cells_ = 0;
  std::vector<int> width_;             // [slice]
  std::vector<std::size_t> off_;       // [slice] → vals_/cols_ offset
  std::vector<int> slab_off_;          // [slice] → coal_ offset (Σ widths)
  std::vector<std::int32_t> row_ids_;  // [slice·C + lane] → original row
  std::vector<int> row_base_;          // [slice] contiguous-run base or −1
  std::vector<std::int32_t> coal_;     // [slab] unit-run start col or −1
  std::vector<double> vals_;           // per-slice column-major slabs
  std::vector<std::int32_t> cols_;
};

}  // namespace vecfd::solver
