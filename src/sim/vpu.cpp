#include "sim/vpu.h"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

namespace vecfd::sim {

Vpu::Vpu(MachineConfig cfg, int num_phases)
    : cfg_(std::move(cfg)),
      timing_(cfg_),
      mem_(cfg_.memory),
      profiler_(num_phases) {
  if (cfg_.vlmax <= 0 || cfg_.lanes <= 0) {
    throw std::invalid_argument("Vpu: vlmax and lanes must be positive");
  }
  if (cfg_.vlmax > kMaxVl) {
    throw std::invalid_argument("Vpu: vlmax " + std::to_string(cfg_.vlmax) +
                                " exceeds the register bound kMaxVl = " +
                                std::to_string(kMaxVl));
  }
  vl_ = cfg_.vlmax;
}

void Vpu::reset() {
  total_ = Counters{};
  profiler_.reset();
  mem_.flush();
  vl_ = cfg_.vlmax;
}

void Vpu::record(InstrKind kind, double cycles, int vl_used) {
  total_.record(kind, cycles, static_cast<std::uint64_t>(vl_used));
  profiler_.phase(profiler_.current())
      .record(kind, cycles, static_cast<std::uint64_t>(vl_used));
  if (observer_ != nullptr) {
    observer_->on_instr(profiler_.current(), kind, vl_used, cycles);
  }
}

double Vpu::commit(const MemTally& t) {
  Counters& ph = profiler_.phase(profiler_.current());
  total_.l1_accesses += t.accesses;
  ph.l1_accesses += t.accesses;
  total_.l1_misses += t.l1_misses;
  ph.l1_misses += t.l1_misses;
  total_.l2_misses += t.l2_misses;
  ph.l2_misses += t.l2_misses;
  return t.penalty;
}

double Vpu::touch_range(const void* p, std::size_t bytes) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  if (bytes == 0) return 0.0;
  const std::size_t line = cfg_.memory.l1.line_bytes;
  const std::uintptr_t mask = ~(static_cast<std::uintptr_t>(line) - 1);
  const std::uintptr_t first = addr & mask;
  const std::uintptr_t last = (addr + bytes - 1) & mask;
  MemTally t;
  for (std::uintptr_t a = first;; a += line) {
    t.touch(mem_, a);
    if (a == last) break;
  }
  return commit(t);
}

double Vpu::touch_scalar(const void* p) {
  MemTally t;
  t.touch(mem_, p);
  return commit(t);
}

bool Vpu::LineSet::insert(std::uintptr_t line) {
  static_assert(std::has_single_bit(kSlots));
  constexpr unsigned kShift =
      64 - static_cast<unsigned>(std::countr_zero(kSlots));
  // Fibonacci hashing spreads line-aligned (low-zero) addresses.
  std::size_t i = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(line) * 0x9E3779B97F4A7C15ULL) >> kShift);
  for (;; i = (i + 1) & (kSlots - 1)) {
    Slot& s = slots_[i];
    if (s.gen != gen_) {
      s = {line, gen_};
      return true;
    }
    if (s.line == line) return false;
  }
}

void Vpu::require_vector(const char* what) const {
  if (!cfg_.vector_enabled) {
    throw std::logic_error(std::string("Vpu: vector instruction '") + what +
                           "' issued on a scalar-only machine configuration");
  }
}

void Vpu::require_operands(const Vec& a, const char* what) const {
  if (a.empty()) {
    throw std::invalid_argument(std::string("Vpu: empty operand for '") +
                                what + "'");
  }
}

// ---------------------------------------------------------------- vconfig

int Vpu::set_vl(int n) {
  require_vector("vsetvl");
  if (n <= 0) throw std::invalid_argument("Vpu::set_vl: n must be positive");
  vl_ = cfg_.clamp_vl(n);
  record(InstrKind::kVConfig, timing_.vconfig_cycles(), 0);
  return vl_;
}

// ------------------------------------------------------------ vector memory

// Streaming (long unit-stride) accesses overlap outstanding line fills
// almost completely; short vectors behave like scalar accesses and expose
// the latency.  Interpolate between the two regimes with 1/vl scaling.
double Vpu::unit_overlap(int vl) const {
  const double scaled =
      cfg_.miss_overlap_unit * static_cast<double>(cfg_.vlmax) / vl;
  return scaled < cfg_.miss_overlap_indexed ? scaled
                                            : cfg_.miss_overlap_indexed;
}

Vec Vpu::vload(const double* p) {
  require_vector("vload");
  Vec r(vl_);
  for (int i = 0; i < vl_; ++i) r[i] = p[i];
  double cycles = timing_.vmem_unit_cycles(vl_);
  cycles += unit_overlap(vl_) * touch_range(p, 8u * vl_);
  record(InstrKind::kVMemUnit, cycles, vl_);
  return r;
}

Vec Vpu::vload_i32(const std::int32_t* p) {
  require_vector("vload_i32");
  Vec r(vl_);
  for (int i = 0; i < vl_; ++i) r[i] = static_cast<double>(p[i]);
  double cycles = timing_.vmem_unit_cycles(vl_);
  cycles += unit_overlap(vl_) * touch_range(p, 4u * vl_);
  record(InstrKind::kVMemUnit, cycles, vl_);
  return r;
}

Vec Vpu::vload_strided(const double* p, std::ptrdiff_t stride_elems) {
  require_vector("vload_strided");
  Vec r(vl_);
  MemTally t;
  for (int i = 0; i < vl_; ++i) {
    const double* q = p + stride_elems * i;
    r[i] = *q;
    t.touch(mem_, q);
  }
  double cycles = timing_.vmem_strided_cycles(vl_);
  cycles += cfg_.miss_overlap_strided * commit(t);
  record(InstrKind::kVMemStrided, cycles, vl_);
  return r;
}

Vec Vpu::vgather(const double* base, const Vec& idx) {
  require_vector("vgather");
  require_operands(idx, "vgather");
  const int n = idx.size();
  Vec r(n);
  const std::uintptr_t mask =
      ~(static_cast<std::uintptr_t>(cfg_.memory.l1.line_bytes) - 1);
  MemTally t;
  gather_lines_.clear();
  std::uint64_t lines = 0;
  std::uint64_t pads = 0;
  for (int i = 0; i < n; ++i) {
    const std::ptrdiff_t k = static_cast<std::ptrdiff_t>(idx[i]);
    if (k < 0) {  // masked-off pad lane: +0.0, zero memory traffic
      r[i] = 0.0;
      ++pads;
      continue;
    }
    const double* q = base + k;
    r[i] = *q;
    t.touch(mem_, q);
    lines += gather_lines_.insert(reinterpret_cast<std::uintptr_t>(q) & mask)
                 ? 1
                 : 0;
  }
  const double penalty = commit(t);
  const std::uint64_t lanes = static_cast<std::uint64_t>(n) - pads;
  Counters& ph = profiler_.phase(profiler_.current());
  total_.gather_lanes += lanes;
  ph.gather_lanes += lanes;
  total_.gather_lines_touched += lines;
  ph.gather_lines_touched += lines;
  total_.pad_lanes += pads;
  ph.pad_lanes += pads;
  double cycles = timing_.vmem_indexed_cycles(n);
  cycles += cfg_.miss_overlap_indexed * penalty;
  record(InstrKind::kVMemIndexed, cycles, n);
  return r;
}

void Vpu::vstore(double* p, const Vec& v) {
  require_vector("vstore");
  require_operands(v, "vstore");
  const int n = v.size();
  for (int i = 0; i < n; ++i) p[i] = v[i];
  double cycles = timing_.vmem_unit_cycles(n);
  cycles += unit_overlap(n) * touch_range(p, 8u * n);
  record(InstrKind::kVMemUnit, cycles, n);
}

void Vpu::vstore_strided(double* p, std::ptrdiff_t stride_elems,
                         const Vec& v) {
  require_vector("vstore_strided");
  require_operands(v, "vstore_strided");
  const int n = v.size();
  MemTally t;
  for (int i = 0; i < n; ++i) {
    double* q = p + stride_elems * i;
    *q = v[i];
    t.touch(mem_, q);
  }
  double cycles = timing_.vmem_strided_cycles(n);
  cycles += cfg_.miss_overlap_strided * commit(t);
  record(InstrKind::kVMemStrided, cycles, n);
}

void Vpu::vscatter(double* base, const Vec& idx, const Vec& v) {
  require_vector("vscatter");
  require_operands(v, "vscatter");
  if (idx.size() != v.size()) {
    throw std::invalid_argument("Vpu::vscatter: index/value length mismatch");
  }
  const int n = v.size();
  MemTally t;
  for (int i = 0; i < n; ++i) {
    double* q = base + static_cast<std::ptrdiff_t>(idx[i]);
    *q = v[i];
    t.touch(mem_, q);
  }
  double cycles = timing_.vmem_indexed_cycles(n);
  cycles += cfg_.miss_overlap_indexed * commit(t);
  record(InstrKind::kVMemIndexed, cycles, n);
}

// --------------------------------------------------------- vector arithmetic

namespace {
void check_same_size(const Vec& a, const Vec& b, const char* what) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(std::string("Vpu: operand length mismatch in ") +
                                what);
  }
}
}  // namespace

Vec Vpu::vadd(const Vec& a, const Vec& b) {
  require_vector("vadd");
  check_same_size(a, b, "vadd");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = a[i] + b[i];
  record(InstrKind::kVArith, timing_.varith_cycles(n), n);
  total_.flops += n;
  profiler_.phase(profiler_.current()).flops += n;
  return r;
}

Vec Vpu::vsub(const Vec& a, const Vec& b) {
  require_vector("vsub");
  check_same_size(a, b, "vsub");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = a[i] - b[i];
  record(InstrKind::kVArith, timing_.varith_cycles(n), n);
  total_.flops += n;
  profiler_.phase(profiler_.current()).flops += n;
  return r;
}

Vec Vpu::vmul(const Vec& a, const Vec& b) {
  require_vector("vmul");
  check_same_size(a, b, "vmul");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = a[i] * b[i];
  record(InstrKind::kVArith, timing_.varith_cycles(n), n);
  total_.flops += n;
  profiler_.phase(profiler_.current()).flops += n;
  return r;
}

Vec Vpu::vdiv(const Vec& a, const Vec& b) {
  require_vector("vdiv");
  check_same_size(a, b, "vdiv");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = a[i] / b[i];
  record(InstrKind::kVArith, timing_.varith_cycles(n, ArithOp::kDivSqrt), n);
  total_.flops += n;
  profiler_.phase(profiler_.current()).flops += n;
  return r;
}

Vec Vpu::vfma(const Vec& a, const Vec& b, const Vec& c) {
  require_vector("vfma");
  check_same_size(a, b, "vfma");
  check_same_size(a, c, "vfma");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = a[i] * b[i] + c[i];
  record(InstrKind::kVArith, timing_.varith_cycles(n), n);
  total_.flops += 2u * n;
  profiler_.phase(profiler_.current()).flops += 2u * n;
  return r;
}

Vec Vpu::vfnma(const Vec& a, const Vec& b, const Vec& c) {
  require_vector("vfnma");
  check_same_size(a, b, "vfnma");
  check_same_size(a, c, "vfnma");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = c[i] - a[i] * b[i];
  record(InstrKind::kVArith, timing_.varith_cycles(n), n);
  total_.flops += 2u * n;
  profiler_.phase(profiler_.current()).flops += 2u * n;
  return r;
}

Vec Vpu::vsqrt(const Vec& a) {
  require_vector("vsqrt");
  require_operands(a, "vsqrt");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = std::sqrt(a[i]);
  record(InstrKind::kVArith, timing_.varith_cycles(n, ArithOp::kDivSqrt), n);
  total_.flops += n;
  profiler_.phase(profiler_.current()).flops += n;
  return r;
}

Vec Vpu::vcbrt(const Vec& a) {
  require_vector("vcbrt");
  require_operands(a, "vcbrt");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = std::cbrt(a[i]);
  record(InstrKind::kVArith, timing_.varith_cycles(n, ArithOp::kDivSqrt), n);
  total_.flops += n;
  profiler_.phase(profiler_.current()).flops += n;
  return r;
}

Vec Vpu::vabs(const Vec& a) {
  require_vector("vabs");
  require_operands(a, "vabs");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = std::fabs(a[i]);
  record(InstrKind::kVArith, timing_.varith_cycles(n), n);
  total_.flops += n;
  profiler_.phase(profiler_.current()).flops += n;
  return r;
}

Vec Vpu::vmax(const Vec& a, const Vec& b) {
  require_vector("vmax");
  check_same_size(a, b, "vmax");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = a[i] > b[i] ? a[i] : b[i];
  record(InstrKind::kVArith, timing_.varith_cycles(n), n);
  total_.flops += n;
  profiler_.phase(profiler_.current()).flops += n;
  return r;
}

Vec Vpu::vadd_s(const Vec& a, double s) {
  require_vector("vadd_s");
  require_operands(a, "vadd_s");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = a[i] + s;
  record(InstrKind::kVArith, timing_.varith_cycles(n), n);
  total_.flops += n;
  profiler_.phase(profiler_.current()).flops += n;
  return r;
}

Vec Vpu::vmul_s(const Vec& a, double s) {
  require_vector("vmul_s");
  require_operands(a, "vmul_s");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = a[i] * s;
  record(InstrKind::kVArith, timing_.varith_cycles(n), n);
  total_.flops += n;
  profiler_.phase(profiler_.current()).flops += n;
  return r;
}

Vec Vpu::vfma_s(const Vec& a, double s, const Vec& c) {
  require_vector("vfma_s");
  check_same_size(a, c, "vfma_s");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = a[i] * s + c[i];
  record(InstrKind::kVArith, timing_.varith_cycles(n), n);
  total_.flops += 2u * n;
  profiler_.phase(profiler_.current()).flops += 2u * n;
  return r;
}

Vec Vpu::viadd_s(const Vec& a, double s) {
  require_vector("viadd_s");
  require_operands(a, "viadd_s");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = a[i] + s;
  record(InstrKind::kVArith, timing_.varith_cycles(n), n);
  return r;
}

Vec Vpu::vimul_s(const Vec& a, double s) {
  require_vector("vimul_s");
  require_operands(a, "vimul_s");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = a[i] * s;
  record(InstrKind::kVArith, timing_.varith_cycles(n), n);
  return r;
}

double Vpu::vredsum(const Vec& a) {
  require_vector("vredsum");
  require_operands(a, "vredsum");
  const int n = a.size();
  double s = 0.0;
  for (int i = 0; i < n; ++i) s += a[i];
  record(InstrKind::kVArith, timing_.varith_cycles(n, ArithOp::kReduce), n);
  total_.flops += n;
  profiler_.phase(profiler_.current()).flops += n;
  return s;
}

double Vpu::vredmax(const Vec& a) {
  require_vector("vredmax");
  require_operands(a, "vredmax");
  const int n = a.size();
  // NaN-propagating max: a poisoned operand must not yield a clean scale
  // (the scaled norm would otherwise report 0 for an all-NaN vector).
  double m = a[0];
  for (int i = 1; i < n; ++i) {
    const double v = a[i];
    m = (v > m || v != v) ? v : m;
  }
  record(InstrKind::kVArith, timing_.varith_cycles(n, ArithOp::kReduce), n);
  total_.flops += n;
  profiler_.phase(profiler_.current()).flops += n;
  return m;
}

// --------------------------------------------------------------- control lane

Vec Vpu::vsplat(double s) {
  require_vector("vsplat");
  Vec r(vl_, s);
  record(InstrKind::kVCtrl, timing_.vctrl_cycles(vl_), vl_);
  return r;
}

Vec Vpu::viota() {
  require_vector("viota");
  Vec r(vl_);
  for (int i = 0; i < vl_; ++i) r[i] = static_cast<double>(i);
  record(InstrKind::kVCtrl, timing_.vctrl_cycles(vl_), vl_);
  return r;
}

Vec Vpu::vmerge(const Vec& mask, const Vec& a, const Vec& b) {
  require_vector("vmerge");
  check_same_size(mask, a, "vmerge");
  check_same_size(mask, b, "vmerge");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = mask[i] != 0.0 ? a[i] : b[i];
  record(InstrKind::kVCtrl, timing_.vctrl_cycles(n), n);
  return r;
}

Vec Vpu::vge_s(const Vec& a, double s) {
  require_vector("vge_s");
  require_operands(a, "vge_s");
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = a[i] >= s ? 1.0 : 0.0;
  record(InstrKind::kVCtrl, timing_.vctrl_cycles(n), n);
  return r;
}

// ---------------------------------------------------------------- scalar core

double Vpu::sload(const double* p) {
  const double penalty = touch_scalar(p);
  record(InstrKind::kScalarMem, timing_.scalar_mem_cycles() + penalty, 0);
  return *p;
}

std::int32_t Vpu::sload_i32(const std::int32_t* p) {
  const double penalty = touch_scalar(p);
  record(InstrKind::kScalarMem, timing_.scalar_mem_cycles() + penalty, 0);
  return *p;
}

void Vpu::sstore(double* p, double v) {
  *p = v;
  const double penalty = touch_scalar(p);
  record(InstrKind::kScalarMem, timing_.scalar_mem_cycles() + penalty, 0);
}

void Vpu::sstore_i32(std::int32_t* p, std::int32_t v) {
  *p = v;
  const double penalty = touch_scalar(p);
  record(InstrKind::kScalarMem, timing_.scalar_mem_cycles() + penalty, 0);
}

void Vpu::note_coalesced_lanes(std::uint64_t n) {
  total_.coalesced_lanes += n;
  profiler_.phase(profiler_.current()).coalesced_lanes += n;
}

void Vpu::note_pad_lanes(std::uint64_t n) {
  total_.pad_lanes += n;
  profiler_.phase(profiler_.current()).pad_lanes += n;
}

void Vpu::note_halo_lines_sent(std::uint64_t n) {
  total_.halo_lines_sent += n;
  profiler_.phase(profiler_.current()).halo_lines_sent += n;
}

void Vpu::note_halo_lines_recv(std::uint64_t n) {
  total_.halo_lines_recv += n;
  profiler_.phase(profiler_.current()).halo_lines_recv += n;
}

void Vpu::note_halo_messages(std::uint64_t n) {
  total_.halo_messages += n;
  profiler_.phase(profiler_.current()).halo_messages += n;
}

void Vpu::sarith(std::uint64_t n) {
  if (n == 0) return;
  Counters& ph = profiler_.phase(profiler_.current());
  const double cycles = timing_.scalar_alu_cycles() * static_cast<double>(n);
  total_.scalar_alu_instrs += n;
  ph.scalar_alu_instrs += n;
  total_.scalar_cycles += cycles;
  ph.scalar_cycles += cycles;
}

double Vpu::sadd(double a, double b) {
  record(InstrKind::kScalarAlu, timing_.scalar_alu_cycles(), 0);
  total_.flops += 1;
  profiler_.phase(profiler_.current()).flops += 1;
  return a + b;
}

double Vpu::ssub(double a, double b) {
  record(InstrKind::kScalarAlu, timing_.scalar_alu_cycles(), 0);
  total_.flops += 1;
  profiler_.phase(profiler_.current()).flops += 1;
  return a - b;
}

double Vpu::smul(double a, double b) {
  record(InstrKind::kScalarAlu, timing_.scalar_alu_cycles(), 0);
  total_.flops += 1;
  profiler_.phase(profiler_.current()).flops += 1;
  return a * b;
}

double Vpu::sdiv(double a, double b) {
  // scalar FP divide: several cycles even on the in-order core
  record(InstrKind::kScalarAlu, 4.0 * timing_.scalar_alu_cycles(), 0);
  total_.flops += 1;
  profiler_.phase(profiler_.current()).flops += 1;
  return a / b;
}

double Vpu::sfma(double a, double b, double c) {
  record(InstrKind::kScalarAlu, timing_.scalar_alu_cycles(), 0);
  total_.flops += 2;
  profiler_.phase(profiler_.current()).flops += 2;
  return a * b + c;
}

double Vpu::sfnma(double a, double b, double c) {
  record(InstrKind::kScalarAlu, timing_.scalar_alu_cycles(), 0);
  total_.flops += 2;
  profiler_.phase(profiler_.current()).flops += 2;
  return c - a * b;
}

double Vpu::ssqrt(double a) {
  record(InstrKind::kScalarAlu, 4.0 * timing_.scalar_alu_cycles(), 0);
  total_.flops += 1;
  profiler_.phase(profiler_.current()).flops += 1;
  return std::sqrt(a);
}

double Vpu::scbrt(double a) {
  record(InstrKind::kScalarAlu, 4.0 * timing_.scalar_alu_cycles(), 0);
  total_.flops += 1;
  profiler_.phase(profiler_.current()).flops += 1;
  return std::cbrt(a);
}

}  // namespace vecfd::sim
