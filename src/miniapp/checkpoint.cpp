#include "miniapp/checkpoint.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "solver/krylov.h"

namespace vecfd::miniapp {

namespace {

// ---- little-endian payload primitives -------------------------------------
// Fixed-width, explicitly little-endian encoding: a checkpoint written on
// any host reads back identically on any other.  Doubles travel as their
// IEEE-754 bit pattern (std::bit_cast), never through text — the whole
// point of the format is BIT-identity of fields and residual histories.

struct Writer {
  std::vector<std::uint8_t> buf;
};

void put_u8(Writer& w, std::uint8_t v) { w.buf.push_back(v); }

void put_u32(Writer& w, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    w.buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(Writer& w, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    w.buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_i64(Writer& w, std::int64_t v) {
  put_u64(w, static_cast<std::uint64_t>(v));
}

void put_f64(Writer& w, double v) {
  put_u64(w, std::bit_cast<std::uint64_t>(v));
}

struct Reader {
  const std::vector<std::uint8_t>* buf = nullptr;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > buf->size()) {
      throw std::runtime_error("checkpoint: truncated payload");
    }
  }
};

std::uint8_t get_u8(Reader& r) {
  r.need(1);
  return (*r.buf)[r.pos++];
}

std::uint32_t get_u32(Reader& r) {
  r.need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>((*r.buf)[r.pos++]) << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(Reader& r) {
  r.need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>((*r.buf)[r.pos++]) << (8 * i);
  }
  return v;
}

std::int64_t get_i64(Reader& r) {
  return static_cast<std::int64_t>(get_u64(r));
}

double get_f64(Reader& r) { return std::bit_cast<double>(get_u64(r)); }

/// Length prefixes are u64 but sanity-capped on read so a corrupt length
/// fails with a clear message instead of a bad_alloc.
std::size_t get_len(Reader& r, const char* what) {
  const std::uint64_t n = get_u64(r);
  constexpr std::uint64_t kMaxLen = 1ull << 40;
  if (n > kMaxLen) {
    throw std::runtime_error(std::string("checkpoint: implausible ") + what +
                             " length (corrupt payload?)");
  }
  return static_cast<std::size_t>(n);
}

/// Count prefix of an array whose elements serialize to at least
/// @p min_elem_bytes each.  A count the rest of the payload cannot hold is
/// rejected by name BEFORE the array is allocated: the 2^40 cap alone
/// would let a crafted (CRC-consistent) count reach operator new and fail
/// as std::bad_alloc instead.
std::size_t get_count(Reader& r, const char* what,
                      std::size_t min_elem_bytes) {
  const std::size_t n = get_len(r, what);
  if (n > (r.buf->size() - r.pos) / min_elem_bytes) {
    throw std::runtime_error(std::string("checkpoint: ") + what + " count " +
                             std::to_string(n) +
                             " exceeds the remaining payload (corrupt "
                             "payload?)");
  }
  return n;
}

void put_vec_f64(Writer& w, const std::vector<double>& v) {
  put_u64(w, v.size());
  for (double x : v) put_f64(w, x);
}

std::vector<double> get_vec_f64(Reader& r, const char* what) {
  const std::size_t n = get_len(r, what);
  r.need(n * 8);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = get_f64(r);
  return v;
}

void put_string(Writer& w, const std::string& s) {
  put_u64(w, s.size());
  w.buf.insert(w.buf.end(), s.begin(), s.end());
}

std::string get_string(Reader& r) {
  const std::size_t n = get_len(r, "string");
  r.need(n);
  std::string s(reinterpret_cast<const char*>(r.buf->data() + r.pos), n);
  r.pos += n;
  return s;
}

/// Counters travel with a count prefix so a checkpoint written under a
/// different VECFD_COUNTERS generation fails cleanly instead of smearing
/// values across fields.  Every registered counter round-trips via the
/// visit() visitors — a new counter is covered the moment it enters the
/// registry.
void put_counters(Writer& w, const sim::Counters& c) {
  put_u32(w, static_cast<std::uint32_t>(sim::kNumCounters));
  c.visit([&](const sim::CounterInfo&, const auto& v) {
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>) {
      put_f64(w, v);
    } else {
      put_u64(w, v);
    }
  });
}

sim::Counters get_counters(Reader& r) {
  const std::uint32_t n = get_u32(r);
  if (n != static_cast<std::uint32_t>(sim::kNumCounters)) {
    throw std::runtime_error(
        "checkpoint: counter registry mismatch (written with " +
        std::to_string(n) + " counters, this build has " +
        std::to_string(sim::kNumCounters) + ")");
  }
  sim::Counters c;
  c.visit([&](const sim::CounterInfo&, auto& v) {
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>) {
      v = get_f64(r);
    } else {
      v = get_u64(r);
    }
  });
  return c;
}

void put_counters_vec(Writer& w, const std::vector<sim::Counters>& cs) {
  put_u64(w, cs.size());
  for (const sim::Counters& c : cs) put_counters(w, c);
}

/// Serialized size of one Counters record: count prefix + one 8-byte
/// value per registered counter.
constexpr std::size_t kCountersBytes =
    4 + 8 * static_cast<std::size_t>(sim::kNumCounters);

std::vector<sim::Counters> get_counters_vec(Reader& r) {
  const std::size_t n = get_count(r, "counter array", kCountersBytes);
  std::vector<sim::Counters> cs(n);
  for (std::size_t i = 0; i < n; ++i) cs[i] = get_counters(r);
  return cs;
}

void put_solve_report(Writer& w, const solver::SolveReport& rep) {
  put_u8(w, rep.converged ? 1 : 0);
  put_i64(w, rep.iterations);
  put_f64(w, rep.residual);
  put_vec_f64(w, rep.history);
  put_string(w, rep.failure);
}

solver::SolveReport get_solve_report(Reader& r) {
  solver::SolveReport rep;
  rep.converged = get_u8(r) != 0;
  rep.iterations = static_cast<int>(get_i64(r));
  rep.residual = get_f64(r);
  rep.history = get_vec_f64(r, "residual history");
  rep.failure = get_string(r);
  // Every serialized report passed this gate at its solver exit; running
  // it again on load turns a payload that decodes but breaks the history
  // invariant into a loud failure instead of a corrupt resume.
  return solver::checked(rep);
}

void put_step_reports(Writer& w, const std::vector<StepReport>& steps) {
  put_u64(w, steps.size());
  for (const StepReport& s : steps) {
    put_f64(w, s.time);
    for (const solver::SolveReport& m : s.momentum) put_solve_report(w, m);
    put_solve_report(w, s.pressure);
    put_f64(w, s.div_before);
    put_f64(w, s.div_after);
    put_f64(w, s.cycles);
  }
}

/// Smallest serialized SolveReport (empty history and failure string):
/// converged u8, iterations i64, residual f64, two u64 length prefixes.
constexpr std::size_t kMinSolveReportBytes = 1 + 8 + 8 + 8 + 8;
/// Smallest serialized StepReport: time, kDim momentum reports, the
/// pressure report, div_before, div_after, cycles.
constexpr std::size_t kMinStepReportBytes =
    8 + (fem::kDim + 1) * kMinSolveReportBytes + 3 * 8;

std::vector<StepReport> get_step_reports(Reader& r) {
  const std::size_t n =
      get_count(r, "step report array", kMinStepReportBytes);
  std::vector<StepReport> steps(n);
  for (StepReport& s : steps) {
    s.time = get_f64(r);
    for (solver::SolveReport& m : s.momentum) m = get_solve_report(r);
    s.pressure = get_solve_report(r);
    s.div_before = get_f64(r);
    s.div_after = get_f64(r);
    s.cycles = get_f64(r);
  }
  return steps;
}

// ---- file framing ----------------------------------------------------------

constexpr std::array<std::uint8_t, 7> kMagic = {'V', 'F', 'C', 'K',
                                                'P', 'T', '\0'};
/// magic(7) + version(1) + payload size(8) + crc32(4)
constexpr std::size_t kHeaderSize = 7 + 1 + 8 + 4;

// ---- FNV-1a config hashing -------------------------------------------------

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, 8); }
  void i(int v) { u64(static_cast<std::uint64_t>(static_cast<long>(v))); }
  void b(bool v) { u64(v ? 1u : 0u); }
  void f(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  // IEEE 802.3 reflected polynomial, table built on first use.
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::vector<std::uint8_t> serialize_state(const TimeLoopCheckpoint& c) {
  Writer w;
  put_u64(w, c.config_hash);
  put_i64(w, c.next_step);
  put_f64(w, c.time);
  put_vec_f64(w, c.unknowns);
  put_vec_f64(w, c.unknowns_old);
  put_step_reports(w, c.step_reports);
  put_counters(w, c.total_counters);
  put_counters_vec(w, c.phase_counters);
  put_u8(w, c.all_converged ? 1 : 0);
  put_f64(w, c.pressure_makespan_cycles);
  return std::move(w.buf);
}

TimeLoopCheckpoint deserialize_state(const std::vector<std::uint8_t>& buf) {
  Reader r;
  r.buf = &buf;
  TimeLoopCheckpoint c;
  c.config_hash = get_u64(r);
  c.next_step = get_i64(r);
  c.time = get_f64(r);
  c.unknowns = get_vec_f64(r, "unknowns");
  c.unknowns_old = get_vec_f64(r, "unknowns_old");
  c.step_reports = get_step_reports(r);
  c.total_counters = get_counters(r);
  c.phase_counters = get_counters_vec(r);
  c.all_converged = get_u8(r) != 0;
  c.pressure_makespan_cycles = get_f64(r);
  if (r.pos != buf.size()) {
    throw std::runtime_error("checkpoint: trailing bytes after payload");
  }
  return c;
}

void save_checkpoint(const std::string& path, const TimeLoopCheckpoint& c) {
  const std::vector<std::uint8_t> payload = serialize_state(c);

  Writer w;
  w.buf.reserve(kHeaderSize + payload.size());
  for (std::uint8_t m : kMagic) put_u8(w, m);
  put_u8(w, kCheckpointVersion);
  put_u64(w, payload.size());
  put_u32(w, crc32(payload.data(), payload.size()));
  w.buf.insert(w.buf.end(), payload.begin(), payload.end());

  // Atomic publish: the file under the real name is always complete.  An
  // interrupted writer leaves only `<path>.tmp`, which --resume rejects.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("checkpoint: cannot open " + tmp);
  }
  const std::size_t wrote = std::fwrite(w.buf.data(), 1, w.buf.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (wrote != w.buf.size() || !flushed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: cannot rename " + tmp + " to " +
                             path);
  }
}

TimeLoopCheckpoint load_checkpoint(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("checkpoint: cannot open " + path);
  }
  std::vector<std::uint8_t> raw;
  std::uint8_t chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    raw.insert(raw.end(), chunk, chunk + got);
  }
  std::fclose(f);

  if (raw.size() < kHeaderSize) {
    throw std::runtime_error("checkpoint: " + path + " is truncated");
  }
  if (std::memcmp(raw.data(), kMagic.data(), kMagic.size()) != 0) {
    throw std::runtime_error("checkpoint: " + path +
                             " is not a vecfd checkpoint (bad magic)");
  }
  const std::uint8_t version = raw[kMagic.size()];
  if (version != kCheckpointVersion) {
    throw std::runtime_error(
        "checkpoint: " + path + " has format version " +
        std::to_string(version) + ", this build reads version " +
        std::to_string(kCheckpointVersion));
  }
  Reader hr;
  hr.buf = &raw;
  hr.pos = kMagic.size() + 1;
  const std::uint64_t payload_size = get_u64(hr);
  const std::uint32_t want_crc = get_u32(hr);
  if (raw.size() - kHeaderSize != payload_size) {
    throw std::runtime_error("checkpoint: " + path +
                             " payload size mismatch (truncated?)");
  }
  const std::uint32_t have_crc =
      crc32(raw.data() + kHeaderSize, static_cast<std::size_t>(payload_size));
  if (have_crc != want_crc) {
    throw std::runtime_error("checkpoint: " + path + " CRC mismatch");
  }
  std::vector<std::uint8_t> payload(raw.begin() + kHeaderSize, raw.end());
  return deserialize_state(payload);
}

std::uint64_t timeloop_config_hash(const std::string& scenario_name,
                                   const fem::Mesh& mesh,
                                   const TimeLoopConfig& cfg,
                                   const sim::MachineConfig& machine) {
  Fnv h;
  h.str(scenario_name);
  h.i(mesh.config().nx);
  h.i(mesh.config().ny);
  h.i(mesh.config().nz);
  h.i(mesh.num_nodes());
  h.i(mesh.num_elements());

  h.i(cfg.steps);
  h.i(cfg.vector_size);
  h.i(static_cast<int>(cfg.opt));
  for (const solver::SolveOptions* so : {&cfg.momentum, &cfg.pressure}) {
    h.i(so->max_iterations);
    h.f(so->rel_tolerance);
    h.b(so->jacobi_precondition);
    h.i(static_cast<int>(so->precond.kind));
    h.i(so->precond.cheby_degree);
    h.i(so->precond.power_iterations);
    h.f(so->precond.cheby_boost);
    h.f(so->precond.cheby_ratio);
    h.i(so->precond.coarse_max_iterations);
    h.f(so->precond.coarse_rel_tolerance);
  }
  h.b(cfg.blocked_momentum);
  h.i(static_cast<int>(cfg.format));
  h.b(cfg.rcm_renumber);
  h.i(static_cast<int>(cfg.precond));
  h.i(cfg.shards);
  h.i(cfg.checkpoint_every);

  h.str(machine.name);
  h.b(machine.vector_enabled);
  h.i(machine.vlmax);
  h.i(machine.lanes);
  h.f(machine.frequency_mhz);
  return h.h;
}

}  // namespace vecfd::miniapp
