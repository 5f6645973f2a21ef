// vecfd::mem — dynamic measurement-region guard (VECFD_MEASUREMENT_GUARD).
//
// The determinism contract of the memory model (DESIGN.md §1, §7): a
// buffer that an active MemoryHierarchy has renamed into canonical line
// space must stay alive until the hierarchy is flushed.  Freeing it
// mid-measurement lets a later allocation land on the same host cache line
// and silently inherit the canonical mapping — hit/miss behaviour then
// depends on allocator history, the exact bug class PR 3 fixed by hand in
// the TimeLoop workspaces.
//
// vecfd-lint rule `measured-alloc` fences the pattern statically; this
// guard is the dynamic complement for the aliasing it cannot see (frees
// reached through containers, conditional paths, destructors).  Built with
// -DVECFD_MEASUREMENT_GUARD=ON (CMake option, CI lint job):
//
//   * the line-aligned global allocator reports every heap block to the
//     guard registry,
//   * MemoryHierarchy reports each first-touch line mapping and each
//     re-touch of an already-mapped line,
//   * freeing a block whose lines are canonically mapped by a live
//     hierarchy TOMBSTONES those lines (the free alone is harmless if the
//     measurement never returns to them),
//   * a measured access that re-touches a tombstoned line — a new buffer
//     re-aliasing the canonical line of a freed one — aborts with a
//     diagnostic naming the canonical line (test_measurement_guard
//     triggers it deliberately).
//
// In non-guard builds every hook below is an empty inline function: zero
// code, zero overhead, benches byte-stable (acceptance-checked against
// BENCH_PR5.json).
#pragma once

#include <cstddef>
#include <cstdint>

namespace vecfd::mem::guard {

#ifdef VECFD_MEASUREMENT_GUARD

inline constexpr bool kEnabled = true;

/// Allocator hooks (called by mem/aligned_new.cpp on every heap block).
void on_allocate(void* p, std::size_t bytes);
void on_deallocate(void* p);

/// Hierarchy hooks (called by MemoryHierarchy).  @p host_line is the
/// line-aligned host address, @p canonical_line the dense index it was
/// renamed to.
void on_line_mapped(const void* hierarchy, std::uintptr_t host_line,
                    std::uint64_t canonical_line);
/// Re-touch of a line already in the hierarchy's map: aborts if the line
/// was tombstoned by a mid-measurement free.
void on_line_retouched(const void* hierarchy, std::uintptr_t host_line);
/// Measurement region closed (flush or destruction): forget the
/// hierarchy's mappings and tombstones.
void on_hierarchy_reset(const void* hierarchy);

#else

inline constexpr bool kEnabled = false;

inline void on_allocate(void*, std::size_t) {}
inline void on_deallocate(void*) {}
inline void on_line_mapped(const void*, std::uintptr_t, std::uint64_t) {}
inline void on_line_retouched(const void*, std::uintptr_t) {}
inline void on_hierarchy_reset(const void*) {}

#endif

}  // namespace vecfd::mem::guard
