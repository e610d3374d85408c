// Allocation-counting replacements for the global operator new/delete —
// the measurement side of the zero-allocation serve hot path contract.
//
// Include this header from exactly ONE translation unit per binary (it
// DEFINES the replaceable global allocation functions): the allocation
// regression test and the perf_stack bench's --alloc-report mode. Every
// heap allocation in the process — from any TU, not just the including one
// — then bumps a relaxed atomic counter that tests snapshot around a
// steady-state loop.
//
// The operators forward to std::malloc/std::free/posix_memalign, never to
// the library operator new, so they compose with AddressSanitizer: ASan
// intercepts at the malloc layer and keeps full redzone/use-after-free
// checking underneath the counter (the CI sanitize leg runs the allocation
// regression test to prove the two coexist).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace repro::common::alloc_hook {

/// Total heap allocations (operator new of every flavour) since process
/// start. Monotonic; snapshot before/after a region to count its allocs.
inline std::atomic<std::uint64_t> g_allocations{0};
/// Total deallocations with a non-null pointer — lets a test also assert a
/// region is free()-quiet, not just malloc-quiet.
inline std::atomic<std::uint64_t> g_deallocations{0};
/// Size of the largest single allocation since the last
/// reset_largest_allocation() — lets a test assert a region never asks for
/// a block as large as the allocator's mmap threshold.
inline std::atomic<std::size_t> g_largest_allocation{0};

[[nodiscard]] inline std::uint64_t allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

[[nodiscard]] inline std::uint64_t deallocations() noexcept {
  return g_deallocations.load(std::memory_order_relaxed);
}

[[nodiscard]] inline std::size_t largest_allocation() noexcept {
  return g_largest_allocation.load(std::memory_order_relaxed);
}

inline void reset_largest_allocation() noexcept {
  g_largest_allocation.store(0, std::memory_order_relaxed);
}

namespace detail {

inline void count(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > largest && !g_largest_allocation.compare_exchange_weak(
                               largest, size, std::memory_order_relaxed)) {
  }
}

inline void* counted_alloc(std::size_t size) noexcept {
  count(size);
  return std::malloc(size != 0 ? size : 1);
}

inline void* counted_aligned_alloc(std::size_t size, std::size_t align) noexcept {
  count(size);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (::posix_memalign(&p, align, size != 0 ? size : 1) != 0) return nullptr;
  return p;
}

inline void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_deallocations.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace detail

}  // namespace repro::common::alloc_hook

// --- replaceable global allocation functions ---------------------------------

void* operator new(std::size_t size) {
  void* p = repro::common::alloc_hook::detail::counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = repro::common::alloc_hook::detail::counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return repro::common::alloc_hook::detail::counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return repro::common::alloc_hook::detail::counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = repro::common::alloc_hook::detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = repro::common::alloc_hook::detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return repro::common::alloc_hook::detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return repro::common::alloc_hook::detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { repro::common::alloc_hook::detail::counted_free(p); }
void operator delete[](void* p) noexcept { repro::common::alloc_hook::detail::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  repro::common::alloc_hook::detail::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  repro::common::alloc_hook::detail::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  repro::common::alloc_hook::detail::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  repro::common::alloc_hook::detail::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  repro::common::alloc_hook::detail::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  repro::common::alloc_hook::detail::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  repro::common::alloc_hook::detail::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  repro::common::alloc_hook::detail::counted_free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  repro::common::alloc_hook::detail::counted_free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  repro::common::alloc_hook::detail::counted_free(p);
}
