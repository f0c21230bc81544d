// Counting replacement for the global allocation functions, so the
// benchmark can report heap allocations per unit of work and the peak of
// live heap bytes. A few relaxed atomic operations per allocation; the
// benchmark's timed ops are single-threaded.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_bytes{0};

/// Counts an allocation and its usable size (the size free() releases,
/// so the books balance whatever size a delete is told).
void* counted(void* p) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (p == nullptr) return p;
  const std::uint64_t n = malloc_usable_size(p);
  const std::uint64_t live = g_live_bytes.fetch_add(n, std::memory_order_relaxed) + n;
  std::uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

std::uint64_t perfbench::allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t perfbench::peak_heap_bytes() {
  return g_peak_bytes.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  if (void* p = counted(std::malloc(size == 0 ? 1 : size))) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted(std::malloc(size == 0 ? 1 : size));
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

void* operator new(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = counted(std::aligned_alloc(a, rounded == 0 ? a : rounded))) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
