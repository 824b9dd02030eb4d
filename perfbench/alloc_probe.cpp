// Traced build: replaces the global operator new with a counting one, so
// the swarm's hot-path allocations per client tick can be read through
// SwarmOptions::allocProbe.
#include "alloc_probe.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> gAllocCount{0};

std::uint64_t allocCount() {
  return gAllocCount.load(std::memory_order_relaxed);
}
}  // namespace

namespace perfbench {

std::uint64_t (*const kAllocProbe)() = &allocCount;

}  // namespace perfbench

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
