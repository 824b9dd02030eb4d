// Untraced build: no counting allocator, so allocation costs stay what
// the library's users pay.
#include "alloc_probe.hpp"

namespace perfbench {

std::uint64_t (*const kAllocProbe)() = nullptr;

}  // namespace perfbench
