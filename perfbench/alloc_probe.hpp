#pragma once

#include <cstdint>

namespace perfbench {

/// Global operator-new count, or nullptr when the binary runs on the
/// runtime's allocator (the untraced build). Defined by exactly one of
/// alloc_probe.cpp and no_alloc_probe.cpp.
extern std::uint64_t (*const kAllocProbe)();

}  // namespace perfbench
