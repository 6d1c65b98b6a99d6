#pragma once
/// \file cache_line.hpp
/// Host cache-line size for layout decisions on the sharded access path.
/// State a shard writes on every simulated op sits on its own line
/// (`alignas(kCacheLine)`), so two worker threads never write one line and
/// the step does not pay for false sharing (docs/PARALLEL.md). A fixed 64
/// rather than std::hardware_destructive_interference_size: GCC warns when
/// that value is used in a header, since it may differ between translation
/// units built with different tuning flags.

#include <cstddef>

namespace tmprof::util {

inline constexpr std::size_t kCacheLine = 64;

}  // namespace tmprof::util
