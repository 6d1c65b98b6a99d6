#pragma once
/// \file cache.hpp
/// Set-associative cache hierarchy (L1D, L2 per core; shared LLC), plus a
/// simple next-line prefetcher. The hierarchy determines each access's
/// *data source*, which the IBS/PEBS models record: TMP only counts trace
/// samples whose data source is beyond the LLC (Section III-A).

#include <cstdint>
#include <vector>

#include "mem/addr.hpp"
#include "util/cache_line.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::mem {

/// Where a load/store was serviced from.
enum class DataSource : std::uint8_t { L1, L2, LLC, MemTier1, MemTier2 };

[[nodiscard]] constexpr bool is_memory(DataSource src) noexcept {
  return src == DataSource::MemTier1 || src == DataSource::MemTier2;
}

[[nodiscard]] constexpr const char* to_string(DataSource src) noexcept {
  switch (src) {
    case DataSource::L1: return "L1";
    case DataSource::L2: return "L2";
    case DataSource::LLC: return "LLC";
    case DataSource::MemTier1: return "MemT1";
    case DataSource::MemTier2: return "MemT2";
  }
  return "?";
}

/// One set-associative, write-allocate cache level with LRU replacement.
/// Tags are physical line addresses. Each level is written on every access
/// that reaches it, so it starts its own host cache line: the sharded
/// engine's per-core LLC slices never share one.
class alignas(util::kCacheLine) CacheLevel {
 public:
  /// A way's position in the level (set * ways + way), as found by a probe.
  using WayIndex = std::size_t;

  CacheLevel(std::uint64_t size_bytes, std::uint32_t ways);

  /// One scan of `line`'s set. A hit updates LRU and dirty state and
  /// returns true. A miss returns false and sets `victim` to the way a fill
  /// takes: the first invalid way, else the first least-recently-used one.
  bool probe(std::uint64_t line, bool is_store, WayIndex& victim);

  /// As probe, but a hit leaves LRU and dirty state untouched (prefetches
  /// must not refresh a line's recency).
  [[nodiscard]] bool peek(std::uint64_t line, WayIndex& victim) const;

  /// Install `line` into the `victim` a missing probe/peek returned, with
  /// no change to this level in between. Returns true if a valid line was
  /// evicted. `owner` tags the line with an RMID-like id
  /// (resource-monitoring support, cf. Intel CMT / AMD QoS); 0 = untracked.
  bool install(WayIndex victim, std::uint64_t line, std::uint32_t owner = 0);

  /// True if the line holding `paddr` is resident (updates LRU). Probe
  /// wrapper for tests and single-level users.
  bool access(PhysAddr paddr, bool is_store);

  /// Install the line unless resident; returns true if a valid line was
  /// evicted. Peek + install wrapper.
  bool fill(PhysAddr paddr, std::uint32_t owner = 0);

  /// Is the line present (no LRU update)? Peek wrapper.
  [[nodiscard]] bool contains(PhysAddr paddr) const;

  /// Resident lines tagged with `owner` (cache-occupancy monitoring).
  [[nodiscard]] std::uint64_t occupancy_lines(std::uint32_t owner) const;

  void flush();

  /// Checkpoint hooks (util/ckpt.hpp): geometry comes from config, so only
  /// dynamic state (LRU clock, way contents) is serialized.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

  [[nodiscard]] std::uint64_t size_bytes() const noexcept {
    return static_cast<std::uint64_t>(sets_) * ways_ * kLineSize;
  }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::uint32_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::uint64_t dirty_evictions() const noexcept {
    return dirty_evictions_;
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    std::uint32_t owner = 0;  ///< RMID-like tag for occupancy monitoring
    bool valid = false;
    bool dirty = false;
  };

  [[nodiscard]] std::size_t set_of(std::uint64_t line) const noexcept {
    return static_cast<std::size_t>(line & (sets_ - 1));
  }

  static constexpr WayIndex kNoWay = ~WayIndex{0};

  /// The one set scan every lookup goes through: the way holding `line`,
  /// or kNoWay with `victim` set to the way a fill would take.
  [[nodiscard]] WayIndex scan(std::uint64_t line,
                              WayIndex& victim) const noexcept;

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint64_t tick_ = 0;
  std::uint64_t dirty_evictions_ = 0;
  std::vector<Way> ways_storage_;
};
static_assert(alignof(CacheLevel) == util::kCacheLine);

/// Result of a full hierarchy access.
struct CacheAccess {
  DataSource source = DataSource::L1;  ///< MemTier resolved by caller
  bool llc_miss = false;
  bool prefetch_issued = false;
};

/// Per-core private levels; the shared LLC is passed in by the System.
class CacheHierarchy {
 public:
  /// \param l1_bytes/l2_bytes  private level sizes
  /// \param llc                shared last-level cache (not owned)
  CacheHierarchy(std::uint64_t l1_bytes, std::uint32_t l1_ways,
                 std::uint64_t l2_bytes, std::uint32_t l2_ways,
                 CacheLevel* llc, bool enable_prefetch);

  /// Zen-2-like geometry: 32 KiB/8w L1D, 512 KiB/8w L2.
  static CacheHierarchy make_default(CacheLevel* llc,
                                     bool enable_prefetch = true);

  /// Run one demand access through L1 → L2 → LLC. On an LLC miss the line is
  /// filled into all levels and, if enabled, the next line is prefetched
  /// into the LLC (so a subsequent demand access to it is an LLC *hit* —
  /// this is why TMP deliberately profiles demand loads only).
  /// `owner` tags LLC fills for occupancy monitoring.
  CacheAccess access(PhysAddr paddr, bool is_store, std::uint32_t owner = 0);

  void flush();

  /// Checkpoint hooks. The shared LLC is serialized by its owner (System),
  /// not here.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

  [[nodiscard]] std::uint64_t prefetch_fills() const noexcept {
    return prefetch_fills_;
  }
  /// The private levels (read-only, for occupancy and eviction checks).
  [[nodiscard]] const CacheLevel& l1() const noexcept { return l1_; }
  [[nodiscard]] const CacheLevel& l2() const noexcept { return l2_; }

 private:
  CacheLevel l1_;
  CacheLevel l2_;
  CacheLevel* llc_;
  bool prefetch_;
  std::uint64_t prefetch_fills_ = 0;
  std::uint64_t last_demand_line_ = ~0ULL;
};

}  // namespace tmprof::mem
