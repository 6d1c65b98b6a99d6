#include "mem/cache.hpp"

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::mem {

namespace {
constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

CacheLevel::CacheLevel(std::uint64_t size_bytes, std::uint32_t ways)
    : ways_(ways) {
  TMPROF_EXPECTS(ways >= 1);
  TMPROF_EXPECTS(size_bytes >= kLineSize * ways);
  const std::uint64_t lines = size_bytes / kLineSize;
  TMPROF_EXPECTS(lines % ways == 0);
  const std::uint64_t sets = lines / ways;
  TMPROF_EXPECTS(is_pow2(sets));
  sets_ = static_cast<std::uint32_t>(sets);
  ways_storage_.resize(static_cast<std::size_t>(sets_) * ways_);
}

CacheLevel::WayIndex CacheLevel::scan(std::uint64_t line,
                                      WayIndex& victim) const noexcept {
  const WayIndex base = set_of(line) * ways_;
  const Way* set = &ways_storage_[base];
  std::uint32_t free_way = ways_;  // none seen yet
  std::uint32_t lru_way = 0;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    const Way& way = set[w];
    if (!way.valid) {
      if (free_way == ways_) free_way = w;
      continue;
    }
    if (way.tag == line) return base + w;
    if (way.lru < set[lru_way].lru) lru_way = w;
  }
  victim = base + (free_way != ways_ ? free_way : lru_way);
  return kNoWay;
}

bool CacheLevel::probe(std::uint64_t line, bool is_store, WayIndex& victim) {
  const WayIndex hit = scan(line, victim);
  if (hit == kNoWay) return false;
  Way& way = ways_storage_[hit];
  way.lru = ++tick_;
  way.dirty = way.dirty || is_store;
  return true;
}

bool CacheLevel::peek(std::uint64_t line, WayIndex& victim) const {
  return scan(line, victim) != kNoWay;
}

bool CacheLevel::install(WayIndex victim, std::uint64_t line,
                         std::uint32_t owner) {
  Way& way = ways_storage_[victim];
  const bool evicted = way.valid;
  if (evicted && way.dirty) ++dirty_evictions_;
  way.tag = line;
  way.valid = true;
  way.dirty = false;
  way.owner = owner;
  way.lru = ++tick_;
  return evicted;
}

bool CacheLevel::access(PhysAddr paddr, bool is_store) {
  WayIndex victim = 0;
  return probe(line_of(paddr), is_store, victim);
}

bool CacheLevel::fill(PhysAddr paddr, std::uint32_t owner) {
  const std::uint64_t line = line_of(paddr);
  WayIndex victim = 0;
  if (peek(line, victim)) return false;  // already resident
  return install(victim, line, owner);
}

std::uint64_t CacheLevel::occupancy_lines(std::uint32_t owner) const {
  std::uint64_t lines = 0;
  for (const Way& way : ways_storage_) {
    if (way.valid && way.owner == owner) ++lines;
  }
  return lines;
}

bool CacheLevel::contains(PhysAddr paddr) const {
  WayIndex victim = 0;
  return peek(line_of(paddr), victim);
}

void CacheLevel::flush() {
  for (Way& way : ways_storage_) way.valid = false;
}

CacheHierarchy::CacheHierarchy(std::uint64_t l1_bytes, std::uint32_t l1_ways,
                               std::uint64_t l2_bytes, std::uint32_t l2_ways,
                               CacheLevel* llc, bool enable_prefetch)
    : l1_(l1_bytes, l1_ways),
      l2_(l2_bytes, l2_ways),
      llc_(llc),
      prefetch_(enable_prefetch) {
  TMPROF_EXPECTS(llc != nullptr);
}

CacheHierarchy CacheHierarchy::make_default(CacheLevel* llc,
                                            bool enable_prefetch) {
  return CacheHierarchy(32ULL << 10, 8, 512ULL << 10, 8, llc, enable_prefetch);
}

CacheAccess CacheHierarchy::access(PhysAddr paddr, bool is_store,
                                   std::uint32_t owner) {
  // One probe per level; a miss leaves that level's victim way, which the
  // fills below install into (no level changes between probe and install).
  CacheAccess result;
  const std::uint64_t line = line_of(paddr);
  CacheLevel::WayIndex l1_victim = 0;
  CacheLevel::WayIndex l2_victim = 0;
  CacheLevel::WayIndex llc_victim = 0;
  if (l1_.probe(line, is_store, l1_victim)) {
    result.source = DataSource::L1;
    return result;
  }
  if (l2_.probe(line, is_store, l2_victim)) {
    l1_.install(l1_victim, line);
    result.source = DataSource::L2;
    return result;
  }
  if (llc_->probe(line, is_store, llc_victim)) {
    l2_.install(l2_victim, line);
    l1_.install(l1_victim, line);
    result.source = DataSource::LLC;
    return result;
  }
  // Demand miss all the way to memory: fill every level.
  result.llc_miss = true;
  result.source = DataSource::MemTier1;  // caller refines the tier
  llc_->install(llc_victim, line, owner);
  l2_.install(l2_victim, line);
  l1_.install(l1_victim, line);
  if (prefetch_) {
    // Sequential next-line prefetch into the LLC. Only trigger on a
    // different demand line than last time to avoid self-feeding on
    // repeated misses to one line. The peek runs after the demand install
    // (the next line may share its set) and leaves a resident line's
    // recency alone.
    if (line != last_demand_line_) {
      last_demand_line_ = line;
      const std::uint64_t next = line + 1;
      if (!llc_->peek(next, llc_victim)) {
        llc_->install(llc_victim, next, owner);  // bills the triggering RMID
        ++prefetch_fills_;
        result.prefetch_issued = true;
      }
    }
  }
  return result;
}

void CacheHierarchy::flush() {
  l1_.flush();
  l2_.flush();
}


// ---------------------------------------------------------------------------
// Checkpoint hooks

void CacheLevel::save_state(util::ckpt::Writer& w) const {
  w.put_u32(sets_);
  w.put_u32(ways_);
  w.put_u64(tick_);
  w.put_u64(dirty_evictions_);
  for (const Way& way : ways_storage_) {
    w.put_u64(way.tag);
    w.put_u64(way.lru);
    w.put_u32(way.owner);
    w.put_bool(way.valid);
    w.put_bool(way.dirty);
  }
}

void CacheLevel::load_state(util::ckpt::Reader& r) {
  const std::uint32_t sets = r.get_u32();
  const std::uint32_t ways = r.get_u32();
  if (sets != sets_ || ways != ways_) {
    throw util::ckpt::CkptError(
        "cache", "geometry mismatch: checkpoint has " + std::to_string(sets) +
                     "x" + std::to_string(ways) + ", configured " +
                     std::to_string(sets_) + "x" + std::to_string(ways_));
  }
  tick_ = r.get_u64();
  dirty_evictions_ = r.get_u64();
  for (Way& way : ways_storage_) {
    way.tag = r.get_u64();
    way.lru = r.get_u64();
    way.owner = r.get_u32();
    way.valid = r.get_bool();
    way.dirty = r.get_bool();
  }
}

void CacheHierarchy::save_state(util::ckpt::Writer& w) const {
  l1_.save_state(w);
  l2_.save_state(w);
  w.put_u64(prefetch_fills_);
  w.put_u64(last_demand_line_);
}

void CacheHierarchy::load_state(util::ckpt::Reader& r) {
  l1_.load_state(r);
  l2_.load_state(r);
  prefetch_fills_ = r.get_u64();
  last_demand_line_ = r.get_u64();
}

}  // namespace tmprof::mem
