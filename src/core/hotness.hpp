#pragma once
/// \file hotness.hpp
/// The HotnessStore: exact per-page counting on a FlatHashMap (and the
/// HotnessSet seen-key companion on a FlatHashSet). TruthCollector shards,
/// the driver's epoch observations and cumulative maps all count through
/// these types.
///
/// The epoch close keeps the swap-and-clear protocol allocation-free: the
/// accumulator map is swapped out and the caller's previous buffer becomes
/// the next epoch's accumulator.

#include <cstddef>
#include <cstdint>

#include "core/page_key.hpp"
#include "mem/addr.hpp"
#include "util/ckpt.hpp"
#include "util/flat_map.hpp"

namespace tmprof::core {

/// Settings-free placeholder kept as DriverConfig::hotness (and the
/// TruthCollector constructor argument) because the frozen perfbench
/// driver still passes it. Counting is always exact.
struct HotnessConfig {};

/// Checkpoint serialization of the store keys; `kBytes` is the encoded
/// size, which bounds an element count read back from a file.
struct PageKeyCodec {
  static constexpr std::size_t kBytes = 16;
  static void save(util::ckpt::Writer& w, const PageKey& key) {
    w.put_u64(key.pid);
    w.put_u64(key.page_va);
  }
  [[nodiscard]] static PageKey load(util::ckpt::Reader& r) {
    PageKey key;
    key.pid = static_cast<mem::Pid>(r.get_u64());
    key.page_va = r.get_u64();
    return key;
  }
};

struct PfnCodec {
  static constexpr std::size_t kBytes = 8;
  static void save(util::ckpt::Writer& w, mem::Pfn pfn) { w.put_u64(pfn); }
  [[nodiscard]] static mem::Pfn load(util::ckpt::Reader& r) {
    return r.get_u64();
  }
};

namespace detail {

/// The one-byte marker every hotness store and set writes first. It held
/// the counting mode when a count-min sketch front-end existed; it is
/// always 0 (exact) now, and a nonzero byte — a checkpoint written by the
/// sketch front-end — throws CkptError(section) so the resume cold-starts.
inline void load_exact_marker(util::ckpt::Reader& r, const char* section) {
  if (r.get_u8() != 0) {
    throw util::ckpt::CkptError(section, "hotness store is not exact");
  }
}

}  // namespace detail

template <typename Key, typename Count, typename Hash, typename Codec>
class BasicHotnessStore {
 public:
  using MapType = util::FlatHashMap<Key, Count, Hash>;

  /// Running total of everything added since the last epoch close.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  void add(const Key& key, Count n = 1) {
    total_ += n;
    counts_[key] += n;
  }

  /// Close the epoch into `out` and reset. Swaps the accumulator out, so
  /// out's previous buffer becomes next epoch's accumulator (the
  /// zero-allocation protocol). Returns the total added this epoch.
  std::uint64_t end_epoch_into(MapType& out) {
    const std::uint64_t total = total_;
    total_ = 0;
    out.swap(counts_);
    counts_.clear();
    return total;
  }

  /// Epoch-barrier fold of a shard's accumulation into this store; clears
  /// the shard. Counts fold in the shard's slot order, and callers fold
  /// shards in ascending shard order, so contents and iteration order stay
  /// a pure function of the simulation.
  void merge_from(BasicHotnessStore& shard) {
    total_ += shard.total_;
    for (const auto& [key, count] : shard.counts_) {
      counts_[key] += count;
    }
    shard.counts_.clear();
    shard.total_ = 0;
  }

  /// The counts accumulated since the last epoch close.
  [[nodiscard]] const MapType& exact_counts() const noexcept {
    return counts_;
  }

  friend bool operator==(const BasicHotnessStore& a,
                         const BasicHotnessStore& b) {
    return a.total_ == b.total_ && a.counts_ == b.counts_;
  }

  /// Checkpoint round trip: the marker byte, the total, then the counts in
  /// ascending key order.
  void save_state(util::ckpt::Writer& w) const {
    w.put_u8(0);
    w.put_u64(total_);
    w.put_u64(counts_.size());
    counts_.fold_sorted([&w](const Key& key, Count count) {
      Codec::save(w, key);
      if constexpr (sizeof(Count) == 4) {
        w.put_u32(count);
      } else {
        w.put_u64(count);
      }
    });
  }

  void load_state(util::ckpt::Reader& r, const char* section) {
    detail::load_exact_marker(r, section);
    total_ = r.get_u64();
    counts_.clear();
    const std::uint64_t count = r.get_count(Codec::kBytes + sizeof(Count));
    counts_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const Key key = Codec::load(r);
      if constexpr (sizeof(Count) == 4) {
        counts_[key] = r.get_u32();
      } else {
        counts_[key] = r.get_u64();
      }
    }
  }

 private:
  MapType counts_;
  std::uint64_t total_ = 0;  ///< sum of adds since last epoch close
};

/// Seen-key set: insert() reports whether the key is new.
template <typename Key, typename Hash, typename Codec>
class BasicHotnessSet {
 public:
  /// True when the key was not seen before.
  bool insert(const Key& key) { return keys_.insert(key); }

  [[nodiscard]] bool contains(const Key& key) const {
    return keys_.contains(key);
  }
  [[nodiscard]] std::uint64_t size() const noexcept { return keys_.size(); }

  friend bool operator==(const BasicHotnessSet& a, const BasicHotnessSet& b) {
    return a.keys_ == b.keys_;
  }

  void save_state(util::ckpt::Writer& w) const {
    w.put_u8(0);
    w.put_u64(keys_.size());
    keys_.fold_sorted([&w](const Key& key) { Codec::save(w, key); });
  }

  void load_state(util::ckpt::Reader& r, const char* section) {
    detail::load_exact_marker(r, section);
    keys_.clear();
    const std::uint64_t count = r.get_count(Codec::kBytes);
    keys_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      keys_.insert(Codec::load(r));
    }
  }

 private:
  util::FlatHashSet<Key, Hash> keys_;
};

/// The concrete stores the profiler wires up.
using HotnessCounts =
    BasicHotnessStore<PageKey, std::uint32_t, PageKeyHash, PageKeyCodec>;
using HotnessTruth =
    BasicHotnessStore<PageKey, std::uint64_t, PageKeyHash, PageKeyCodec>;
using PfnHotnessCounts =
    BasicHotnessStore<mem::Pfn, std::uint32_t, util::U64Hash, PfnCodec>;
using PageHotnessSet = BasicHotnessSet<PageKey, PageKeyHash, PageKeyCodec>;

}  // namespace tmprof::core
