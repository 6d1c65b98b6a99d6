#pragma once
/// \file flat_map.hpp
/// Open-addressing hash containers for the epoch hot path.
///
/// `FlatHashMap` is a power-of-two, linear-probing, tombstone-free hash map
/// tuned for the counter-accumulation pattern the profiler hammers every
/// epoch: insert-or-increment millions of times, iterate once at the epoch
/// barrier, `clear()` and go again. Compared to `std::unordered_map` it
/// stores slots in one contiguous array (no per-node allocation, no pointer
/// chasing on probe), retains capacity across `clear()` so steady-state
/// epochs allocate nothing, and offers `fold_sorted()` — ascending-key
/// iteration for checkpoint serialization and other byte-stable outputs.
///
/// Deliberate non-features: no per-key `erase()` (tombstone-free probing
/// relies on it; every hot-path consumer only ever clears wholesale), and
/// plain iteration order is unspecified (use `fold_sorted` when order
/// matters). Max load factor is 1/2.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace tmprof::util {

/// SplitMix64 finalizer — full-avalanche mix for raw integer keys (e.g.
/// physical frame numbers). Identity hashes would make sequential frames
/// probe into long runs.
struct U64Hash {
  std::size_t operator()(std::uint64_t x) const noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

template <typename Key, typename Value, typename Hash>
class FlatHashMap {
 public:
  using key_type = Key;
  using mapped_type = Value;
  using value_type = std::pair<Key, Value>;
  using size_type = std::size_t;

 private:
  struct Slot {
    value_type kv{};
    bool used = false;
  };

  template <bool Const>
  class Iter {
    using slot_ptr = std::conditional_t<Const, const Slot*, Slot*>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FlatHashMap::value_type;
    using difference_type = std::ptrdiff_t;
    using reference =
        std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;

    Iter() = default;
    Iter(slot_ptr cur, slot_ptr end) : cur_(cur), end_(end) { skip(); }
    /// const_iterator is constructible from iterator, as usual.
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iter(const Iter<false>& other) : cur_(other.cur_), end_(other.end_) {}

    reference operator*() const { return cur_->kv; }
    pointer operator->() const { return &cur_->kv; }
    Iter& operator++() {
      ++cur_;
      skip();
      return *this;
    }
    Iter operator++(int) {
      Iter tmp = *this;
      ++*this;
      return tmp;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.cur_ == b.cur_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.cur_ != b.cur_;
    }

   private:
    friend class FlatHashMap;
    friend class Iter<true>;
    void skip() {
      while (cur_ != end_ && !cur_->used) ++cur_;
    }
    slot_ptr cur_ = nullptr;
    slot_ptr end_ = nullptr;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatHashMap() = default;

  [[nodiscard]] size_type size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Number of slots currently allocated (power of two, or 0).
  [[nodiscard]] size_type capacity() const noexcept { return slots_.size(); }

  /// Drop all entries but keep the slot array — the whole point of the
  /// swap-and-clear epoch protocol. O(capacity).
  void clear() noexcept {
    for (Slot& s : slots_) s.used = false;
    size_ = 0;
  }

  /// Ensure `n` entries fit without growth (allocates for 1/2 load factor).
  void reserve(size_type n) {
    size_type want = min_capacity_for(n);
    if (want > slots_.size()) rehash(want);
  }

  void swap(FlatHashMap& other) noexcept {
    slots_.swap(other.slots_);
    std::swap(size_, other.size_);
    std::swap(mask_, other.mask_);
  }
  friend void swap(FlatHashMap& a, FlatHashMap& b) noexcept { a.swap(b); }

  iterator begin() noexcept {
    return iterator(slots_.data(), slots_.data() + slots_.size());
  }
  iterator end() noexcept {
    Slot* e = slots_.data() + slots_.size();
    return iterator(e, e);
  }
  const_iterator begin() const noexcept {
    return const_iterator(slots_.data(), slots_.data() + slots_.size());
  }
  const_iterator end() const noexcept {
    const Slot* e = slots_.data() + slots_.size();
    return const_iterator(e, e);
  }
  const_iterator cbegin() const noexcept { return begin(); }
  const_iterator cend() const noexcept { return end(); }

  /// Insert-or-find; value-initializes on first touch (counters start at 0
  /// even though cleared slots retain stale values).
  Value& operator[](const Key& key) {
    if ((size_ + 1) * 2 > slots_.size()) rehash(grow_target());
    Slot& s = probe(key);
    if (!s.used) {
      s.used = true;
      s.kv.first = key;
      s.kv.second = Value{};
      ++size_;
    }
    return s.kv.second;
  }

  /// Insert if absent. Returns (pointer to value, inserted?).
  std::pair<Value*, bool> try_emplace(const Key& key, Value value = Value{}) {
    if ((size_ + 1) * 2 > slots_.size()) rehash(grow_target());
    Slot& s = probe(key);
    if (s.used) return {&s.kv.second, false};
    s.used = true;
    s.kv.first = key;
    s.kv.second = std::move(value);
    ++size_;
    return {&s.kv.second, true};
  }

  iterator find(const Key& key) noexcept {
    Slot* s = find_slot(key);
    return s ? iterator(s, slots_.data() + slots_.size()) : end();
  }
  const_iterator find(const Key& key) const noexcept {
    const Slot* s = find_slot(key);
    return s ? const_iterator(s, slots_.data() + slots_.size()) : end();
  }
  [[nodiscard]] bool contains(const Key& key) const noexcept {
    return find_slot(key) != nullptr;
  }
  [[nodiscard]] size_type count(const Key& key) const noexcept {
    return contains(key) ? 1 : 0;
  }

  Value& at(const Key& key) {
    Slot* s = find_slot(key);
    if (!s) throw std::out_of_range("FlatHashMap::at: key not found");
    return s->kv.second;
  }
  const Value& at(const Key& key) const {
    const Slot* s = find_slot(key);
    if (!s) throw std::out_of_range("FlatHashMap::at: key not found");
    return s->kv.second;
  }

  /// Order-independent equality (mirrors std::unordered_map semantics).
  friend bool operator==(const FlatHashMap& a, const FlatHashMap& b) {
    if (a.size_ != b.size_) return false;
    for (const Slot& s : a.slots_) {
      if (!s.used) continue;
      const Slot* o = b.find_slot(s.kv.first);
      if (!o || !(o->kv.second == s.kv.second)) return false;
    }
    return true;
  }
  friend bool operator!=(const FlatHashMap& a, const FlatHashMap& b) {
    return !(a == b);
  }

  /// Visit every entry in ascending key order: `fn(key, value)`. This is
  /// the deterministic iteration used for checkpoint bytes and barrier
  /// merges; it allocates a scratch index, so keep it off per-op paths.
  template <typename Fn>
  void fold_sorted(Fn&& fn) const {
    std::vector<const Slot*> order;
    order.reserve(size_);
    for (const Slot& s : slots_) {
      if (s.used) order.push_back(&s);
    }
    std::sort(order.begin(), order.end(), [](const Slot* x, const Slot* y) {
      return x->kv.first < y->kv.first;
    });
    for (const Slot* s : order) fn(s->kv.first, s->kv.second);
  }

 private:
  static size_type next_pow2(size_type n) noexcept {
    size_type p = 1;
    while (p < n) p <<= 1;
    return p;
  }
  static size_type min_capacity_for(size_type n) noexcept {
    if (n == 0) return 0;
    return next_pow2(std::max<size_type>(16, n * 2));
  }
  size_type grow_target() const noexcept {
    return slots_.empty() ? 16 : slots_.size() * 2;
  }

  /// First slot that holds `key` or the unused slot where it belongs.
  /// Requires a non-empty table with at least one free slot.
  Slot& probe(const Key& key) noexcept {
    size_type i = hash_(key) & mask_;
    while (slots_[i].used && !(slots_[i].kv.first == key)) {
      i = (i + 1) & mask_;
    }
    return slots_[i];
  }
  Slot* find_slot(const Key& key) noexcept {
    return const_cast<Slot*>(std::as_const(*this).find_slot(key));
  }
  const Slot* find_slot(const Key& key) const noexcept {
    if (slots_.empty()) return nullptr;
    size_type i = hash_(key) & mask_;
    while (slots_[i].used) {
      if (slots_[i].kv.first == key) return &slots_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  void rehash(size_type new_cap) {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(new_cap);
    mask_ = new_cap - 1;
    for (Slot& s : old) {
      if (!s.used) continue;
      size_type i = hash_(s.kv.first) & mask_;
      while (slots_[i].used) i = (i + 1) & mask_;
      slots_[i].kv = std::move(s.kv);
      slots_[i].used = true;
    }
  }

  std::vector<Slot> slots_;
  size_type size_ = 0;
  size_type mask_ = 0;
  Hash hash_;
};

/// Hash set with the same layout and guarantees as FlatHashMap. Iteration
/// yields `const Key&`; `fold_sorted(fn)` visits keys ascending.
template <typename Key, typename Hash>
class FlatHashSet {
  /// Empty payload; a dedicated type keeps sizeof(Slot) as small as the
  /// pair packing allows and makes the intent explicit.
  struct Unit {
    friend bool operator==(const Unit&, const Unit&) { return true; }
  };
  using Map = FlatHashMap<Key, Unit, Hash>;

 public:
  using key_type = Key;
  using size_type = std::size_t;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Key;
    using difference_type = std::ptrdiff_t;
    using reference = const Key&;
    using pointer = const Key*;

    const_iterator() = default;
    explicit const_iterator(typename Map::const_iterator it) : it_(it) {}
    reference operator*() const { return it_->first; }
    pointer operator->() const { return &it_->first; }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.it_ == b.it_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.it_ != b.it_;
    }

   private:
    typename Map::const_iterator it_;
  };
  using iterator = const_iterator;

  [[nodiscard]] size_type size() const noexcept { return map_.size(); }
  [[nodiscard]] bool empty() const noexcept { return map_.empty(); }
  [[nodiscard]] size_type capacity() const noexcept { return map_.capacity(); }
  void clear() noexcept { map_.clear(); }
  void reserve(size_type n) { map_.reserve(n); }
  void swap(FlatHashSet& other) noexcept { map_.swap(other.map_); }
  friend void swap(FlatHashSet& a, FlatHashSet& b) noexcept { a.swap(b); }

  /// Returns true when the key was newly inserted.
  bool insert(const Key& key) { return map_.try_emplace(key).second; }
  [[nodiscard]] bool contains(const Key& key) const noexcept {
    return map_.contains(key);
  }
  [[nodiscard]] size_type count(const Key& key) const noexcept {
    return map_.count(key);
  }

  const_iterator begin() const noexcept {
    return const_iterator(map_.begin());
  }
  const_iterator end() const noexcept { return const_iterator(map_.end()); }

  friend bool operator==(const FlatHashSet& a, const FlatHashSet& b) {
    return a.map_ == b.map_;
  }
  friend bool operator!=(const FlatHashSet& a, const FlatHashSet& b) {
    return !(a == b);
  }

  /// Visit every key in ascending order.
  template <typename Fn>
  void fold_sorted(Fn&& fn) const {
    map_.fold_sorted([&fn](const Key& key, const Unit&) { fn(key); });
  }

 private:
  Map map_;
};

}  // namespace tmprof::util
