// DynamicBitset: a fixed-universe bitset sized at runtime. Used for
// attribute sets (Section 2.1) and for the arc matrices of Algorithm ALG
// (Section 5.2), where bit-parallel row operations give the O(n^4)
// closure a small constant factor.

#ifndef PSEM_UTIL_BITSET_H_
#define PSEM_UTIL_BITSET_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace psem {

/// A bitset over {0, ..., n-1} with word-parallel set operations.
class DynamicBitset {
 public:
  DynamicBitset() : num_bits_(0) {}

  /// All bits initially clear.
  explicit DynamicBitset(std::size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  std::size_t size() const { return num_bits_; }

  void Set(std::size_t i) {
    assert(i < num_bits_);
    words_[i >> 6] |= (uint64_t{1} << (i & 63));
  }

  void Reset(std::size_t i) {
    assert(i < num_bits_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  bool Test(std::size_t i) const {
    assert(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Clears every bit, or only backing words [word_begin, word_end)
  /// (word_end is clamped to the row).
  void Clear(std::size_t word_begin = 0, std::size_t word_end = SIZE_MAX) {
    word_end = std::min(word_end, words_.size());
    for (std::size_t k = word_begin; k < word_end; ++k) words_[k] = 0;
  }

  /// Changes the universe to {0, ..., new_bits-1}. Growing preserves all
  /// bits (new positions start clear); shrinking drops the tail. Used by
  /// the incremental ALG closure when V gains vertices.
  void Resize(std::size_t new_bits) {
    num_bits_ = new_bits;
    words_.resize((new_bits + 63) / 64, 0);
    TrimTail();
  }

  void SetAll() {
    for (auto& w : words_) w = ~uint64_t{0};
    TrimTail();
  }

  /// Number of set bits.
  std::size_t Count() const {
    std::size_t c = 0;
    for (uint64_t w : words_) c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }

  bool Any() const {
    for (uint64_t w : words_)
      if (w) return true;
    return false;
  }

  bool None() const { return !Any(); }

  /// In-place union; returns true iff this changed. Sizes must match.
  bool UnionWith(const DynamicBitset& other) {
    assert(num_bits_ == other.num_bits_);
    bool changed = false;
    for (std::size_t k = 0; k < words_.size(); ++k) {
      uint64_t before = words_[k];
      words_[k] |= other.words_[k];
      changed |= (words_[k] != before);
    }
    return changed;
  }

  /// In-place union that also reports what changed: returns the number of
  /// bits newly set, and (when `newly` is non-null) ORs exactly those bits
  /// into *newly. One scan over every word: OR plus popcount of the
  /// difference, with no write where `other` adds nothing. This is the
  /// kernel behind the semi-naive ALG closure's exact running arc counter.
  ///
  /// Only backing words [word_begin, word_end) are scanned (word_end is
  /// clamped to the row). The result equals the full-width union whenever
  /// `other` is zero outside that range; the default is the whole row.
  std::size_t OrInPlaceCountNew(const DynamicBitset& other,
                                DynamicBitset* newly = nullptr,
                                std::size_t word_begin = 0,
                                std::size_t word_end = SIZE_MAX) {
    assert(num_bits_ == other.num_bits_);
    assert(newly == nullptr || newly->num_bits_ == num_bits_);
    std::size_t added = 0;
    word_end = std::min(word_end, words_.size());
    for (std::size_t k = word_begin; k < word_end; ++k) {
      uint64_t ow = other.words_[k];
      if (!ow) continue;
      uint64_t fresh = ow & ~words_[k];
      if (!fresh) continue;
      words_[k] |= fresh;
      added += static_cast<std::size_t>(__builtin_popcountll(fresh));
      if (newly) newly->words_[k] |= fresh;
    }
    return added;
  }

  /// In-place union with (a AND b), counting and recording newly set bits
  /// exactly like OrInPlaceCountNew, over the same word range.
  std::size_t OrAndInPlaceCountNew(const DynamicBitset& a,
                                   const DynamicBitset& b,
                                   DynamicBitset* newly = nullptr,
                                   std::size_t word_begin = 0,
                                   std::size_t word_end = SIZE_MAX) {
    assert(num_bits_ == a.num_bits_ && num_bits_ == b.num_bits_);
    assert(newly == nullptr || newly->num_bits_ == num_bits_);
    std::size_t added = 0;
    word_end = std::min(word_end, words_.size());
    for (std::size_t k = word_begin; k < word_end; ++k) {
      uint64_t ow = a.words_[k] & b.words_[k];
      if (!ow) continue;
      uint64_t fresh = ow & ~words_[k];
      if (!fresh) continue;
      words_[k] |= fresh;
      added += static_cast<std::size_t>(__builtin_popcountll(fresh));
      if (newly) newly->words_[k] |= fresh;
    }
    return added;
  }

  /// In-place union with no change tracking: a straight-line word loop
  /// the compiler vectorizes to pure ORs. The accumulator kernel of the
  /// blocked dense closure sweep, where OrInPlaceCountNew's branchy
  /// skip-and-popcount scan would dominate (counting there happens once
  /// per destination row, on the merged accumulator).
  void OrWith(const DynamicBitset& other) {
    assert(num_bits_ == other.num_bits_);
    for (std::size_t k = 0; k < words_.size(); ++k) words_[k] |= other.words_[k];
  }

  /// this = a AND NOT b. All three must share a universe (this included —
  /// AndNot overwrites the contents, not the size).
  void AndNot(const DynamicBitset& a, const DynamicBitset& b) {
    assert(num_bits_ == a.num_bits_ && num_bits_ == b.num_bits_);
    for (std::size_t k = 0; k < words_.size(); ++k) {
      words_[k] = a.words_[k] & ~b.words_[k];
    }
  }

  /// Backing word k (bits 64k..64k+63), for callers that move rows a
  /// word at a time.
  uint64_t word(std::size_t k) const {
    assert(k < words_.size());
    return words_[k];
  }

  /// Overwrites backing word k. Bits beyond size() are masked off, so a
  /// deserializer cannot smuggle stray tail bits into Count()/Any().
  /// Returns false (leaving the word unchanged) iff the input had such
  /// bits — callers on untrusted boundaries treat that as corruption.
  bool set_word(std::size_t k, uint64_t w) {
    assert(k < words_.size());
    if (k + 1 == words_.size()) {
      std::size_t tail = num_bits_ & 63;
      if (tail != 0 && (w & ~((uint64_t{1} << tail) - 1)) != 0) return false;
    }
    words_[k] = w;
    return true;
  }

  /// In-place intersection.
  void IntersectWith(const DynamicBitset& other) {
    assert(num_bits_ == other.num_bits_);
    for (std::size_t k = 0; k < words_.size(); ++k) words_[k] &= other.words_[k];
  }

  /// In-place difference (this \ other).
  void SubtractWith(const DynamicBitset& other) {
    assert(num_bits_ == other.num_bits_);
    for (std::size_t k = 0; k < words_.size(); ++k) words_[k] &= ~other.words_[k];
  }

  /// True iff this is a subset of other.
  bool IsSubsetOf(const DynamicBitset& other) const {
    assert(num_bits_ == other.num_bits_);
    for (std::size_t k = 0; k < words_.size(); ++k)
      if (words_[k] & ~other.words_[k]) return false;
    return true;
  }

  bool operator==(const DynamicBitset& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

  /// Index of the first set bit at or after `from`, or size() if none.
  std::size_t NextSetBit(std::size_t from) const {
    if (from >= num_bits_) return num_bits_;
    std::size_t word = from >> 6;
    uint64_t w = words_[word] & (~uint64_t{0} << (from & 63));
    while (true) {
      if (w) {
        std::size_t bit = (word << 6) +
                          static_cast<std::size_t>(__builtin_ctzll(w));
        return bit < num_bits_ ? bit : num_bits_;
      }
      if (++word >= words_.size()) return num_bits_;
      w = words_[word];
    }
  }

  /// Calls fn(i) for every set bit i in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = NextSetBit(0); i < num_bits_; i = NextSetBit(i + 1)) {
      fn(i);
    }
  }

  /// Calls fn(i) in increasing order for every set bit i in backing words
  /// [word_begin, word_end) (word_end is clamped to the row). Each word is
  /// read once and walked in a register, so a bit that fn sets in a word
  /// already read is not visited; nor does a store by fn force a re-read.
  template <typename Fn>
  void ForEach(std::size_t word_begin, std::size_t word_end, Fn&& fn) const {
    word_end = std::min(word_end, words_.size());
    for (std::size_t k = word_begin; k < word_end; ++k) {
      for (uint64_t w = words_[k]; w; w &= w - 1) {
        fn((k << 6) + static_cast<std::size_t>(__builtin_ctzll(w)));
      }
    }
  }

  /// Hash suitable for unordered containers.
  std::size_t Hash() const {
    std::size_t h = 0xcbf29ce484222325ull;
    for (uint64_t w : words_) {
      h ^= static_cast<std::size_t>(w);
      h *= 0x100000001b3ull;
    }
    return h;
  }

 private:
  void TrimTail() {
    std::size_t tail = num_bits_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << tail) - 1;
    }
  }

  std::size_t num_bits_;
  std::vector<uint64_t> words_;
};

}  // namespace psem

#endif  // PSEM_UTIL_BITSET_H_
