// Fixed-capacity dynamic bitset tuned for the bitmap-based ego-network truss
// decomposition of Section 6.2: adjacency-as-bits with AND-popcount support
// counting and fast set-bit iteration.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace tsd {

/// A resizable bitset over indices [0, size).
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::size_t size) { Resize(size); }

  /// Resizes to `size` bits, clearing all bits.
  void Resize(std::size_t size) {
    size_ = size;
    words_.assign(WordCount(size), 0);
  }

  /// Number of addressable bits.
  std::size_t size() const { return size_; }

  /// Sets all bits to zero without changing the size.
  void ClearAll() { words_.assign(words_.size(), 0); }

  void Set(std::size_t i) {
    TSD_DCHECK(i < size_);
    words_[i >> 6] |= 1ULL << (i & 63);
  }

  void Clear(std::size_t i) {
    TSD_DCHECK(i < size_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  bool Test(std::size_t i) const {
    TSD_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  /// Number of set bits.
  std::size_t CountOnes() const {
    std::size_t total = 0;
    for (std::uint64_t word : words_) {
      total += static_cast<std::size_t>(std::popcount(word));
    }
    return total;
  }

  /// |this AND other| — the support primitive of the bitmap decomposition.
  /// Both bitmaps must have the same size.
  std::size_t AndPopcount(const Bitmap& other) const {
    TSD_DCHECK(size_ == other.size_);
    std::size_t total = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      total +=
          static_cast<std::size_t>(std::popcount(words_[w] & other.words_[w]));
    }
    return total;
  }

  /// Invokes `fn(i)` for every index i set in (this AND other), ascending.
  template <typename Fn>
  void ForEachCommonBit(const Bitmap& other, Fn&& fn) const {
    TSD_DCHECK(size_ == other.size_);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w] & other.words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn(static_cast<std::size_t>((w << 6) + bit));
        word &= word - 1;
      }
    }
  }

  /// Invokes `fn(i)` for every set index i, ascending.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn(static_cast<std::size_t>((w << 6) + bit));
        word &= word - 1;
      }
    }
  }

  /// Heap footprint in bytes (the word buffer's capacity).
  std::size_t MemoryBytes() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  static std::size_t WordCount(std::size_t bits) { return (bits + 63) / 64; }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace tsd
