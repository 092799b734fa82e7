//===- memlook/support/BitVector.h - Packed bit vector ----------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size packed bit vector with word-parallel union/intersection.
/// Used for class sets indexed by class id (a class's bases, the classes
/// an edit impacts) and for per-column computed-row bitmaps.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_SUPPORT_BITVECTOR_H
#define MEMLOOK_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace memlook {

/// Fixed-size packed vector of bits.
class BitVector {
public:
  BitVector() = default;

  /// Creates a vector of \p NumBits bits, all clear.
  explicit BitVector(size_t NumBits)
      : Words((NumBits + BitsPerWord - 1) / BitsPerWord, 0),
        NumBits(NumBits) {}

  /// Number of bits in the vector.
  size_t size() const { return NumBits; }

  /// Returns bit \p Idx.
  bool test(size_t Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    return (Words[Idx / BitsPerWord] >> (Idx % BitsPerWord)) & 1;
  }

  /// Sets bit \p Idx.
  void set(size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    Words[Idx / BitsPerWord] |= Word(1) << (Idx % BitsPerWord);
  }

  /// Clears bit \p Idx.
  void reset(size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    Words[Idx / BitsPerWord] &= ~(Word(1) << (Idx % BitsPerWord));
  }

  /// Clears all bits.
  void clear() { std::memset(Words.data(), 0, Words.size() * sizeof(Word)); }

  /// Sets all bits. Word-parallel (the snapshot loader marks every row
  /// of a restored column computed; bit-at-a-time was a measurable
  /// slice of warm starts).
  void setAll() {
    if (Words.empty())
      return;
    std::memset(Words.data(), 0xFF, Words.size() * sizeof(Word));
    if (size_t Tail = NumBits % BitsPerWord)
      Words.back() = (Word(1) << Tail) - 1;
  }

  /// Word-parallel union: *this |= Other. Sizes must match.
  BitVector &operator|=(const BitVector &Other) {
    assert(NumBits == Other.NumBits && "size mismatch in union");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] |= Other.Words[I];
    return *this;
  }

  /// Word-parallel intersection: *this &= Other. Sizes must match.
  BitVector &operator&=(const BitVector &Other) {
    assert(NumBits == Other.NumBits && "size mismatch in intersection");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= Other.Words[I];
    return *this;
  }

  /// Returns true if no bit is set.
  bool none() const {
    for (Word W : Words)
      if (W != 0)
        return false;
    return true;
  }

  /// Number of set bits.
  size_t count() const {
    size_t N = 0;
    for (Word W : Words)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

  /// Heap footprint of the word storage (capacity, what the allocator
  /// actually holds), for exact table accounting.
  size_t heapBytes() const { return Words.capacity() * sizeof(Word); }

  friend bool operator==(const BitVector &A, const BitVector &B) {
    return A.NumBits == B.NumBits && A.Words == B.Words;
  }

  /// Calls \p Fn(index) for every set bit, in increasing index order.
  template <typename FnT> void forEachSetBit(FnT Fn) const {
    for (size_t WI = 0, WE = Words.size(); WI != WE; ++WI) {
      Word W = Words[WI];
      while (W != 0) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(WI * BitsPerWord + Bit);
        W &= W - 1;
      }
    }
  }

private:
  using Word = uint64_t;
  static constexpr size_t BitsPerWord = 64;

  std::vector<Word> Words;
  size_t NumBits = 0;
};

} // namespace memlook

#endif // MEMLOOK_SUPPORT_BITVECTOR_H
