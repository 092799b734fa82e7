//===- memlook/support/BitMatrix.h - Dense boolean matrix -------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense NxM boolean matrix stored as packed rows. The paper's Lemma 4
/// dominance test needs a constant-time "is X a virtual base of Y" query;
/// Hierarchy keeps it as an N x K matrix, one column per class that is
/// some class's virtual base, built by one row union per CHG edge in
/// topological order (the O(|N|*(|N|+|E|)) closure the paper notes a
/// compiler computes anyway, with K in place of the second |N|).
///
/// Storage is one contiguous word buffer, not a vector of BitVectors:
/// hierarchy-sized matrices (one row per class) used to cost one heap
/// allocation per row, and the snapshot loader's replay spent a
/// measurable slice of its time in the allocator.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_SUPPORT_BITMATRIX_H
#define MEMLOOK_SUPPORT_BITMATRIX_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace memlook {

/// Dense boolean matrix with packed rows and row-parallel union.
class BitMatrix {
public:
  BitMatrix() = default;

  /// Creates a \p Rows x \p Cols matrix, all clear.
  BitMatrix(size_t Rows, size_t Cols)
      : Words(Rows * wordsPerRow(Cols), 0), NumRows(Rows), NumCols(Cols),
        RowWords(wordsPerRow(Cols)) {}

  size_t rows() const { return NumRows; }
  size_t cols() const { return NumCols; }

  bool test(size_t Row, size_t Col) const {
    assert(Row < NumRows && "row out of range");
    assert(Col < NumCols && "column out of range");
    return (Words[Row * RowWords + Col / 64] >> (Col % 64)) & 1;
  }

  void set(size_t Row, size_t Col) {
    assert(Row < NumRows && "row out of range");
    assert(Col < NumCols && "column out of range");
    Words[Row * RowWords + Col / 64] |= uint64_t(1) << (Col % 64);
  }

  /// Unions row \p Src into row \p Dst (Dst |= Src).
  void unionRows(size_t Dst, size_t Src) {
    assert(Dst < NumRows && Src < NumRows && "row out of range");
    uint64_t *D = Words.data() + Dst * RowWords;
    const uint64_t *S = Words.data() + Src * RowWords;
    for (size_t I = 0; I != RowWords; ++I)
      D[I] |= S[I];
  }

  /// Calls \p Fn(column) for every set bit of row \p Row, in increasing
  /// column order.
  template <typename FnT> void forEachSetBit(size_t Row, FnT Fn) const {
    assert(Row < NumRows && "row out of range");
    const uint64_t *R = Words.data() + Row * RowWords;
    for (size_t WI = 0; WI != RowWords; ++WI)
      for (uint64_t W = R[WI]; W != 0; W &= W - 1)
        Fn(WI * 64 + static_cast<size_t>(__builtin_ctzll(W)));
  }

  /// Heap footprint of the word storage.
  size_t heapBytes() const { return Words.capacity() * sizeof(uint64_t); }

private:
  static size_t wordsPerRow(size_t Cols) { return (Cols + 63) / 64; }

  std::vector<uint64_t> Words;
  size_t NumRows = 0;
  size_t NumCols = 0;
  size_t RowWords = 0;
};

} // namespace memlook

#endif // MEMLOOK_SUPPORT_BITMATRIX_H
