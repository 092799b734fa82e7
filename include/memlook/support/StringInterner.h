//===- memlook/support/StringInterner.h - String interning ------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple append-only string interner. Class names and member names are
/// interned once and referred to by dense 32-bit Symbol ids thereafter, so
/// that all hot-path comparisons and map lookups are integer operations.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_SUPPORT_STRINGINTERNER_H
#define MEMLOOK_SUPPORT_STRINGINTERNER_H

#include "memlook/support/StrongId.h"

#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace memlook {

struct SymbolTag {};

/// An interned string id. Symbols from the same StringInterner compare
/// equal iff their spellings are equal.
using Symbol = StrongId<SymbolTag>;

/// Append-only string interner mapping spellings to dense Symbol ids.
///
/// Move-only: the index keys are string_views into the stored spellings,
/// so a memberwise copy would leave the copy's keys dangling into the
/// original. clone() is the explicit copy.
class StringInterner {
public:
  StringInterner() = default;
  StringInterner(StringInterner &&) = default;
  StringInterner &operator=(StringInterner &&) = default;
  StringInterner(const StringInterner &) = delete;
  StringInterner &operator=(const StringInterner &) = delete;

  /// An independent copy: the same spellings under the same Symbols, with
  /// the index rebuilt over the copy's own storage, so it outlives this
  /// interner.
  StringInterner clone() const;

  /// Interns \p Text, returning its Symbol. Idempotent: interning the same
  /// spelling twice returns the same Symbol.
  Symbol intern(std::string_view Text);

  /// Returns the Symbol for \p Text if it has been interned, or an invalid
  /// Symbol otherwise. Never allocates.
  Symbol find(std::string_view Text) const;

  /// Returns the spelling of \p Sym. The Symbol must come from this
  /// interner.
  std::string_view spelling(Symbol Sym) const;

  /// Number of distinct interned strings.
  size_t size() const { return Spellings.size(); }

  /// Heap bytes held: each spelling (text beyond the inline buffer
  /// included) and its index node, plus the index's buckets.
  size_t heapBytes() const {
    const size_t Inline = std::string().capacity();
    size_t Bytes = Index.bucket_count() * sizeof(void *);
    for (const std::string &S : Spellings)
      Bytes += sizeof(S) + (S.capacity() > Inline ? S.capacity() + 1 : 0) +
               2 * sizeof(void *) + sizeof(std::string_view) + sizeof(Symbol);
    return Bytes;
  }

private:
  // Deque keeps element addresses stable so the string_view keys in Index
  // (which point into the stored spellings) survive growth.
  std::deque<std::string> Spellings;
  std::unordered_map<std::string_view, Symbol> Index;
};

} // namespace memlook

#endif // MEMLOOK_SUPPORT_STRINGINTERNER_H
