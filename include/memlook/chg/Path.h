//===- memlook/chg/Path.h - CHG path calculus -------------------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The path formalism of Section 3 of the paper, made executable:
///
///  * a Path is a nonempty node sequence ldc..mdc where consecutive nodes
///    are connected by CHG edges (Definition 1: ldc = source = least
///    derived class, mdc = target = most derived class);
///  * fixed(a) is the longest prefix containing no virtual edge
///    (Definition 2);
///  * a ~ b (written `equivalent`) iff fixed(a) = fixed(b) and
///    mdc(a) = mdc(b) (Definition 3); the equivalence classes *are* the
///    subobjects, canonically named by a SubobjectKey (fixed part + mdc);
///  * `hides`: a hides b iff a is a suffix of b (Definition 5);
///  * `dominates`: a dominates b iff a hides some b' ~ b (Definition 5).
///
/// The dominance test here is the fully general one, valid for arbitrary
/// path pairs - unlike the paper's Lemma 4, which is a faster test that
/// is only valid when the left path is a "red" definition. The general
/// form (derived from Definitions 2-5 in DESIGN.md Section 5) is:
///
///   a dominates b  iff  mdc(a) = mdc(b) and either
///     (i)  fixed(a) is a suffix of fixed(b), or
///     (ii) b is a v-path and mdc(fixed(b)) is a virtual base of ldc(a).
///
/// Case (i) covers extending a by a chain of non-virtual edges (or none)
/// to reach an ~-representative of b; case (ii) covers extensions whose
/// added prefix itself contains a virtual edge. The property tests in
/// tests/chg/DominanceLawsTest.cpp validate this derivation exhaustively
/// against the literal Definition 5 on enumerated paths.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_CHG_PATH_H
#define MEMLOOK_CHG_PATH_H

#include "memlook/chg/Hierarchy.h"

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace memlook {

/// A path in the CHG: nodes from the least derived class (front) to the
/// most derived class (back). A single node is the trivial path.
struct Path {
  std::vector<ClassId> Nodes;

  Path() = default;
  explicit Path(std::vector<ClassId> Nodes) : Nodes(std::move(Nodes)) {}
  explicit Path(ClassId Single) : Nodes{Single} {}

  bool empty() const { return Nodes.empty(); }
  size_t length() const { return Nodes.size(); }

  /// Least derived class: the source of the path (Definition 1).
  ClassId ldc() const {
    assert(!Nodes.empty() && "ldc of empty path");
    return Nodes.front();
  }

  /// Most derived class: the target of the path (Definition 1).
  ClassId mdc() const {
    assert(!Nodes.empty() && "mdc of empty path");
    return Nodes.back();
  }

  friend bool operator==(const Path &A, const Path &B) {
    return A.Nodes == B.Nodes;
  }
  friend bool operator<(const Path &A, const Path &B) {
    return A.Nodes < B.Nodes;
  }
};

/// Canonical name of a subobject: the ~-equivalence class of its paths.
/// Since a ~ b iff fixed(a) = fixed(b) and mdc(a) = mdc(b), the pair
/// (fixed part, mdc) identifies the class uniquely (Definitions 3-4).
struct SubobjectKey {
  std::vector<ClassId> Fixed; ///< nodes of the fixed prefix, ldc first
  ClassId Mdc;

  /// ldc of every path in the class: the first node of the fixed part.
  ClassId ldc() const {
    assert(!Fixed.empty() && "empty fixed part");
    return Fixed.front();
  }

  /// True iff the paths in this class contain a virtual edge, i.e. the
  /// fixed part stops before mdc.
  bool isVirtualPathClass() const { return Fixed.back() != Mdc; }

  /// mdc(fixed(a)): the last node of the fixed part. For v-path classes
  /// this is the paper's leastVirtual value; otherwise it equals mdc.
  ClassId fixedEnd() const {
    assert(!Fixed.empty() && "empty fixed part");
    return Fixed.back();
  }

  friend bool operator==(const SubobjectKey &A, const SubobjectKey &B) {
    return A.Mdc == B.Mdc && A.Fixed == B.Fixed;
  }
  friend bool operator<(const SubobjectKey &A, const SubobjectKey &B) {
    if (A.Mdc != B.Mdc)
      return A.Mdc < B.Mdc;
    return A.Fixed < B.Fixed;
  }
};

/// Hash for SubobjectKey, enabling unordered subobject maps.
struct SubobjectKeyHash {
  size_t operator()(const SubobjectKey &Key) const {
    size_t H = std::hash<uint32_t>()(Key.Mdc.rawValue());
    for (ClassId Id : Key.Fixed)
      H = H * 1000003u + Id.rawValue();
    return H;
  }
};

/// True iff consecutive nodes of \p P are connected by CHG edges in \p H.
/// The empty path is invalid.
bool isValidPath(const Hierarchy &H, const Path &P);

/// Number of nodes in fixed(P): the longest prefix free of virtual edges
/// (Definition 2). At least 1 (the trivial prefix holding only ldc).
size_t fixedLength(const Hierarchy &H, const Path &P);

/// fixed(P) as its own path.
Path fixedPrefix(const Hierarchy &H, const Path &P);

/// True iff \p P contains at least one virtual edge (Definition 13).
bool isVPath(const Hierarchy &H, const Path &P);

/// leastVirtual(P) (Definition 14): mdc(fixed(P)) when P is a v-path,
/// otherwise the invalid ClassId, which plays the paper's Omega.
ClassId leastVirtual(const Hierarchy &H, const Path &P);

/// The canonical subobject key of [P] (Definitions 3-4).
SubobjectKey subobjectKey(const Hierarchy &H, const Path &P);

/// a ~ b: both paths name the same subobject (Definition 3).
bool equivalent(const Hierarchy &H, const Path &A, const Path &B);

/// a hides b: a is a suffix of b (Definition 5).
bool hides(const Path &A, const Path &B);

/// a dominates b (Definition 5), by the general closed-form test above.
bool dominates(const Hierarchy &H, const Path &A, const Path &B);

/// Dominance lifted to canonical subobject keys (Definition 6 says the
/// relation is ~-invariant, so this is well defined).
bool dominates(const Hierarchy &H, const SubobjectKey &A,
               const SubobjectKey &B);

/// Concatenation a . b; requires mdc(a) == ldc(b) (Section 2). The shared
/// node appears once in the result.
Path concat(const Path &A, const Path &B);

/// P extended by the single edge mdc(P) -> Next.
Path extend(const Path &P, ClassId Next);

/// Renders a path as its node names run together, like the paper
/// ("ABDFH"), except that multi-character class names are separated by
/// dots for readability.
std::string formatPath(const Hierarchy &H, const Path &P);

/// Renders a canonical subobject key as "<fixed>*<mdc>" when the class
/// contains a virtual edge and as the plain path otherwise.
std::string formatSubobjectKey(const Hierarchy &H, const SubobjectKey &Key);

/// One CHG path \p From -> ... -> \p To, built greedily: each step enters
/// the first direct derived class that is \p To or in \p ToBases, which
/// must be H.basesOf(To). From must be To or in ToBases.
Path greedyPath(const Hierarchy &H, ClassId From, ClassId To,
                const BitVector &ToBases);

/// Enumerates every CHG path from \p From to \p To in lexicographic node
/// order, invoking \p Visit on each. Stops early (returning false) once
/// \p MaxPaths paths have been produced; returns true if the enumeration
/// completed. Intended for tests and reference engines: the number of
/// paths can be exponential in the hierarchy size.
bool enumeratePaths(const Hierarchy &H, ClassId From, ClassId To,
                    const std::function<void(const Path &)> &Visit,
                    size_t MaxPaths = 1u << 20);

/// Enumerates every path ending at \p To (from any ldc), including the
/// trivial path <To>. Same contract as enumeratePaths.
bool enumeratePathsTo(const Hierarchy &H, ClassId To,
                      const std::function<void(const Path &)> &Visit,
                      size_t MaxPaths = 1u << 20);

} // namespace memlook

#endif // MEMLOOK_CHG_PATH_H
