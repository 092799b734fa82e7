//===- Path.cpp - CHG path calculus ----------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/chg/Path.h"

#include <algorithm>

using namespace memlook;

bool memlook::isValidPath(const Hierarchy &H, const Path &P) {
  if (P.empty())
    return false;
  for (ClassId Id : P.Nodes)
    if (!Id.isValid() || Id.index() >= H.numClasses())
      return false;
  for (size_t I = 0, E = P.length() - 1; I != E; ++I)
    if (!H.edgeKind(P.Nodes[I], P.Nodes[I + 1]))
      return false;
  return true;
}

size_t memlook::fixedLength(const Hierarchy &H, const Path &P) {
  assert(!P.empty() && "fixed() of empty path");
  size_t Len = 1;
  for (size_t I = 0, E = P.length() - 1; I != E; ++I) {
    auto Kind = H.edgeKind(P.Nodes[I], P.Nodes[I + 1]);
    assert(Kind && "not a CHG path");
    if (*Kind == InheritanceKind::Virtual)
      break;
    ++Len;
  }
  return Len;
}

Path memlook::fixedPrefix(const Hierarchy &H, const Path &P) {
  size_t Len = fixedLength(H, P);
  return Path(std::vector<ClassId>(P.Nodes.begin(), P.Nodes.begin() + Len));
}

bool memlook::isVPath(const Hierarchy &H, const Path &P) {
  return fixedLength(H, P) != P.length();
}

ClassId memlook::leastVirtual(const Hierarchy &H, const Path &P) {
  size_t Len = fixedLength(H, P);
  if (Len == P.length())
    return ClassId(); // not a v-path: Omega
  return P.Nodes[Len - 1];
}

SubobjectKey memlook::subobjectKey(const Hierarchy &H, const Path &P) {
  size_t Len = fixedLength(H, P);
  return SubobjectKey{
      std::vector<ClassId>(P.Nodes.begin(), P.Nodes.begin() + Len), P.mdc()};
}

bool memlook::equivalent(const Hierarchy &H, const Path &A, const Path &B) {
  if (A.mdc() != B.mdc())
    return false;
  size_t LenA = fixedLength(H, A);
  size_t LenB = fixedLength(H, B);
  return LenA == LenB &&
         std::equal(A.Nodes.begin(), A.Nodes.begin() + LenA, B.Nodes.begin());
}

bool memlook::hides(const Path &A, const Path &B) {
  if (A.length() > B.length())
    return false;
  return std::equal(A.Nodes.begin(), A.Nodes.end(),
                    B.Nodes.end() - static_cast<ptrdiff_t>(A.length()));
}

/// Shared implementation of the general dominance test on the canonical
/// data (fixed part of each side, plus mdc equality checked by callers).
static bool dominatesImpl(const Hierarchy &H, const std::vector<ClassId> &FixedA,
                          const std::vector<ClassId> &FixedB, bool BIsVPath) {
  // Case (i): fixed(a) is a suffix of fixed(b); the missing prefix is a
  // chain of non-virtual edges we can prepend to a to reach a ~-witness
  // of b.
  if (FixedA.size() <= FixedB.size() &&
      std::equal(FixedA.begin(), FixedA.end(),
                 FixedB.end() - static_cast<ptrdiff_t>(FixedA.size())))
    return true;

  // Case (ii): b crosses a virtual edge right after fixed(b); if
  // mdc(fixed(b)) is a virtual base of ldc(a) we can route fixed(b),
  // a virtual edge, and any continuation down to ldc(a), then a itself.
  return BIsVPath && H.isVirtualBaseOf(FixedB.back(), FixedA.front());
}

bool memlook::dominates(const Hierarchy &H, const Path &A, const Path &B) {
  if (A.mdc() != B.mdc())
    return false;
  size_t LenA = fixedLength(H, A);
  size_t LenB = fixedLength(H, B);
  std::vector<ClassId> FixedA(A.Nodes.begin(), A.Nodes.begin() + LenA);
  std::vector<ClassId> FixedB(B.Nodes.begin(), B.Nodes.begin() + LenB);
  return dominatesImpl(H, FixedA, FixedB, LenB != B.length());
}

bool memlook::dominates(const Hierarchy &H, const SubobjectKey &A,
                        const SubobjectKey &B) {
  if (A.Mdc != B.Mdc)
    return false;
  return dominatesImpl(H, A.Fixed, B.Fixed, B.isVirtualPathClass());
}

Path memlook::concat(const Path &A, const Path &B) {
  assert(!A.empty() && !B.empty() && "concat of empty path");
  assert(A.mdc() == B.ldc() && "paths do not meet");
  Path Result;
  Result.Nodes.reserve(A.length() + B.length() - 1);
  Result.Nodes = A.Nodes;
  Result.Nodes.insert(Result.Nodes.end(), B.Nodes.begin() + 1, B.Nodes.end());
  return Result;
}

Path memlook::extend(const Path &P, ClassId Next) {
  Path Result = P;
  Result.Nodes.push_back(Next);
  return Result;
}

std::string memlook::formatPath(const Hierarchy &H, const Path &P) {
  // The paper runs single-letter class names together ("ABDFH"); fall
  // back to dot separators once any name is longer.
  bool AllSingle = true;
  for (ClassId Id : P.Nodes)
    if (H.className(Id).size() != 1) {
      AllSingle = false;
      break;
    }

  std::string Out;
  for (size_t I = 0, E = P.length(); I != E; ++I) {
    if (I != 0 && !AllSingle)
      Out += '.';
    Out += H.className(P.Nodes[I]);
  }
  return Out;
}

std::string memlook::formatSubobjectKey(const Hierarchy &H,
                                        const SubobjectKey &Key) {
  std::string Out = formatPath(H, Path(Key.Fixed));
  if (Key.isVirtualPathClass()) {
    Out += '*';
    Out += H.className(Key.Mdc);
  }
  return Out;
}

Path memlook::greedyPath(const Hierarchy &H, ClassId From, ClassId To,
                         const BitVector &ToBases) {
  Path Result(From);
  for (ClassId Cur = From; Cur != To;) {
    ClassId Next;
    for (ClassId Derived : H.info(Cur).DirectDerived)
      if (Derived == To || ToBases.test(Derived.index())) {
        Next = Derived;
        break;
      }
    assert(Next.isValid() && "From does not reach To");
    Result.Nodes.push_back(Next);
    Cur = Next;
  }
  return Result;
}

namespace {

/// Forward DFS emitting every From->...->To path in lexicographic node
/// order. Bounded by MaxPaths. \p Reaches is basesOf(To), computed once
/// by the caller and used to prune branches that cannot reach To.
class ForwardEnumerator {
public:
  ForwardEnumerator(const Hierarchy &H, ClassId To, const BitVector &Reaches,
                    const std::function<void(const Path &)> &Visit,
                    size_t MaxPaths)
      : H(H), To(To), Reaches(Reaches), Visit(Visit), Remaining(MaxPaths) {}

  bool run(ClassId From) {
    Current.Nodes.push_back(From);
    bool Complete = walk(From);
    Current.Nodes.pop_back();
    return Complete;
  }

private:
  bool walk(ClassId At) {
    if (At == To) {
      if (Remaining == 0)
        return false;
      --Remaining;
      Visit(Current);
      // A DAG path cannot revisit To, so stop here.
      return true;
    }

    std::vector<ClassId> Next = H.info(At).DirectDerived;
    std::sort(Next.begin(), Next.end());
    for (ClassId Derived : Next) {
      // Prune branches that cannot reach To.
      if (Derived != To && !Reaches.test(Derived.index()))
        continue;
      Current.Nodes.push_back(Derived);
      bool Complete = walk(Derived);
      Current.Nodes.pop_back();
      if (!Complete)
        return false;
    }
    return true;
  }

  const Hierarchy &H;
  ClassId To;
  const BitVector &Reaches;
  const std::function<void(const Path &)> &Visit;
  size_t Remaining;
  Path Current;
};

} // namespace

bool memlook::enumeratePaths(const Hierarchy &H, ClassId From, ClassId To,
                             const std::function<void(const Path &)> &Visit,
                             size_t MaxPaths) {
  assert(H.isFinalized() && "path enumeration requires finalize()");
  BitVector Reaches = H.basesOf(To);
  if (From != To && !Reaches.test(From.index()))
    return true; // no paths at all
  ForwardEnumerator Enumerator(H, To, Reaches, Visit, MaxPaths);
  return Enumerator.run(From);
}

bool memlook::enumeratePathsTo(const Hierarchy &H, ClassId To,
                               const std::function<void(const Path &)> &Visit,
                               size_t MaxPaths) {
  assert(H.isFinalized() && "path enumeration requires finalize()");

  // Enumerate sources in ascending id, then paths per source.
  BitVector Reaches = H.basesOf(To);
  size_t Budget = MaxPaths;
  for (uint32_t Idx = 0, N = H.numClasses(); Idx != N; ++Idx) {
    ClassId From(Idx);
    if (From != To && !Reaches.test(Idx))
      continue;
    size_t Used = 0;
    std::function<void(const Path &)> Counting = [&](const Path &P) {
      ++Used;
      Visit(P);
    };
    if (!ForwardEnumerator(H, To, Reaches, Counting, Budget).run(From))
      return false;
    Budget -= Used;
  }
  return true;
}
