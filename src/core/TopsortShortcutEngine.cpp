//===- TopsortShortcutEngine.cpp - Section 7.2 -----------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/core/TopsortShortcutEngine.h"

using namespace memlook;

LookupResult TopsortShortcutEngine::lookup(ClassId Context, Symbol Member) {
  // Select the declaring class with the maximum topological number among
  // Context and its bases. (Any declaring class reaches Context by some
  // path; when the program has no ambiguous lookups all those paths name
  // the same subobject, so one greedy witness path below suffices.)
  ClassId BestClass;
  auto Consider = [&](ClassId Candidate) {
    if (H.declaresMember(Candidate, Member) &&
        (!BestClass.isValid() ||
         H.topoIndex(Candidate) > H.topoIndex(BestClass)))
      BestClass = Candidate;
  };

  BitVector Bases = H.basesOf(Context);
  Consider(Context);
  Bases.forEachSetBit(
      [&](size_t Idx) { Consider(ClassId(static_cast<uint32_t>(Idx))); });

  if (!BestClass.isValid())
    return LookupResult::notFound();

  // Greedy witness: walk derived-wards from the defining class toward
  // Context, always stepping into a class that still reaches Context.
  Path Witness = greedyPath(H, BestClass, Context, Bases);

  // Compute the key before the move: argument evaluation order is
  // unspecified, so passing subobjectKey(H, Witness) and
  // std::move(Witness) in one call would be a use-after-move hazard.
  SubobjectKey Key = subobjectKey(H, Witness);
  return LookupResult::unambiguous(BestClass, std::move(Key),
                                   std::move(Witness));
}
