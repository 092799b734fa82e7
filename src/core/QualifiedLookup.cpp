//===- QualifiedLookup.cpp - x.B::m -------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/core/QualifiedLookup.h"

#include "memlook/subobject/SubobjectCount.h"
#include "memlook/subobject/SubobjectGraph.h"

using namespace memlook;

QualifiedLookupResult
memlook::qualifiedMemberLookup(const Hierarchy &H, LookupEngine &Engine,
                               ClassId ObjectType, ClassId NamingClass,
                               Symbol Member) {
  QualifiedLookupResult Result;

  // Step 1: the naming class must be the object type or an unambiguous
  // base of it.
  uint64_t BaseCopies = countSubobjectsWithLdc(H, ObjectType, NamingClass);
  if (BaseCopies == 0) {
    Result.ResultKind = QualifiedLookupResult::Kind::NotABase;
    return Result;
  }
  if (BaseCopies > 1) {
    Result.ResultKind = QualifiedLookupResult::Kind::AmbiguousBase;
    return Result;
  }

  // The unique B subobject: since it is unique, *any* path from B to the
  // object type names it.
  Path BasePath =
      greedyPath(H, NamingClass, ObjectType, H.basesOf(ObjectType));
  SubobjectKey BaseKey = subobjectKey(H, BasePath);
  Result.BaseSubobject = BaseKey;

  // Step 2: ordinary member lookup in the context of the naming class.
  LookupResult Inner = Engine.lookup(NamingClass, Member);
  if (Inner.Status != LookupStatus::Unambiguous) {
    Result.ResultKind = QualifiedLookupResult::Kind::MemberProblem;
    Result.Member = std::move(Inner);
    return Result;
  }

  // Step 3: re-embed into the complete object (stat's composition, on
  // canonical keys; the witness concatenates when available).
  Result.ResultKind = QualifiedLookupResult::Kind::Ok;
  Result.Member = Inner;
  if (Inner.Subobject)
    Result.Member.Subobject =
        composeSubobjectKeys(*Inner.Subobject, BaseKey);
  if (Inner.Witness)
    Result.Member.Witness = concat(*Inner.Witness, BasePath);
  return Result;
}
