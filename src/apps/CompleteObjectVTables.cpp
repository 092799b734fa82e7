//===- CompleteObjectVTables.cpp - ABI tables --------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/apps/CompleteObjectVTables.h"

#include <algorithm>

using namespace memlook;

std::vector<Symbol> memlook::collectVirtualMemberNames(const Hierarchy &H,
                                                       ClassId Class) {
  // Virtuality is sticky in C++ - an overrider is virtual because some
  // base declaration is - so scanning declarations for the IsVirtual flag
  // is the right test. Deterministic order: topological (bases first),
  // then declaration order within a class - the "first virtual
  // declaration" order real vtable layouts use.
  std::vector<Symbol> Names;
  BitVector Bases = H.basesOf(Class);
  for (ClassId Source : H.topologicalOrder()) {
    if (Source != Class && !Bases.test(Source.index()))
      continue;
    for (const MemberDecl &Member : H.info(Source).Members)
      if (Member.IsVirtual &&
          std::find(Names.begin(), Names.end(), Member.Name) == Names.end())
        Names.push_back(Member.Name);
  }
  return Names;
}

CompleteObjectVTables
memlook::buildCompleteObjectVTables(const Hierarchy &H, LookupEngine &Engine,
                                    ClassId Complete) {
  CompleteObjectVTables Result;
  Result.Complete = Complete;
  Result.Layout = computeObjectLayout(H, Complete);

  for (const auto &[Key, Offset] : Result.Layout.SubobjectOffsets) {
    std::vector<Symbol> VirtualNames =
        collectVirtualMemberNames(H, Key.ldc());
    if (VirtualNames.empty())
      continue;

    CompleteObjectVTables::SubobjectVTable Table;
    Table.Key = Key;
    Table.Offset = Offset;
    for (Symbol Member : VirtualNames) {
      CompleteObjectVTables::Slot Slot;
      Slot.Member = Member;
      // Virtual dispatch resolves against the complete object's class
      // (the dyn operation of Section 7.1).
      Slot.Overrider = Engine.lookup(Complete, Member);
      if (Slot.Overrider.Status == LookupStatus::Unambiguous &&
          Slot.Overrider.Subobject) {
        std::optional<uint64_t> Target =
            Result.Layout.subobjectOffset(*Slot.Overrider.Subobject);
        assert(Target && "overrider subobject missing from layout");
        Slot.ThisAdjustment = static_cast<int64_t>(*Target) -
                              static_cast<int64_t>(Offset);
        Slot.NeedsThunk = Slot.ThisAdjustment != 0;
      }
      Table.Slots.push_back(std::move(Slot));
    }
    Result.Tables.push_back(std::move(Table));
  }
  return Result;
}
