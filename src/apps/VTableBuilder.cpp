//===- VTableBuilder.cpp - Vtable construction ------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/apps/VTableBuilder.h"

#include "memlook/apps/CompleteObjectVTables.h"

using namespace memlook;

VTable VTableBuilder::build(ClassId Class) {
  VTable Table;
  Table.Class = Class;
  for (Symbol Member : collectVirtualMemberNames(H, Class))
    Table.Slots.push_back(VTable::Slot{Member, Engine.lookup(Class, Member)});
  return Table;
}

std::vector<VTable> VTableBuilder::buildAll() {
  std::vector<VTable> Tables;
  Tables.reserve(H.numClasses());
  for (ClassId Class : H.topologicalOrder())
    Tables.push_back(build(Class));
  return Tables;
}
