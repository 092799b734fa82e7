//===- ReferenceEditModel.h - Name-keyed edit replay ------------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference for applyEditScript: the name-keyed replay the service
/// used before edits applied by id. It copies the whole epoch into a
/// model keyed by spelling, replays the ops there, and rebuilds a fresh
/// Hierarchy through createClass/addBase/addMember. It is slow and
/// obviously faithful to the op-level contract, which is what a
/// differential oracle needs; it lives with the tests only.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_TESTS_SERVICE_REFERENCEEDITMODEL_H
#define MEMLOOK_TESTS_SERVICE_REFERENCEEDITMODEL_H

#include "memlook/service/Transaction.h"

namespace memlook {
namespace service {
/// applyEditScript's contract, by name: the same accept/reject decision,
/// ErrorCode and message, and on accept the same classes, edges and
/// members in the same id order.
Expected<Hierarchy>
referenceApplyEditScript(const Hierarchy &Base,
                         const std::vector<Transaction::Op> &Ops,
                         const ResourceBudget &Budget);

} // namespace service
} // namespace memlook

#endif // MEMLOOK_TESTS_SERVICE_REFERENCEEDITMODEL_H
