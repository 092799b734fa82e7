//===- Transaction.cpp - Batch edits -----------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/service/Transaction.h"

#include "memlook/chg/HierarchyBuilder.h"
#include "memlook/support/BitVector.h"
#include "memlook/support/Diagnostics.h"

#include <algorithm>
#include <unordered_set>

using namespace memlook;
using namespace memlook::service;

namespace {

Status opError(ErrorCode Code, const std::string &What,
               const Transaction::Op &Op) {
  std::string Msg = What;
  Msg += " (class '" + Op.Class + "'";
  if (!Op.Target.empty())
    Msg += ", target '" + Op.Target + "'";
  if (!Op.Member.empty())
    Msg += ", member '" + Op.Member + "'";
  Msg += ")";
  return Status::error(Code, std::move(Msg));
}

/// An editable copy of an epoch plus the one thing the graph cannot
/// hold: self-edges. An op may add `A : A` and a later op remove it, so
/// a self-edge is only an error if it survives the script; until then it
/// is kept here, by class id, and counts against the edge budget.
struct EditState {
  Hierarchy H;
  std::vector<ClassId> SelfEdges;
};

/// Applies one op to \p State, or explains why it cannot apply.
Status applyOp(EditState &State, const Transaction::Op &Op) {
  using OpKind = Transaction::OpKind;
  Hierarchy &H = State.H;
  switch (Op.Kind) {
  case OpKind::AddClass: {
    if (Op.Class.empty())
      return opError(ErrorCode::InvalidArgument, "empty class name", Op);
    if (H.findClass(Op.Class).isValid())
      return opError(ErrorCode::DuplicateClass, "class already exists", Op);
    H.createClass(Op.Class);
    return Status::ok();
  }

  case OpKind::RemoveClass: {
    ClassId A = H.findClass(Op.Class);
    if (!A.isValid())
      return opError(ErrorCode::UnknownClass, "no such class", Op);
    // A class can only go when nothing else references it: C++ has no
    // way to un-inherit, and a dangling using-target would be
    // meaningless. The lowest-id referencing class is named; within a
    // class its bases are reported before its using-declarations.
    const std::vector<ClassId> &Derived = H.info(A).DirectDerived;
    uint32_t End = Derived.empty() ? H.numClasses() : Derived.front().index();
    for (uint32_t C = 0; C != End; ++C) {
      if (C == A.index())
        continue;
      for (const MemberDecl &M : H.info(ClassId(C)).Members)
        if (M.UsingFrom == A)
          return opError(ErrorCode::InvalidArgument,
                         "class is still named by a using-declaration in '" +
                             std::string(H.className(ClassId(C))) + "'",
                         Op);
    }
    if (!Derived.empty())
      return opError(ErrorCode::InvalidArgument,
                     "class is still a base of '" +
                         std::string(H.className(Derived.front())) + "'",
                     Op);
    H.removeClass(A);
    // The class's own self-edge goes with it; later ids shift down.
    std::erase(State.SelfEdges, A);
    for (ClassId &C : State.SelfEdges)
      if (C.index() > A.index())
        C = ClassId(C.index() - 1);
    return Status::ok();
  }

  case OpKind::AddBase: {
    ClassId A = H.findClass(Op.Class);
    if (!A.isValid())
      return opError(ErrorCode::UnknownClass, "no such derived class", Op);
    ClassId B = H.findClass(Op.Target);
    if (!B.isValid())
      return opError(ErrorCode::UnknownClass, "no such base class", Op);
    if (A == B ? std::ranges::count(State.SelfEdges, A) != 0
               : H.edgeKind(B, A).has_value())
      return opError(ErrorCode::DuplicateBase, "base already listed", Op);
    if (A == B)
      State.SelfEdges.push_back(A);
    else
      H.addBase(A, B, Op.EdgeKind, Op.Access);
    return Status::ok();
  }

  case OpKind::RemoveBase: {
    ClassId A = H.findClass(Op.Class);
    if (!A.isValid())
      return opError(ErrorCode::UnknownClass, "no such derived class", Op);
    ClassId B = H.findClass(Op.Target);
    if (A == B ? std::erase(State.SelfEdges, A) != 0
               : B.isValid() && H.removeBase(A, B))
      return Status::ok();
    return opError(ErrorCode::InvalidArgument, "no such base edge", Op);
  }

  case OpKind::AddMember:
  case OpKind::AddUsing: {
    ClassId C = H.findClass(Op.Class);
    if (!C.isValid())
      return opError(ErrorCode::UnknownClass, "no such class", Op);
    if (Op.Member.empty())
      return opError(ErrorCode::InvalidArgument, "empty member name", Op);
    if (H.declaresMember(C, H.findName(Op.Member)))
      return opError(ErrorCode::InvalidArgument,
                     "member name already declared in class", Op);
    if (Op.Kind == OpKind::AddMember) {
      H.addMember(C, Op.Member, Op.IsStatic, Op.IsVirtual, Op.Access);
      return Status::ok();
    }
    ClassId From = H.findClass(Op.Target);
    if (!From.isValid())
      return opError(ErrorCode::UnknownClass, "no such using-source class",
                     Op);
    H.addUsingDeclaration(C, From, Op.Member, Op.Access);
    return Status::ok();
  }

  case OpKind::RemoveMember: {
    ClassId C = H.findClass(Op.Class);
    if (!C.isValid())
      return opError(ErrorCode::UnknownClass, "no such class", Op);
    if (H.removeMember(C, H.findName(Op.Member)))
      return Status::ok();
    return opError(ErrorCode::InvalidArgument, "member not declared in class",
                   Op);
  }
  }
  return Status::error(ErrorCode::InvalidArgument, "unknown op kind");
}

} // namespace

Expected<Hierarchy>
memlook::service::applyEditScript(const Hierarchy &Base,
                                  const std::vector<Transaction::Op> &Ops,
                                  const ResourceBudget &Budget) {
  assert(Base.isFinalized() && "edit scripts replay against an epoch");

  EditState State{Base.editableCopy(), {}};
  const Hierarchy &H = State.H;
  for (const Transaction::Op &Op : Ops) {
    Status S = applyOp(State, Op);
    if (!S.isOk())
      return S;
    if (H.numClasses() > Budget.MaxClasses)
      return Status::error(ErrorCode::BudgetExceeded,
                           "transaction exceeds the class budget");
    if (H.numEdges() + State.SelfEdges.size() > Budget.MaxEdges)
      return Status::error(ErrorCode::BudgetExceeded,
                           "transaction exceeds the edge budget");
    if (H.numMemberDecls() > Budget.MaxMemberDecls)
      return Status::error(ErrorCode::BudgetExceeded,
                           "transaction exceeds the member budget");
  }

  // Whole-graph checks run once the script is done: a surviving
  // self-edge first (the lowest class id), then finalize()'s cycle and
  // using-target checks.
  if (!State.SelfEdges.empty()) {
    ClassId Self =
        *std::min_element(State.SelfEdges.begin(), State.SelfEdges.end());
    return Status::error(ErrorCode::InheritanceCycle,
                         "class '" + std::string(H.className(Self)) +
                             "' cannot inherit from itself");
  }
  DiagnosticEngine Diags;
  if (!State.H.finalize(Diags))
    return statusFromDiagnostics(Diags);
  return std::move(State.H);
}

ImpactSet
memlook::service::computeImpactSet(const Hierarchy &Old, const Hierarchy &New,
                                   const std::vector<Transaction::Op> &Ops) {
  assert(Old.isFinalized() && New.isFinalized() &&
         "impact sets relate two epochs");

  ImpactSet Impact;
  std::unordered_set<std::string> Names;
  // Classes whose declared names a base-edge op impacts, per epoch: the
  // edge's base and its up-closure. markBases shares the visited set,
  // so each class is walked once however many ops name it.
  BitVector OldAbove(Old.numClasses()), NewAbove(New.numClasses());
  auto MarkAbove = [](const Hierarchy &H, const std::string &Name,
                      BitVector &Above) {
    ClassId B = H.findClass(Name);
    if (!B.isValid())
      return;
    Above.set(B.index());
    H.markBases(B, Above);
  };

  for (const Transaction::Op &Op : Ops) {
    switch (Op.Kind) {
    case Transaction::OpKind::RemoveClass:
      // RemoveClass erases a slot out of the dense id space: every later
      // class shifts down one index, so a shared column (indexed by
      // class id) would answer for the wrong classes.
      Impact.FullRebuild = true;
      break;
    case Transaction::OpKind::AddMember:
    case Transaction::OpKind::RemoveMember:
    case Transaction::OpKind::AddUsing:
      Names.insert(Op.Member);
      break;
    case Transaction::OpKind::AddBase:
      MarkAbove(New, Op.Target, NewAbove);
      break;
    case Transaction::OpKind::RemoveBase:
      MarkAbove(Old, Op.Target, OldAbove);
      break;
    case Transaction::OpKind::AddClass:
      break;
    }
  }
  if (Impact.FullRebuild)
    return Impact;

  auto CollectDeclared = [&Names](const Hierarchy &H, const BitVector &Above) {
    Above.forEachSetBit([&](size_t C) {
      for (const MemberDecl &M :
           H.info(ClassId(static_cast<uint32_t>(C))).Members)
        Names.insert(std::string(H.spelling(M.Name)));
    });
  };
  CollectDeclared(Old, OldAbove);
  CollectDeclared(New, NewAbove);

  // The stat: the down-closure of the classes the ops edit, in the new
  // epoch - the rows the edit can reach.
  BitVector Reached(New.numClasses());
  std::vector<ClassId> Stack;
  for (const Transaction::Op &Op : Ops) {
    ClassId A = New.findClass(Op.Class);
    if (A.isValid() && !Reached.test(A.index())) {
      Reached.set(A.index());
      Stack.push_back(A);
    }
  }
  while (!Stack.empty()) {
    ClassId C = Stack.back();
    Stack.pop_back();
    for (ClassId D : New.info(C).DirectDerived)
      if (!Reached.test(D.index())) {
        Reached.set(D.index());
        Stack.push_back(D);
      }
  }
  Impact.ImpactedClasses = Reached.count();
  Impact.MemberNames.assign(Names.begin(), Names.end());
  return Impact;
}
