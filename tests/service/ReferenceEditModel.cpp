//===- ReferenceEditModel.cpp - Name-keyed edit replay --------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "ReferenceEditModel.h"

#include "memlook/chg/HierarchyBuilder.h"
#include "memlook/support/Diagnostics.h"

#include <unordered_map>

using namespace memlook;
using namespace memlook::service;

namespace {

/// A name-keyed, freely editable model of a hierarchy: every class,
/// edge and member held by spelling, edited by name, and rebuilt into a
/// fresh Hierarchy only after the whole script replayed cleanly.
struct EditModel {
  struct BaseEdge {
    std::string Base;
    InheritanceKind Kind;
    AccessSpec Access;
  };
  struct Member {
    std::string Name;
    bool IsStatic;
    bool IsVirtual;
    AccessSpec Access;
    std::string UsingFrom; ///< empty unless a using-declaration
  };
  struct Class {
    std::string Name;
    std::vector<BaseEdge> Bases;
    std::vector<Member> Members;
  };

  /// Classes in creation order (kept stable so replaying the same script
  /// twice yields bit-identical hierarchies).
  std::vector<Class> Classes;
  std::unordered_map<std::string, size_t> Index;

  static EditModel fromHierarchy(const Hierarchy &Base) {
    EditModel Model;
    Model.Classes.reserve(Base.numClasses());
    for (uint32_t Idx = 0; Idx != Base.numClasses(); ++Idx) {
      const Hierarchy::ClassInfo &Info = Base.info(ClassId(Idx));
      Class C;
      C.Name = std::string(Base.className(ClassId(Idx)));
      for (const BaseSpecifier &Spec : Info.DirectBases)
        C.Bases.push_back(BaseEdge{std::string(Base.className(Spec.Base)),
                                   Spec.Kind, Spec.Access});
      for (const MemberDecl &M : Info.Members) {
        Member Out;
        Out.Name = std::string(Base.spelling(M.Name));
        Out.IsStatic = M.IsStatic;
        Out.IsVirtual = M.IsVirtual;
        Out.Access = M.Access;
        if (M.isUsingDeclaration())
          Out.UsingFrom = std::string(Base.className(M.UsingFrom));
        C.Members.push_back(std::move(Out));
      }
      Model.Index.emplace(C.Name, Model.Classes.size());
      Model.Classes.push_back(std::move(C));
    }
    return Model;
  }

  Class *find(const std::string &Name) {
    auto It = Index.find(Name);
    return It == Index.end() ? nullptr : &Classes[It->second];
  }

  size_t numEdges() const {
    size_t N = 0;
    for (const Class &C : Classes)
      N += C.Bases.size();
    return N;
  }

  size_t numMembers() const {
    size_t N = 0;
    for (const Class &C : Classes)
      N += C.Members.size();
    return N;
  }
};

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

/// Applies one op to the model, or explains why it cannot apply.
Status applyOp(EditModel &Model, const Transaction::Op &Op) {
  using OpKind = Transaction::OpKind;
  switch (Op.Kind) {
  case OpKind::AddClass: {
    if (Op.Class.empty())
      return opError(ErrorCode::InvalidArgument, "empty class name", Op);
    if (Model.find(Op.Class))
      return opError(ErrorCode::DuplicateClass, "class already exists", Op);
    Model.Index.emplace(Op.Class, Model.Classes.size());
    Model.Classes.push_back(EditModel::Class{Op.Class, {}, {}});
    return Status::ok();
  }

  case OpKind::RemoveClass: {
    auto It = Model.Index.find(Op.Class);
    if (It == Model.Index.end())
      return opError(ErrorCode::UnknownClass, "no such class", Op);
    // A class can only go when nothing else references it: C++ has no
    // way to un-inherit, and a dangling using-target would be
    // meaningless.
    for (const EditModel::Class &C : Model.Classes) {
      if (C.Name == Op.Class)
        continue;
      for (const EditModel::BaseEdge &E : C.Bases)
        if (E.Base == Op.Class)
          return opError(ErrorCode::InvalidArgument,
                         "class is still a base of '" + C.Name + "'", Op);
      for (const EditModel::Member &M : C.Members)
        if (M.UsingFrom == Op.Class)
          return opError(ErrorCode::InvalidArgument,
                         "class is still named by a using-declaration in '" +
                             C.Name + "'",
                         Op);
    }
    size_t Removed = It->second;
    Model.Classes.erase(Model.Classes.begin() +
                        static_cast<ptrdiff_t>(Removed));
    Model.Index.erase(It);
    for (auto &Entry : Model.Index)
      if (Entry.second > Removed)
        --Entry.second;
    return Status::ok();
  }

  case OpKind::AddBase: {
    EditModel::Class *Derived = Model.find(Op.Class);
    if (!Derived)
      return opError(ErrorCode::UnknownClass, "no such derived class", Op);
    if (!Model.find(Op.Target))
      return opError(ErrorCode::UnknownClass, "no such base class", Op);
    for (const EditModel::BaseEdge &E : Derived->Bases)
      if (E.Base == Op.Target)
        return opError(ErrorCode::DuplicateBase, "base already listed", Op);
    Derived->Bases.push_back(
        EditModel::BaseEdge{Op.Target, Op.EdgeKind, Op.Access});
    return Status::ok();
  }

  case OpKind::RemoveBase: {
    EditModel::Class *Derived = Model.find(Op.Class);
    if (!Derived)
      return opError(ErrorCode::UnknownClass, "no such derived class", Op);
    for (size_t Idx = 0; Idx != Derived->Bases.size(); ++Idx) {
      if (Derived->Bases[Idx].Base == Op.Target) {
        Derived->Bases.erase(Derived->Bases.begin() +
                             static_cast<ptrdiff_t>(Idx));
        return Status::ok();
      }
    }
    return opError(ErrorCode::InvalidArgument, "no such base edge", Op);
  }

  case OpKind::AddMember:
  case OpKind::AddUsing: {
    EditModel::Class *C = Model.find(Op.Class);
    if (!C)
      return opError(ErrorCode::UnknownClass, "no such class", Op);
    if (Op.Member.empty())
      return opError(ErrorCode::InvalidArgument, "empty member name", Op);
    for (const EditModel::Member &M : C->Members)
      if (M.Name == Op.Member)
        return opError(ErrorCode::InvalidArgument,
                       "member name already declared in class", Op);
    EditModel::Member M;
    M.Name = Op.Member;
    M.IsStatic = Op.IsStatic;
    M.IsVirtual = Op.IsVirtual;
    M.Access = Op.Access;
    if (Op.Kind == OpKind::AddUsing) {
      if (!Model.find(Op.Target))
        return opError(ErrorCode::UnknownClass, "no such using-source class",
                       Op);
      M.UsingFrom = Op.Target;
    }
    C->Members.push_back(std::move(M));
    return Status::ok();
  }

  case OpKind::RemoveMember: {
    EditModel::Class *C = Model.find(Op.Class);
    if (!C)
      return opError(ErrorCode::UnknownClass, "no such class", Op);
    for (size_t Idx = 0; Idx != C->Members.size(); ++Idx) {
      if (C->Members[Idx].Name == Op.Member) {
        C->Members.erase(C->Members.begin() + static_cast<ptrdiff_t>(Idx));
        return Status::ok();
      }
    }
    return opError(ErrorCode::InvalidArgument, "member not declared in class",
                   Op);
  }
  }
  return Status::error(ErrorCode::InvalidArgument, "unknown op kind");
}

/// Materializes the model as a fresh finalized Hierarchy. Two passes so
/// forward references (a base created later in the script) work.
Expected<Hierarchy> rebuild(const EditModel &Model) {
  Hierarchy H;
  DiagnosticEngine Diags;

  std::vector<ClassId> Ids(Model.Classes.size());
  for (size_t Idx = 0; Idx != Model.Classes.size(); ++Idx) {
    Ids[Idx] = H.createClass(Model.Classes[Idx].Name, SourceLoc(), &Diags);
    if (!Ids[Idx].isValid())
      return statusFromDiagnostics(Diags);
  }
  for (size_t Idx = 0; Idx != Model.Classes.size(); ++Idx) {
    const EditModel::Class &C = Model.Classes[Idx];
    for (const EditModel::BaseEdge &E : C.Bases) {
      ClassId Base = H.findClass(E.Base);
      assert(Base.isValid() && "model edge names a missing class?");
      if (!H.addBase(Ids[Idx], Base, E.Kind, E.Access, SourceLoc(), &Diags))
        return statusFromDiagnostics(Diags);
    }
    for (const EditModel::Member &M : C.Members) {
      if (M.UsingFrom.empty()) {
        H.addMember(Ids[Idx], M.Name, M.IsStatic, M.IsVirtual, M.Access,
                    SourceLoc(), &Diags);
      } else {
        ClassId From = H.findClass(M.UsingFrom);
        assert(From.isValid() && "model using names a missing class?");
        H.addUsingDeclaration(Ids[Idx], From, M.Name, M.Access, SourceLoc(),
                              &Diags);
      }
      if (Diags.hasErrors())
        return statusFromDiagnostics(Diags);
    }
  }

  if (!H.finalize(Diags))
    return statusFromDiagnostics(Diags);
  Status S = statusFromDiagnostics(Diags);
  if (!S.isOk())
    return S;
  return H;
}

} // namespace

Expected<Hierarchy>
memlook::service::referenceApplyEditScript(
    const Hierarchy &Base, const std::vector<Transaction::Op> &Ops,
    const ResourceBudget &Budget) {
  assert(Base.isFinalized() && "edit scripts replay against an epoch");

  EditModel Model = EditModel::fromHierarchy(Base);
  for (const Transaction::Op &Op : Ops) {
    Status S = applyOp(Model, Op);
    if (!S.isOk())
      return S;
    if (Model.Classes.size() > Budget.MaxClasses)
      return Status::error(ErrorCode::BudgetExceeded,
                           "transaction exceeds the class budget");
    if (Model.numEdges() > Budget.MaxEdges)
      return Status::error(ErrorCode::BudgetExceeded,
                           "transaction exceeds the edge budget");
    if (Model.numMembers() > Budget.MaxMemberDecls)
      return Status::error(ErrorCode::BudgetExceeded,
                           "transaction exceeds the member budget");
  }
  return rebuild(Model);
}
