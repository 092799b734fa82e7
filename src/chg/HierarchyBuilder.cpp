//===- HierarchyBuilder.cpp - Fluent CHG builder ---------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/chg/HierarchyBuilder.h"

using namespace memlook;

Status memlook::statusFromDiagnostics(const DiagnosticEngine &Diags) {
  for (const Diagnostic &D : Diags.diagnostics()) {
    if (D.Level != Severity::Error)
      continue;
    ErrorCode Code = ErrorCode::InvalidArgument;
    switch (D.Code) {
    case DiagCode::UnknownBase:
      Code = ErrorCode::UnknownClass;
      break;
    case DiagCode::DuplicateClass:
      Code = ErrorCode::DuplicateClass;
      break;
    case DiagCode::DuplicateBase:
    case DiagCode::ConflictingBase:
      Code = ErrorCode::DuplicateBase;
      break;
    case DiagCode::SelfInheritance:
    case DiagCode::InheritanceCycle:
      Code = ErrorCode::InheritanceCycle;
      break;
    case DiagCode::InvalidUsingTarget:
      Code = ErrorCode::InvalidUsingTarget;
      break;
    case DiagCode::TooManyClasses:
    case DiagCode::TooManyEdges:
    case DiagCode::TooManyMembers:
    case DiagCode::TooManyErrors:
      Code = ErrorCode::BudgetExceeded;
      break;
    default:
      break;
    }
    return Status::error(Code, D.Message);
  }
  return Status::ok();
}

HierarchyBuilder HierarchyBuilder::fromHierarchy(const Hierarchy &Source) {
  assert(Source.isFinalized() && "copy the finished article, not a draft");
  HierarchyBuilder Builder;
  Hierarchy &H = Builder.H;

  // Topological order guarantees bases exist before their derivers, so
  // NewId already maps every base (and using-declaration target).
  std::vector<ClassId> NewId(Source.numClasses());
  for (ClassId Old : Source.topologicalOrder()) {
    const Hierarchy::ClassInfo &Info = Source.info(Old);
    ClassId New = H.createClass(Source.className(Old), Info.Loc);
    assert(New.isValid() && "source hierarchy had duplicate names?");
    NewId[Old.index()] = New;

    for (const BaseSpecifier &Spec : Info.DirectBases)
      H.addBase(New, NewId[Spec.Base.index()], Spec.Kind, Spec.Access,
                Spec.Loc);

    for (const MemberDecl &Member : Info.Members) {
      if (Member.isUsingDeclaration()) {
        H.addUsingDeclaration(New, NewId[Member.UsingFrom.index()],
                              Source.spelling(Member.Name), Member.Access,
                              Member.Loc);
      } else {
        H.addMember(New, Source.spelling(Member.Name), Member.IsStatic,
                    Member.IsVirtual, Member.Access, Member.Loc);
      }
    }
  }
  return Builder;
}

HierarchyBuilder::ClassHandle
HierarchyBuilder::addClass(std::string_view Name) {
  // createClass records the DuplicateClass diagnostic and returns an
  // invalid id; the handle is then inert.
  ClassId Id = H.createClass(Name, SourceLoc(), &BuildDiags);
  return ClassHandle(*this, Id);
}

HierarchyBuilder::ClassHandle
HierarchyBuilder::getClass(std::string_view Name) {
  ClassId Id = H.findClass(Name);
  if (!Id.isValid())
    BuildDiags.error("unknown class '" + std::string(Name) + "'",
                     DiagCode::UnknownBase);
  return ClassHandle(*this, Id);
}

Hierarchy HierarchyBuilder::build() && {
  assert(!BuildDiags.hasErrors() &&
         "builder recorded construction errors; use tryBuild()");
  DiagnosticEngine Diags;
  bool Ok = H.finalize(Diags);
  (void)Ok;
  assert(Ok && "builder-described hierarchy failed validation");
  return std::move(H);
}

Expected<Hierarchy> HierarchyBuilder::tryBuild(DiagnosticEngine *Diags) && {
  auto FirstError = [](const DiagnosticEngine &Engine) {
    Status S = statusFromDiagnostics(Engine);
    if (!S.isOk())
      return S;
    return Status::error(ErrorCode::InvalidArgument, "unknown builder error");
  };

  auto Forward = [&](const DiagnosticEngine &Engine) {
    if (Diags)
      for (const Diagnostic &D : Engine.diagnostics())
        Diags->report(D.Level, D.Loc, D.Message, D.Code);
  };

  Forward(BuildDiags);
  if (BuildDiags.hasErrors())
    return FirstError(BuildDiags);

  DiagnosticEngine FinalizeDiags;
  if (!H.finalize(FinalizeDiags)) {
    Forward(FinalizeDiags);
    return FirstError(FinalizeDiags);
  }
  Forward(FinalizeDiags); // warnings only
  return std::move(H);
}

HierarchyBuilder::ClassHandle &
HierarchyBuilder::ClassHandle::withBase(std::string_view Name,
                                        AccessSpec Access) {
  if (!valid())
    return *this;
  ClassId Base = Builder.H.findClass(Name);
  if (!Base.isValid()) {
    Builder.BuildDiags.error(
        "base class '" + std::string(Name) + "' of '" +
            std::string(Builder.H.className(Id)) + "' is not defined",
        DiagCode::UnknownBase);
    return *this;
  }
  Builder.H.addBase(Id, Base, InheritanceKind::NonVirtual, Access,
                    SourceLoc(), &Builder.BuildDiags);
  return *this;
}

HierarchyBuilder::ClassHandle &
HierarchyBuilder::ClassHandle::withVirtualBase(std::string_view Name,
                                               AccessSpec Access) {
  if (!valid())
    return *this;
  ClassId Base = Builder.H.findClass(Name);
  if (!Base.isValid()) {
    Builder.BuildDiags.error(
        "base class '" + std::string(Name) + "' of '" +
            std::string(Builder.H.className(Id)) + "' is not defined",
        DiagCode::UnknownBase);
    return *this;
  }
  Builder.H.addBase(Id, Base, InheritanceKind::Virtual, Access, SourceLoc(),
                    &Builder.BuildDiags);
  return *this;
}

HierarchyBuilder::ClassHandle &
HierarchyBuilder::ClassHandle::withMember(std::string_view Name,
                                          AccessSpec Access) {
  if (!valid())
    return *this;
  Builder.H.addMember(Id, Name, /*IsStatic=*/false, /*IsVirtual=*/false,
                      Access, SourceLoc(), &Builder.BuildDiags);
  return *this;
}

HierarchyBuilder::ClassHandle &
HierarchyBuilder::ClassHandle::withStaticMember(std::string_view Name,
                                                AccessSpec Access) {
  if (!valid())
    return *this;
  Builder.H.addMember(Id, Name, /*IsStatic=*/true, /*IsVirtual=*/false,
                      Access, SourceLoc(), &Builder.BuildDiags);
  return *this;
}

HierarchyBuilder::ClassHandle &
HierarchyBuilder::ClassHandle::withVirtualMember(std::string_view Name,
                                                 AccessSpec Access) {
  if (!valid())
    return *this;
  Builder.H.addMember(Id, Name, /*IsStatic=*/false, /*IsVirtual=*/true,
                      Access, SourceLoc(), &Builder.BuildDiags);
  return *this;
}

HierarchyBuilder::ClassHandle &
HierarchyBuilder::ClassHandle::withUsing(std::string_view From,
                                         std::string_view Name,
                                         AccessSpec Access) {
  if (!valid())
    return *this;
  ClassId FromId = Builder.H.findClass(From);
  if (!FromId.isValid()) {
    Builder.BuildDiags.error("class '" + std::string(From) +
                                 "' in using-declaration is not defined",
                             DiagCode::UnknownBase);
    return *this;
  }
  Builder.H.addUsingDeclaration(Id, FromId, Name, Access, SourceLoc(),
                                &Builder.BuildDiags);
  return *this;
}
