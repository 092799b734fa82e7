//===- Hierarchy.cpp - C++ class hierarchy graph ---------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/chg/Hierarchy.h"

#include "memlook/support/TopologicalSort.h"

#include <algorithm>
#include <string>

using namespace memlook;

const char *memlook::accessSpelling(AccessSpec Access) {
  switch (Access) {
  case AccessSpec::Public:
    return "public";
  case AccessSpec::Protected:
    return "protected";
  case AccessSpec::Private:
    return "private";
  }
  return "unknown";
}

ClassId Hierarchy::createClass(std::string_view Name, SourceLoc Loc,
                               DiagnosticEngine *Diags) {
  assert(!Finalized && "cannot add classes after finalize()");
  Symbol Sym = Names.intern(Name);
  if (Sym.index() >= ClassOfName.size())
    ClassOfName.resize(Sym.index() + 1);
  if (ClassOfName[Sym.index()].isValid()) {
    if (Diags)
      Diags->error(Loc, "redefinition of class '" + std::string(Name) + "'",
                   DiagCode::DuplicateClass);
    return ClassId();
  }

  ClassId Id(static_cast<uint32_t>(Classes.size()));
  Classes.push_back(ClassInfo{Sym, Loc, {}, {}, {}});
  ClassOfName[Sym.index()] = Id;
  return Id;
}

bool Hierarchy::addBase(ClassId Derived, ClassId Base, InheritanceKind Kind,
                        AccessSpec Access, SourceLoc Loc,
                        DiagnosticEngine *Diags) {
  assert(!Finalized && "cannot add edges after finalize()");
  assert(Derived.isValid() && Derived.index() < Classes.size() &&
         "bad derived class id");
  assert(Base.isValid() && Base.index() < Classes.size() && "bad base id");

  if (Base == Derived) {
    if (Diags)
      Diags->error(Loc,
                   "class '" + std::string(className(Derived)) +
                       "' cannot inherit from itself",
                   DiagCode::SelfInheritance);
    return false;
  }

  // C++ forbids naming the same class twice in one base-specifier list
  // ([class.mi]); this also keeps the CHG a plain graph rather than a
  // multigraph, which Definition 15's abstraction operator relies on.
  // A repeat with the *other* inheritance kind gets its own code: it is
  // the classic adversarial probe for engines that key edges by
  // (base, derived) and would silently merge the two kinds.
  ClassInfo &DerivedInfo = Classes[Derived.index()];
  for (const BaseSpecifier &Spec : DerivedInfo.DirectBases)
    if (Spec.Base == Base) {
      bool Conflicting = Spec.Kind != Kind;
      if (Diags)
        Diags->error(Loc,
                     std::string(Conflicting ? "conflicting" : "duplicate") +
                         " direct base class '" +
                         std::string(className(Base)) + "' of '" +
                         std::string(className(Derived)) +
                         (Conflicting ? "' (virtual and non-virtual)" : "'"),
                     Conflicting ? DiagCode::ConflictingBase
                                 : DiagCode::DuplicateBase);
      return false;
    }

  DerivedInfo.DirectBases.push_back(BaseSpecifier{Base, Kind, Access, Loc});
  // Usually Derived is the newest deriver and this appends; an edit
  // adding a base to an older class inserts in id order.
  std::vector<ClassId> &Derivers = Classes[Base.index()].DirectDerived;
  Derivers.insert(std::upper_bound(Derivers.begin(), Derivers.end(), Derived),
                  Derived);
  ++NumEdges;
  return true;
}

void Hierarchy::addMember(ClassId Class, std::string_view Name, bool IsStatic,
                          bool IsVirtual, AccessSpec Access, SourceLoc Loc,
                          DiagnosticEngine *Diags) {
  assert(!Finalized && "cannot add members after finalize()");
  assert(Class.isValid() && Class.index() < Classes.size() && "bad class id");

  Symbol Sym = Names.intern(Name);
  ClassInfo &Info = Classes[Class.index()];
  for (const MemberDecl &Existing : Info.Members)
    if (Existing.Name == Sym) {
      // We model member *names*, not overload sets; fold redeclarations.
      if (Diags)
        Diags->warning(Loc,
                       "member '" + std::string(Name) +
                           "' already declared in class '" +
                           std::string(className(Class)) +
                           "'; ignoring redeclaration",
                       DiagCode::RedeclaredMember);
      return;
    }

  Info.Members.push_back(
      MemberDecl{Sym, IsStatic, IsVirtual, Access, Loc, ClassId()});
  ++NumMemberDecls;
}

void Hierarchy::addUsingDeclaration(ClassId Class, ClassId From,
                                    std::string_view Name, AccessSpec Access,
                                    SourceLoc Loc, DiagnosticEngine *Diags) {
  assert(!Finalized && "cannot add members after finalize()");
  assert(Class.isValid() && Class.index() < Classes.size() && "bad class id");
  assert(From.isValid() && From.index() < Classes.size() && "bad base id");

  Symbol Sym = Names.intern(Name);
  ClassInfo &Info = Classes[Class.index()];
  for (const MemberDecl &Existing : Info.Members)
    if (Existing.Name == Sym) {
      if (Diags)
        Diags->warning(Loc,
                       "member '" + std::string(Name) +
                           "' already declared in class '" +
                           std::string(className(Class)) +
                           "'; ignoring using-declaration",
                       DiagCode::RedeclaredMember);
      return;
    }

  Info.Members.push_back(MemberDecl{Sym, /*IsStatic=*/false,
                                    /*IsVirtual=*/false, Access, Loc, From});
  ++NumMemberDecls;
}

Hierarchy Hierarchy::editableCopy() const {
  Hierarchy Copy;
  Copy.Names = Names.clone();
  Copy.Classes = Classes;
  Copy.ClassOfName = ClassOfName;
  Copy.NumEdges = NumEdges;
  Copy.NumMemberDecls = NumMemberDecls;
  return Copy;
}

bool Hierarchy::removeMember(ClassId Class, Symbol Name) {
  assert(!Finalized && "cannot remove members after finalize()");
  // A class declares a name at most once.
  auto Named = [Name](const MemberDecl &M) { return M.Name == Name; };
  if (std::erase_if(Classes[Class.index()].Members, Named) == 0)
    return false;
  --NumMemberDecls;
  return true;
}

bool Hierarchy::removeBase(ClassId Derived, ClassId Base) {
  assert(!Finalized && "cannot remove edges after finalize()");
  // A base appears at most once in a base-specifier list.
  auto ToBase = [Base](const BaseSpecifier &S) { return S.Base == Base; };
  if (std::erase_if(Classes[Derived.index()].DirectBases, ToBase) == 0)
    return false;
  std::erase(Classes[Base.index()].DirectDerived, Derived);
  --NumEdges;
  return true;
}

void Hierarchy::removeClass(ClassId Class) {
  assert(!Finalized && "cannot remove classes after finalize()");
  ClassInfo &Info = Classes[Class.index()];
  assert(Info.DirectDerived.empty() && "class is still some class's base");
  for (const BaseSpecifier &Spec : Info.DirectBases)
    std::erase(Classes[Spec.Base.index()].DirectDerived, Class);
  NumEdges -= static_cast<uint32_t>(Info.DirectBases.size());
  NumMemberDecls -= static_cast<uint32_t>(Info.Members.size());
  ClassOfName[Info.Name.index()] = ClassId();
  Classes.erase(Classes.begin() + Class.index());

  // Every id above the erased slot moves down one; relative order, and
  // so the ascending DirectDerived lists, are preserved.
  auto Shift = [Class](ClassId &Id) {
    if (Id.isValid() && Id.index() > Class.index())
      Id = ClassId(Id.index() - 1);
  };
  for (ClassInfo &C : Classes) {
    for (BaseSpecifier &Spec : C.DirectBases)
      Shift(Spec.Base);
    for (ClassId &D : C.DirectDerived)
      Shift(D);
    for (MemberDecl &M : C.Members)
      Shift(M.UsingFrom);
  }
  for (ClassId &Id : ClassOfName)
    Shift(Id);
}

/// Topologically sorts \p H's classes (bases first), reporting a cycle.
static TopologicalSortResult sortClasses(const Hierarchy &H,
                                         DiagnosticEngine &Diags) {
  // DirectDerived lists each base's successors in ascending id order -
  // the order a scan of the direct-base lists would build.
  TopologicalSortResult Topo =
      topologicalSortBy(H.numClasses(), [&H](uint32_t B, auto Visit) {
        for (ClassId D : H.info(ClassId(B)).DirectDerived)
          Visit(D.index());
      });
  if (!Topo.IsAcyclic) {
    std::string Witness =
        Topo.CycleWitness
            ? std::string(H.className(ClassId(*Topo.CycleWitness)))
            : std::string("<unknown>");
    Diags.error("inheritance graph is cyclic (class '" + Witness +
                    "' participates in a cycle)",
                DiagCode::InheritanceCycle);
  }
  return Topo;
}

bool Hierarchy::validate(DiagnosticEngine &Diags) const {
  bool Acyclic = sortClasses(*this, Diags).IsAcyclic;
  // Using-declaration targets must be (transitive) bases; the walk is
  // cycle-safe, so this works on a graph finalize() would reject.
  return checkUsingTargets(Diags) && Acyclic;
}

bool Hierarchy::finalize(DiagnosticEngine &Diags) {
  assert(!Finalized && "finalize() called twice");

  uint32_t N = numClasses();
  TopologicalSortResult Topo = sortClasses(*this, Diags);
  if (!Topo.IsAcyclic)
    return false;

  TopoOrder.reserve(N);
  TopoIndex.assign(N, 0);
  for (uint32_t Idx : Topo.Order) {
    TopoIndex[Idx] = static_cast<uint32_t>(TopoOrder.size());
    TopoOrder.push_back(ClassId(Idx));
  }

  // A using-declaration must name a (transitive) base of its class
  // ([namespace.udecl]).
  if (!checkUsingTargets(Diags))
    return false;

  // Virtual-base closure, bases before derived:
  //   Virtual[D] = union over direct bases B of
  //                  Virtual[B] + ({B} if the edge B->D is virtual)
  // This is the paper's Section 2 definition: X is a virtual base of Y
  // iff some path X -> ... -> Y *starts* with a virtual edge. So only the
  // base end of a virtual edge can ever be set, and only those classes
  // get a column.
  VirtualRank.assign(N, NoRank);
  for (const ClassInfo &Info : Classes)
    for (const BaseSpecifier &Spec : Info.DirectBases)
      if (Spec.Kind == InheritanceKind::Virtual)
        VirtualRank[Spec.Base.index()] = 0;
  for (uint32_t C = 0; C != N; ++C)
    if (VirtualRank[C] != NoRank) {
      VirtualRank[C] = static_cast<uint32_t>(VirtualBaseClasses.size());
      VirtualBaseClasses.push_back(ClassId(C));
    }
  VirtualClosure = BitMatrix(N, VirtualBaseClasses.size());
  if (!VirtualBaseClasses.empty())
    for (ClassId C : TopoOrder)
      for (const BaseSpecifier &Spec : Classes[C.index()].DirectBases) {
        VirtualClosure.unionRows(C.index(), Spec.Base.index());
        if (Spec.Kind == InheritanceKind::Virtual)
          VirtualClosure.set(C.index(), VirtualRank[Spec.Base.index()]);
      }

  // Collect the program's distinct member names |M| in first-declaration
  // order (deterministic: class creation order, then declaration order),
  // and index each name's declaring classes by counting sort.
  DeclarerOffsets.assign(Names.size() + 1, 0);
  for (const ClassInfo &Info : Classes)
    for (const MemberDecl &Member : Info.Members)
      if (DeclarerOffsets[Member.Name.index() + 1]++ == 0)
        MemberNames.push_back(Member.Name);
  for (size_t S = 1; S != DeclarerOffsets.size(); ++S)
    DeclarerOffsets[S] += DeclarerOffsets[S - 1];
  Declarers.resize(NumMemberDecls);
  std::vector<uint32_t> Fill(DeclarerOffsets.begin(),
                             DeclarerOffsets.end() - 1);
  for (uint32_t C = 0; C != N; ++C)
    for (const MemberDecl &Member : Classes[C].Members)
      Declarers[Fill[Member.Name.index()]++] = ClassId(C);

  Finalized = true;
  return true;
}

ClassId Hierarchy::findClass(std::string_view Name) const {
  Symbol Sym = Names.find(Name);
  if (!Sym.isValid() || Sym.index() >= ClassOfName.size())
    return ClassId();
  return ClassOfName[Sym.index()];
}

const MemberDecl *Hierarchy::declaredMember(ClassId Class, Symbol Name) const {
  for (const MemberDecl &Member : info(Class).Members)
    if (Member.Name == Name)
      return &Member;
  return nullptr;
}

std::optional<InheritanceKind> Hierarchy::edgeKind(ClassId Base,
                                                   ClassId Derived) const {
  for (const BaseSpecifier &Spec : info(Derived).DirectBases)
    if (Spec.Base == Base)
      return Spec.Kind;
  return std::nullopt;
}

std::optional<AccessSpec> Hierarchy::edgeAccess(ClassId Base,
                                                ClassId Derived) const {
  for (const BaseSpecifier &Spec : info(Derived).DirectBases)
    if (Spec.Base == Base)
      return Spec.Access;
  return std::nullopt;
}

void Hierarchy::markBases(ClassId From, BitVector &Seen) const {
  std::vector<ClassId> Stack{From};
  while (!Stack.empty()) {
    ClassId Cur = Stack.back();
    Stack.pop_back();
    for (const BaseSpecifier &Spec : Classes[Cur.index()].DirectBases)
      if (!Seen.test(Spec.Base.index())) {
        Seen.set(Spec.Base.index());
        Stack.push_back(Spec.Base);
      }
  }
}

bool Hierarchy::checkUsingTargets(DiagnosticEngine &Diags) const {
  bool Ok = true;
  BitVector Reach(numClasses());
  for (uint32_t D = 0, N = numClasses(); D != N; ++D) {
    bool AnyUsing = false;
    for (const MemberDecl &Member : Classes[D].Members)
      AnyUsing |= Member.isUsingDeclaration();
    if (!AnyUsing)
      continue;

    Reach.clear();
    markBases(ClassId(D), Reach);
    for (const MemberDecl &Member : Classes[D].Members)
      if (Member.isUsingDeclaration() &&
          !Reach.test(Member.UsingFrom.index())) {
        Diags.error(Member.Loc,
                    "'" + std::string(className(Member.UsingFrom)) +
                        "' in using-declaration is not a base class of '" +
                        std::string(className(ClassId(D))) + "'",
                    DiagCode::InvalidUsingTarget);
        Ok = false;
      }
  }
  return Ok;
}

bool Hierarchy::isBaseOf(ClassId Base, ClassId Derived) const {
  assert(Finalized && "closures require finalize()");
  // Every proper base of X has a smaller topological index than X, so the
  // walk up from Derived never needs a class ordered at or before Base.
  uint32_t Floor = TopoIndex[Base.index()];
  if (Floor >= TopoIndex[Derived.index()])
    return false;
  BitVector Seen(numClasses());
  std::vector<ClassId> Stack{Derived};
  while (!Stack.empty()) {
    ClassId Cur = Stack.back();
    Stack.pop_back();
    for (const BaseSpecifier &Spec : Classes[Cur.index()].DirectBases) {
      if (Spec.Base == Base)
        return true;
      uint32_t B = Spec.Base.index();
      if (TopoIndex[B] > Floor && !Seen.test(B)) {
        Seen.set(B);
        Stack.push_back(Spec.Base);
      }
    }
  }
  return false;
}

BitVector Hierarchy::basesOf(ClassId Derived) const {
  assert(Finalized && "closures require finalize()");
  BitVector Bases(numClasses());
  markBases(Derived, Bases);
  return Bases;
}

BitVector Hierarchy::virtualBasesOf(ClassId Derived) const {
  assert(Finalized && "closures require finalize()");
  BitVector Bases(numClasses());
  VirtualClosure.forEachSetBit(Derived.index(), [&](size_t Rank) {
    Bases.set(VirtualBaseClasses[Rank].index());
  });
  return Bases;
}

size_t Hierarchy::heapBytes() const {
  auto VecBytes = [](const auto &V) { return V.capacity() * sizeof(V[0]); };
  size_t Bytes = Names.heapBytes() + VecBytes(Classes) + VecBytes(TopoOrder) +
                 VecBytes(TopoIndex) + VecBytes(MemberNames) +
                 VecBytes(DeclarerOffsets) + VecBytes(Declarers) +
                 VecBytes(VirtualRank) + VecBytes(VirtualBaseClasses) +
                 VecBytes(ClassOfName) + VirtualClosure.heapBytes();
  for (const ClassInfo &Info : Classes)
    Bytes += VecBytes(Info.DirectBases) + VecBytes(Info.DirectDerived) +
             VecBytes(Info.Members);
  return Bytes;
}
