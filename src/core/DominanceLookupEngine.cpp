//===- DominanceLookupEngine.cpp - Figure 8 --------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/core/DominanceLookupEngine.h"

#include <algorithm>

using namespace memlook;

DominanceLookupEngine::DominanceLookupEngine(const Hierarchy &H, Mode Mode)
    : LookupEngine(H), TabulationMode(Mode) {
  const std::vector<Symbol> &Names = H.allMemberNames();
  MemberIndex.reserve(Names.size());
  for (uint32_t I = 0, E = static_cast<uint32_t>(Names.size()); I != E; ++I)
    MemberIndex.emplace(Names[I], I);

  Columns.resize(Names.size());
  EntryComputed.resize(Names.size());

  if (TabulationMode == Mode::Eager)
    for (uint32_t I = 0, E = static_cast<uint32_t>(Names.size()); I != E; ++I)
      computeColumn(I);
}

std::string_view DominanceLookupEngine::engineName() const {
  switch (TabulationMode) {
  case Mode::Eager:
    return "figure8-eager";
  case Mode::Lazy:
    return "figure8-lazy";
  case Mode::LazyRecursive:
    return "figure8-lazy-recursive";
  }
  return "figure8";
}

namespace {

/// Lemma 4 on the set abstraction: does the red value (L, Vs) cover the
/// definition abstracted as V2 (arriving along a different edge)?
bool redCovers(const Hierarchy &H, ClassId L, std::span<const ClassId> Vs,
               ClassId V2, const CompactColumn &Column,
               DominanceLookupEngine::Stats &S) {
  ++S.DominanceTests;
  if (!V2.isValid())
    return false;
  // Lemma 4 clause (i): V2 is a virtual base of the defining class.
  // Sound for any member of the set: only the shared ldc matters.
  if (H.isVirtualBaseOf(V2, L))
    return true;
  // Lemma 4 clause (ii): some maximal member crossed the same first
  // virtual node. Soundness requires that member's fixed part to
  // dominate every definition reaching V2 - equivalently, that the
  // entry *at* V2 is red with the same defining class. Members that
  // were propagated red-all-the-way satisfy this by construction (a red
  // lineage passes through V2 while red); members absorbed from blue
  // elements by the static rule need the explicit check, since their
  // fixed part may be just one of several incomparable definitions
  // at V2.
  if (std::find(Vs.begin(), Vs.end(), V2) == Vs.end())
    return false;
  const CompactEntry &AtV2 = Column[V2.index()];
  return AtV2.kind() == EntryKind::Red && AtV2.DefiningClass == L;
}

/// Per-thread accumulation scratch for computeEntry. The generalized
/// red member set and the blue to-be-dominated list vary per entry but
/// their *capacity* stabilizes quickly; reusing one set of vectors per
/// thread removes the per-entry heap churn that dominated the old
/// vector-of-vectors build. Each worker thread (ParallelTabulator) gets
/// its own copy, so the kernel stays synchronization-free.
struct ComputeScratch {
  std::vector<ClassId> CandVs; ///< candidate's member V-set (unsorted)
  std::vector<ClassId> NewVs;  ///< arriving red set composed across an edge
  std::vector<BlueElement> ToBeDominated;
  std::vector<BlueElement> Surviving;
};

ComputeScratch &computeScratch() {
  thread_local ComputeScratch S;
  return S;
}

void addUniqueV(std::vector<ClassId> &Vs, ClassId V) {
  if (std::find(Vs.begin(), Vs.end(), V) == Vs.end())
    Vs.push_back(V);
}

/// Reconstructs the witness path of a red entry by walking Via links.
/// The witness runs ldc-first, so collect backwards and reverse.
Path reconstructWitness(const CompactColumn &Column, ClassId Context) {
  std::vector<ClassId> Reversed;
  ClassId Cur = Context;
  while (true) {
    Reversed.push_back(Cur);
    const CompactEntry &E = Column[Cur.index()];
    assert(E.kind() == EntryKind::Red && "witness of non-red entry");
    if (!E.Via.isValid())
      break;
    Cur = E.Via;
  }
  std::reverse(Reversed.begin(), Reversed.end());
  return Path(std::move(Reversed));
}

} // namespace

void DominanceLookupEngine::computeEntry(const Hierarchy &H,
                                         CompactColumn &Column, ClassId C,
                                         Symbol Member, Stats &S) {
  ++S.EntriesComputed;
  // The slot is taken only to write a red or blue entry, so an Absent
  // row never makes its page live.
  uint32_t Row = C.index();

  auto IsStaticIn = [&](ClassId L) {
    const MemberDecl *Decl = H.declaredMember(L, Member);
    return Decl && Decl->IsStatic;
  };

  // Line [12]: a local declaration trivially dominates everything that
  // reaches C (it hides every inherited definition).
  if (const MemberDecl *Decl = H.declaredMember(C, Member)) {
    const ClassId Omega[1] = {ClassId()};
    Column.setRed(Column.slot(Row), C, Omega, ClassId(), ClassId(),
                  Decl->Access, /*StaticMerged=*/false);
    return;
  }

  // Lines [14]-[33]: fold the values arriving along each incoming edge,
  // maintaining at most one red candidate (now a member *set*, see the
  // header) and the blue abstractions it must dominate.
  ComputeScratch &Scr = computeScratch();
  std::vector<ClassId> &CandVs = Scr.CandVs;
  std::vector<ClassId> &NewVs = Scr.NewVs;
  std::vector<BlueElement> &ToBeDominated = Scr.ToBeDominated;
  CandVs.clear();
  ToBeDominated.clear();

  bool SawAnything = false;
  bool CandPresent = false;
  ClassId CandL, CandRepV, CandVia;
  AccessSpec CandAccess = AccessSpec::Public;
  bool CandStaticMerged = false;

  // Pre-size the accumulators from the incoming entries so the eager
  // path never regrows them mid-fold: every element they can receive
  // originates in a base entry's blue set or red member set.
  {
    size_t IncomingBlues = 0, IncomingReds = 0;
    for (const BaseSpecifier &Spec : H.info(C).DirectBases) {
      const CompactEntry &In = Column[Spec.Base.index()];
      if (In.kind() == EntryKind::Blue)
        IncomingBlues += In.PoolCount;
      else if (In.kind() == EntryKind::Red)
        IncomingReds += Column.redCount(In);
    }
    ToBeDominated.reserve(IncomingBlues + IncomingReds);
    CandVs.reserve(IncomingReds);
  }

  // Duplicates are tolerated during accumulation and removed in one
  // sort+unique pass below: a per-insert membership scan would make the
  // ambiguity-heavy regime cubic instead of the paper's quadratic.
  auto AddBlue = [&](BlueElement Elem) { ToBeDominated.push_back(Elem); };

  auto DedupeBlues = [](std::vector<BlueElement> &Blues) {
    std::sort(Blues.begin(), Blues.end());
    Blues.erase(std::unique(Blues.begin(), Blues.end()), Blues.end());
  };

  auto DemoteCandidateToBlue = [&]() {
    for (ClassId V : CandVs)
      AddBlue(BlueElement{V, CandL});
    CandPresent = false;
    CandVs.clear();
    CandStaticMerged = false;
  };

  for (const BaseSpecifier &Spec : H.info(C).DirectBases) {
    const CompactEntry &In = Column[Spec.Base.index()];
    if (In.kind() == EntryKind::Absent)
      continue;
    SawAnything = true;

    if (In.kind() == EntryKind::Blue) {
      // Lines [29]-[32]: compose every blue element across the edge.
      for (const BlueElement &Elem : Column.blues(In)) {
        ++S.BlueElementsMoved;
        AddBlue(BlueElement{composeAcross(Elem.LeastVirtual, Spec),
                            Elem.DefiningClass});
      }
      continue;
    }

    // A red value arrives: compose its member set across the edge. The
    // composed access restricts the inherited access by the edge's
    // (Section 6: access is determined along the witness path; private
    // inheritance demotes, protected caps).
    NewVs.clear();
    for (uint32_t I = 0, E = Column.redCount(In); I != E; ++I)
      addUniqueV(NewVs, composeAcross(Column.redV(In, I), Spec));
    ClassId NewL = In.DefiningClass;
    ClassId NewRepV = composeAcross(In.RepresentativeV, Spec);
    AccessSpec NewAccess = restrictAccess(In.access(), Spec.Access);
    bool NewStaticMerged = In.staticMerged();

    auto AdoptNew = [&]() {
      CandPresent = true;
      CandL = NewL;
      CandVs.swap(NewVs);
      CandRepV = NewRepV;
      CandVia = Spec.Base;
      CandAccess = NewAccess;
      CandStaticMerged = NewStaticMerged;
    };

    if (!CandPresent) {
      AdoptNew();
      continue;
    }

    // Lines [18]-[28], set-generalized: keep whichever side covers the
    // other; for same-class statics, union what neither side covers;
    // otherwise mutual non-domination means ambiguity.
    auto Covers = [&](ClassId LA, std::span<const ClassId> VsA,
                      std::span<const ClassId> VsB) {
      for (ClassId V : VsB)
        if (!redCovers(H, LA, VsA, V, Column, S))
          return false;
      return true;
    };

    if (Covers(CandL, CandVs, NewVs)) {
      // Existing candidate dominates the arrival (which includes the
      // virtual-sharing case where both edges deliver the very same
      // subobject).
      continue;
    }
    if (Covers(NewL, NewVs, CandVs)) {
      AdoptNew();
      continue;
    }

    if (CandL == NewL && IsStaticIn(NewL)) {
      // Definition 17(2): one entity seen through several genuinely
      // distinct subobjects. Union the uncovered members: each must
      // keep constraining later competitors.
      for (ClassId V : NewVs)
        if (!redCovers(H, CandL, CandVs, V, Column, S))
          addUniqueV(CandVs, V);
      CandStaticMerged = true;
      continue;
    }

    // Mutual non-domination: both sides become blue.
    for (ClassId V : NewVs)
      AddBlue(BlueElement{V, NewL});
    DemoteCandidateToBlue();
  }

  if (!SawAnything)
    return; // Absent: m is not a member of C.

  DedupeBlues(ToBeDominated);

  if (!CandPresent) {
    // Lines [34]-[35].
    Column.setBlue(Column.slot(Row), ToBeDominated);
    return;
  }

  // Lines [36]-[44]: the candidate must cover every blue element;
  // same-class static elements are absorbed instead (one entity).
  std::vector<BlueElement> &Surviving = Scr.Surviving;
  Surviving.clear();
  Surviving.reserve(ToBeDominated.size() + CandVs.size());
  for (const BlueElement &Elem : ToBeDominated) {
    if (redCovers(H, CandL, CandVs, Elem.LeastVirtual, Column, S))
      continue;
    if (Elem.DefiningClass == CandL && IsStaticIn(CandL)) {
      addUniqueV(CandVs, Elem.LeastVirtual);
      CandStaticMerged = true;
      continue;
    }
    Surviving.push_back(Elem);
  }

  if (Surviving.empty()) {
    std::sort(CandVs.begin(), CandVs.end());
    Column.setRed(Column.slot(Row), CandL, CandVs, CandRepV, CandVia,
                  CandAccess, CandStaticMerged);
  } else {
    for (ClassId V : CandVs)
      Surviving.push_back(BlueElement{V, CandL});
    std::sort(Surviving.begin(), Surviving.end());
    Surviving.erase(std::unique(Surviving.begin(), Surviving.end()),
                    Surviving.end());
    Column.setBlue(Column.slot(Row), Surviving);
  }
}

LookupResult DominanceLookupEngine::entryToResult(const Hierarchy &H,
                                                  const CompactColumn &Column,
                                                  ClassId Context) {
  const CompactEntry &E = Column[Context.index()];
  switch (E.kind()) {
  case EntryKind::Absent:
    return LookupResult::notFound();
  case EntryKind::Blue:
    // The blue abstraction intentionally forgets the candidate
    // subobjects (that is the point of the algorithm); entry() exposes
    // the abstraction itself, and explainAmbiguity() reconstructs the
    // candidates for diagnostics.
    return LookupResult::ambiguous({});
  case EntryKind::Red:
    break;
  }

  // The witness chain crosses entries for base classes, all of which
  // were computed before this entry in every tabulation mode.
  Path Witness = reconstructWitness(Column, Context);
  assert(Witness.ldc() == E.DefiningClass &&
         "witness does not start at the defining class");
  assert(leastVirtual(H, Witness) == E.RepresentativeV &&
         "witness abstraction disagrees with the table");
  SubobjectKey Key = subobjectKey(H, Witness);
  LookupResult R = LookupResult::unambiguous(
      E.DefiningClass, std::move(Key), std::move(Witness), E.staticMerged());
  R.EffectiveAccess = E.access();
  return R;
}

void DominanceLookupEngine::ensureColumnStorage(uint32_t MemberIdx) {
  if (Columns[MemberIdx].empty()) {
    Columns[MemberIdx].reset(H.numClasses());
    EntryComputed[MemberIdx] = BitVector(H.numClasses());
  }
}

void DominanceLookupEngine::computeColumn(uint32_t MemberIdx) {
  ensureColumnStorage(MemberIdx);
  Symbol Member = H.allMemberNames()[MemberIdx];
  CompactColumn &Column = Columns[MemberIdx];
  BitVector &Done = EntryComputed[MemberIdx];

  for (ClassId C : H.topologicalOrder()) {
    if (Done.test(C.index()))
      continue;
    // A deadline abort leaves the computed topological prefix valid and
    // the column's popcount short of full, so a later query (with a
    // fresh deadline) resumes where this one stopped.
    if (deadlineExpired())
      return;
    computeEntry(H, Column, C, Member, EngineStats);
    Done.set(C.index());
  }
}

void DominanceLookupEngine::computeEntryRecursive(uint32_t MemberIdx,
                                                  ClassId Context) {
  // The paper's memoizing lazy variant (Section 5): "a request for
  // lookup[C,m] will recursively invoke lookup[B,m] for every direct
  // base class B of C if necessary". Implemented with an explicit stack
  // so pathological chains cannot overflow the call stack.
  ensureColumnStorage(MemberIdx);
  Symbol Member = H.allMemberNames()[MemberIdx];
  CompactColumn &Column = Columns[MemberIdx];
  BitVector &Done = EntryComputed[MemberIdx];

  std::vector<ClassId> Stack{Context};
  while (!Stack.empty()) {
    if (deadlineExpired())
      return;
    ClassId Cur = Stack.back();
    if (Done.test(Cur.index())) {
      Stack.pop_back();
      continue;
    }
    bool Ready = true;
    for (const BaseSpecifier &Spec : H.info(Cur).DirectBases)
      if (!Done.test(Spec.Base.index())) {
        Stack.push_back(Spec.Base);
        Ready = false;
      }
    if (!Ready)
      continue;
    computeEntry(H, Column, Cur, Member, EngineStats);
    Done.set(Cur.index());
    Stack.pop_back();
  }
}

DominanceLookupEngine::Entry DominanceLookupEngine::entry(ClassId Context,
                                                          Symbol Member) {
  assert(Context.isValid() && Context.index() < H.numClasses() &&
         "bad class id");
  Entry Out;
  auto It = MemberIndex.find(Member);
  if (It == MemberIndex.end())
    return Out; // name never declared anywhere

  uint32_t MemberIdx = It->second;
  switch (TabulationMode) {
  case Mode::Eager:
    break; // everything was computed at construction
  case Mode::Lazy:
    if (!columnFullyComputed(MemberIdx))
      computeColumn(MemberIdx);
    break;
  case Mode::LazyRecursive:
    ensureColumnStorage(MemberIdx);
    if (!EntryComputed[MemberIdx].test(Context.index()))
      computeEntryRecursive(MemberIdx, Context);
    break;
  }

  const CompactColumn &Col = Columns[MemberIdx];
  const CompactEntry &E = Col[Context.index()];
  Out.EntryKind = E.kind();
  switch (E.kind()) {
  case EntryKind::Absent:
    break;
  case EntryKind::Red:
    Out.DefiningClass = E.DefiningClass;
    Out.RedVs.reserve(Col.redCount(E));
    for (uint32_t I = 0, N = Col.redCount(E); I != N; ++I)
      Out.RedVs.push_back(Col.redV(E, I));
    Out.RepresentativeV = E.RepresentativeV;
    Out.Via = E.Via;
    Out.StaticMerged = E.staticMerged();
    Out.Access = E.access();
    break;
  case EntryKind::Blue: {
    std::span<const BlueElement> Blues = Col.blues(E);
    Out.Blues.assign(Blues.begin(), Blues.end());
    break;
  }
  }
  return Out;
}

const CompactColumn *DominanceLookupEngine::column(Symbol Member) {
  auto It = MemberIndex.find(Member);
  if (It == MemberIndex.end())
    return nullptr;
  if (!columnFullyComputed(It->second))
    computeColumn(It->second);
  return &Columns[It->second];
}

uint64_t DominanceLookupEngine::tableHeapBytes() const {
  uint64_t Bytes = 0;
  for (const CompactColumn &Column : Columns)
    Bytes += Column.heapBytes();
  for (const BitVector &Done : EntryComputed)
    Bytes += Done.heapBytes();
  return Bytes;
}

DominanceLookupEngine::MemoryStats DominanceLookupEngine::memoryStats() const {
  MemoryStats M;
  M.HeapBytes = tableHeapBytes();
  for (const CompactColumn &Column : Columns) {
    if (Column.empty())
      continue;
    ++M.ColumnsAllocated;
    M.Pools += Column.poolStats();
  }
  return M;
}

LookupResult DominanceLookupEngine::lookup(ClassId Context, Symbol Member) {
  // Force the mode's tabulation for this entry, exactly as entry() does
  // (minus the expansion).
  auto It = MemberIndex.find(Member);
  if (It == MemberIndex.end())
    return LookupResult::notFound();
  uint32_t MemberIdx = It->second;
  switch (TabulationMode) {
  case Mode::Eager:
    break;
  case Mode::Lazy:
    if (!columnFullyComputed(MemberIdx))
      computeColumn(MemberIdx);
    break;
  case Mode::LazyRecursive:
    ensureColumnStorage(MemberIdx);
    if (!EntryComputed[MemberIdx].test(Context.index()))
      computeEntryRecursive(MemberIdx, Context);
    break;
  }
  if (DeadlineTripped) {
    // The tabulation may have stopped before reaching this entry; an
    // uncomputed slot reads as Absent, which would be a *wrong* answer.
    // Degrade it to Exhausted like a tripped step budget instead.
    if (Columns[MemberIdx].empty() ||
        !EntryComputed[MemberIdx].test(Context.index()))
      return LookupResult::exhausted();
  }
  return entryToResult(H, Columns[MemberIdx], Context);
}
