//===- Snapshot.cpp - Versioned snapshots ------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/service/Snapshot.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace memlook;
using namespace memlook::service;

namespace {

/// Structural column deduplication: point member indices whose finished
/// columns are byte-identical at one shared Column object. Sound
/// because a Complete column with no Overrides is exactly the
/// deterministic kernel's output for its member name - value-immutable
/// from publication on - so aliasing is unobservable through find().
/// Returns the number of aliased pointers in excess of the distinct
/// objects (i.e. how many columns' storage the table no longer pays
/// for), counting pointers that already aliased on entry (cross-epoch
/// rewarm sharing can re-derive a column identical to a shared one).
uint32_t dedupStructurallyEqualColumns(
    std::vector<std::shared_ptr<const LookupTable::Column>> &Columns) {
  std::unordered_map<uint64_t,
                     std::vector<std::shared_ptr<const LookupTable::Column>>>
      Buckets;
  for (std::shared_ptr<const LookupTable::Column> &Col : Columns) {
    if (!Col || !Col->Complete || !Col->Overrides.empty())
      continue;
    // The hash was computed once at tabulation time; the only bytes a
    // dedup pass reads are the memcmp of genuinely colliding columns.
    auto &Bucket = Buckets[Col->StructuralHash];
    bool Unified = false;
    for (const std::shared_ptr<const LookupTable::Column> &Canonical :
         Bucket) {
      if (Canonical == Col || Canonical->Data == Col->Data) {
        Col = Canonical; // first occurrence wins; no-op if already aliased
        Unified = true;
        break;
      }
    }
    if (!Unified)
      Bucket.push_back(Col);
  }

  std::unordered_set<const LookupTable::Column *> Distinct;
  uint32_t Aliased = 0;
  for (const std::shared_ptr<const LookupTable::Column> &Col : Columns)
    if (Col && !Distinct.insert(Col.get()).second)
      ++Aliased;
  return Aliased;
}

/// True when two declarations of one member name (null: not declared)
/// agree in every field a lookup entry or its entity can depend on.
bool sameDeclaration(const MemberDecl *A, const MemberDecl *B) {
  if (!A || !B)
    return A == B;
  return A->IsStatic == B->IsStatic && A->IsVirtual == B->IsVirtual &&
         A->Access == B->Access && A->UsingFrom == B->UsingFrom;
}

/// True when two base-specifier lists name the same bases in the same
/// order with the same kind and access.
bool sameBases(const std::vector<BaseSpecifier> &A,
               const std::vector<BaseSpecifier> &B) {
  return std::equal(A.begin(), A.end(), B.begin(), B.end(),
                    [](const BaseSpecifier &X, const BaseSpecifier &Y) {
                      return X.Base == Y.Base && X.Kind == Y.Kind &&
                             X.Access == Y.Access;
                    });
}

/// Extends \p Marked (sized for \p NewH) by the down-closure of the
/// classes on \p Stack, which are already marked, over DirectDerived in
/// both epochs. An edge present in only one epoch needs no special
/// case: its derived class's base list differs, so it is a structural
/// seed itself.
void markDownClosure(const Hierarchy &NewH, const Hierarchy &OldH,
                     BitVector &Marked, std::vector<ClassId> &Stack) {
  auto Visit = [&](const std::vector<ClassId> &Derived) {
    for (ClassId D : Derived)
      if (!Marked.test(D.index())) {
        Marked.set(D.index());
        Stack.push_back(D);
      }
  };
  while (!Stack.empty()) {
    ClassId C = Stack.back();
    Stack.pop_back();
    Visit(NewH.info(C).DirectDerived);
    if (C.index() < OldH.numClasses())
      Visit(OldH.info(C).DirectDerived);
  }
}

/// The rows every column of a rewarm must recompute: the down-closure of
/// the structural seeds, the classes that are new or whose base list
/// changed. Outside it a class has the same up-closure, edges and ids in
/// both epochs.
BitVector structurallyDirtyRows(const Hierarchy &NewH, const Hierarchy &OldH) {
  BitVector Dirty(NewH.numClasses());
  std::vector<ClassId> Stack;
  for (uint32_t Idx = 0; Idx != NewH.numClasses(); ++Idx) {
    ClassId C(Idx);
    if (Idx < OldH.numClasses() &&
        sameBases(NewH.info(C).DirectBases, OldH.info(C).DirectBases))
      continue;
    Dirty.set(Idx);
    Stack.push_back(C);
  }
  markDownClosure(NewH, OldH, Dirty, Stack);
  return Dirty;
}

/// The rows of column \p NewSym (\p OldSym in the old epoch) a rewarm
/// must recompute: \p Structural plus the down-closure of every class
/// whose declaration of the name differs between the epochs.
BitVector dirtyRows(const Hierarchy &NewH, const Hierarchy &OldH,
                    Symbol NewSym, Symbol OldSym,
                    const BitVector &Structural) {
  BitVector Dirty = Structural;
  std::vector<ClassId> Stack;
  auto Seed = [&](ClassId C) {
    // A class already dirty is new or has its down-closure marked.
    if (Dirty.test(C.index()) ||
        sameDeclaration(OldH.declaredMember(C, OldSym),
                        NewH.declaredMember(C, NewSym)))
      return;
    Dirty.set(C.index());
    Stack.push_back(C);
  };
  for (ClassId C : OldH.declarers(OldSym))
    Seed(C);
  for (ClassId C : NewH.declarers(NewSym))
    Seed(C);
  markDownClosure(NewH, OldH, Dirty, Stack);
  return Dirty;
}

} // namespace

void LookupTable::buildMemberIndex(const Hierarchy &H) {
  const std::vector<Symbol> &Members = H.allMemberNames();
  MemberIndex.assign(H.numInternedNames(), NoColumn);
  for (uint32_t Idx = 0; Idx != Members.size(); ++Idx)
    MemberIndex[Members[Idx].rawValue()] = Idx;
}

std::shared_ptr<const LookupTable>
LookupTable::build(const Hierarchy &H, const Deadline &BuildDeadline,
                   uint32_t Threads) {
  assert(H.isFinalized() && "tabulation requires finalize()");

  ParallelTabulator::Result R =
      ParallelTabulator::tabulateAll(H, BuildDeadline, Threads);
  if (!R.Complete)
    return nullptr; // deadline expired mid-build: the epoch stays cold

  std::shared_ptr<LookupTable> Table(new LookupTable());
  Table->NumClasses = H.numClasses();
  const std::vector<Symbol> &Members = H.allMemberNames();
  Table->buildMemberIndex(H);
  Table->Columns = std::move(R.Columns);
  Table->Build.ColumnsDeduped = dedupStructurallyEqualColumns(Table->Columns);
  Table->Build.ColumnsBuilt = static_cast<uint32_t>(Members.size());
  Table->Build.ThreadsUsed = R.ThreadsUsed;
  Table->Build.Tabulation = R.TabulationStats;
  return Table;
}

std::shared_ptr<const LookupTable>
LookupTable::rewarm(const Hierarchy &NewH, const Hierarchy &OldH,
                    const LookupTable &Prev,
                    const std::vector<std::string> &ImpactedNames,
                    const Deadline &BuildDeadline, uint32_t Threads) {
  assert(NewH.isFinalized() && "tabulation requires finalize()");

  std::unordered_set<std::string_view> Impacted(ImpactedNames.begin(),
                                                ImpactedNames.end());

  // Partition the new epoch's member names: impacted spellings (and any
  // name the predecessor does not tabulate, defensively - a genuinely
  // new name is always impacted) get re-tabulated; the rest alias the
  // predecessor's columns. Symbols are per-hierarchy interner ids, so
  // the cross-epoch join key is the spelling, not the Symbol. An
  // impacted name the predecessor tabulates is carried forward row by
  // row: its dirty rows are recomputed and the rest copied.
  const std::vector<Symbol> &Members = NewH.allMemberNames();
  assert(NewH.numClasses() >= OldH.numClasses() &&
         "rewarm requires stable class ids (no RemoveClass)");
  std::vector<uint32_t> Retab;
  std::vector<std::pair<uint32_t, uint32_t>> Shared; // (new idx, prev idx)
  ParallelTabulator::Predecessor Carry;
  Carry.Columns.assign(Members.size(), nullptr);
  Carry.Dirty.resize(Members.size());
  std::optional<BitVector> Structural;
  Retab.reserve(ImpactedNames.size());
  Shared.reserve(Members.size());
  for (uint32_t Idx = 0; Idx != Members.size(); ++Idx) {
    std::string_view Spelling = NewH.spelling(Members[Idx]);
    Symbol OldSym = OldH.findName(Spelling);
    uint32_t PrevCol = Prev.columnIndexFor(OldSym);
    if (Impacted.count(Spelling) == 0 && PrevCol != NoColumn) {
      Shared.emplace_back(Idx, PrevCol);
      continue;
    }
    Retab.push_back(Idx);
    if (PrevCol == NoColumn)
      continue; // a name new to this epoch is tabulated fresh
    if (!Structural)
      Structural = structurallyDirtyRows(NewH, OldH);
    Carry.Columns[Idx] = Prev.Columns[PrevCol].get();
    Carry.Dirty[Idx] =
        dirtyRows(NewH, OldH, Members[Idx], OldSym, *Structural);
  }

  ParallelTabulator::Result R = ParallelTabulator::tabulate(
      NewH, Retab, BuildDeadline, Threads, &Carry);
  if (!R.Complete)
    return nullptr;

  std::shared_ptr<LookupTable> Table(new LookupTable());
  Table->NumClasses = NewH.numClasses();
  Table->buildMemberIndex(NewH);
  Table->Columns = std::move(R.Columns);
  for (const auto &[NewIdx, PrevIdx] : Shared)
    Table->Columns[NewIdx] = Prev.Columns[PrevIdx];
  // Dedup after sharing, so a re-tabulated column that came out
  // identical to a shared (shorter-or-equal, here equal-length only:
  // retabbed columns span NewH) column still unifies. Columns of
  // different lengths are never byte-equal, so a retabbed column over a
  // grown hierarchy cannot wrongly unify with a short shared one.
  Table->Build.ColumnsDeduped = dedupStructurallyEqualColumns(Table->Columns);
  Table->Build.ColumnsBuilt = static_cast<uint32_t>(Retab.size());
  Table->Build.ColumnsShared = static_cast<uint32_t>(Shared.size());
  Table->Build.ThreadsUsed = R.ThreadsUsed;
  Table->Build.Tabulation = R.TabulationStats;
  return Table;
}

std::shared_ptr<const LookupTable>
LookupTable::fromColumns(const Hierarchy &H,
                         std::vector<std::shared_ptr<const Column>> Columns) {
  assert(H.isFinalized() && "loading a table requires finalize()");
  assert(Columns.size() == H.allMemberNames().size() &&
         "one column pointer per member name");

  std::shared_ptr<LookupTable> Table(new LookupTable());
  Table->NumClasses = H.numClasses();
  Table->buildMemberIndex(H);
  Table->Columns = std::move(Columns);

  // Count the aliasing the file preserved, so loaded tables report the
  // same dedup savings a fresh build would.
  std::unordered_set<const Column *> Distinct;
  uint32_t Aliased = 0;
  for (const std::shared_ptr<const Column> &Col : Table->Columns) {
    assert(Col && Col->Complete && Col->Overrides.empty() &&
           "loaded columns are complete and override-free");
    if (!Distinct.insert(Col.get()).second)
      ++Aliased;
  }
  Table->Build.ColumnsDeduped = Aliased;
  Table->Build.ColumnsBuilt = 0; // nothing tabulated: all columns loaded
  return Table;
}

uint64_t LookupTable::numEntries() const {
  uint64_t N = 0;
  for (const std::shared_ptr<const Column> &Col : Columns)
    N += Col->numRows();
  return N;
}

uint64_t LookupTable::heapBytes() const {
  uint64_t Bytes = sizeof(LookupTable);
  Bytes += Columns.capacity() * sizeof(Columns[0]);
  std::unordered_set<const Column *> Seen;
  for (const std::shared_ptr<const Column> &Col : Columns) {
    if (!Col || !Seen.insert(Col.get()).second)
      continue; // aliased (deduped or cross-epoch shared): charge once
    Bytes += sizeof(Column) + Col->heapBytes();
  }
  Bytes += MemberIndex.capacity() * sizeof(uint32_t); // flat dispatch
  return Bytes;
}

std::shared_ptr<const LookupTable>
LookupTable::cloneWithCorruptedEntry(const Hierarchy &H, ClassId Context,
                                     Symbol Member) const {
  if (!Context.isValid() || Context.index() >= NumClasses)
    return nullptr;
  uint32_t Col = columnIndexFor(Member);
  if (Col == NoColumn)
    return nullptr;
  const Column &Original = *Columns[Col];
  if (Context.index() >= Original.numRows())
    return nullptr; // shared short column: no materialized slot to damage

  std::shared_ptr<LookupTable> Copy(new LookupTable(*this));
  auto Damaged = std::make_shared<Column>(Original);
  LookupResult Current = Original.resultFor(H, Context);
  // Any wrong answer works; pick one that changes the comparison key for
  // every possible original status.
  LookupResult Wrong = Current.Status == LookupStatus::Ambiguous
                           ? LookupResult::notFound()
                           : LookupResult::ambiguous({});
  Damaged->Overrides.emplace_back(Context.index(), std::move(Wrong));
  Copy->Columns[Col] = std::move(Damaged);
  return Copy;
}
