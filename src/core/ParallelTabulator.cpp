//===- ParallelTabulator.cpp - Parallel Figure 8 ---------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/core/ParallelTabulator.h"

#include "memlook/support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <bit>

using namespace memlook;

uint32_t ParallelTabulator::resolveThreads(uint32_t Requested) {
  return Requested != 0 ? Requested : defaultTabulationThreads();
}

LookupResult ParallelTabulator::Column::resultFor(const Hierarchy &H,
                                                  ClassId Context) const {
  for (const auto &[Row, Answer] : Overrides)
    if (Row == Context.index())
      return Answer;
  if (Context.index() >= Data.size() || !Computed.test(Context.index()))
    return LookupResult::notFound();
  return DominanceLookupEngine::entryToResult(H, Data, Context);
}

uint64_t ParallelTabulator::Column::heapBytes() const {
  uint64_t Bytes = Data.heapBytes() + Computed.heapBytes();
  Bytes += Overrides.capacity() * sizeof(Overrides[0]);
  return Bytes;
}

namespace {

/// Per-worker scratch of the sparse walk, reused across the columns a
/// worker tabulates: one mark per class and per page (all clear between
/// columns), the rows of the current column, a DFS stack, and the rows
/// visited since the last deadline check - counted across columns,
/// because a forest column can be shorter than a stride.
struct WalkScratch {
  std::vector<uint8_t> Marked;
  std::vector<uint8_t> PageMarked;
  std::vector<ClassId> Rows;
  std::vector<ClassId> Stack;
  uint32_t SinceCheck = 0;
};

WalkScratch &walkScratch(uint32_t NumClasses) {
  thread_local WalkScratch W;
  if (W.Marked.size() < NumClasses) {
    W.Marked.resize(NumClasses, 0);
    W.PageMarked.resize(NumClasses / CompactColumn::PageRows + 1, 0);
  }
  return W;
}

/// Marks \p Member's declarers and walks DirectDerived from them, for as
/// long as the down-closure stays small enough that sorting it by
/// topoIndex (k log k) beats scanning all of topologicalOrder().
///
/// Returns true when the whole closure - the rows of lookup[*, Member]
/// that are not Absent - was collected: \p W.Rows then holds it in
/// topological order, and every mark is clear again. Returns false when
/// the closure outgrew the budget: the marked rows are then a part of
/// the closure that includes every declarer, and the caller completes
/// the marking while it scans topologicalOrder() and clears the marks.
/// Both ways visit the same rows in the same order.
bool collectSmallClosure(const Hierarchy &H, Symbol Member, WalkScratch &W) {
  auto Small = [&H](size_t K) {
    return K * std::bit_width(K) < H.numClasses();
  };
  W.Rows.clear();
  W.Stack.clear();
  for (ClassId D : H.declarers(Member)) {
    W.Marked[D.index()] = 1;
    W.Rows.push_back(D);
    W.Stack.push_back(D);
  }
  while (!W.Stack.empty() && Small(W.Rows.size())) {
    ClassId C = W.Stack.back();
    W.Stack.pop_back();
    for (ClassId Derived : H.info(C).DirectDerived)
      if (!W.Marked[Derived.index()]) {
        W.Marked[Derived.index()] = 1;
        W.Rows.push_back(Derived);
        W.Stack.push_back(Derived);
      }
  }
  if (!Small(W.Rows.size()))
    return false;

  std::sort(W.Rows.begin(), W.Rows.end(), [&H](ClassId A, ClassId B) {
    return H.topoIndex(A) < H.topoIndex(B);
  });
  for (ClassId C : W.Rows)
    W.Marked[C.index()] = 0;
  return true;
}

/// The number of distinct pages \p Rows fall on.
uint32_t countPages(const std::vector<ClassId> &Rows, WalkScratch &W) {
  uint32_t Pages = 0;
  for (ClassId C : Rows) {
    uint8_t &Mark = W.PageMarked[C.index() / CompactColumn::PageRows];
    Pages += Mark == 0;
    Mark = 1;
  }
  for (ClassId C : Rows)
    W.PageMarked[C.index() / CompactColumn::PageRows] = 0;
  return Pages;
}

/// Writes row \p Row of \p From into \p To through setRed/setBlue, so a
/// pooled payload is re-appended to \p To's pools at the offset a fresh
/// computation of the row would have taken.
void copyEntry(const CompactColumn &From, CompactColumn &To, uint32_t Row) {
  const CompactEntry &E = From[Row];
  switch (E.kind()) {
  case EntryKind::Absent:
    return;
  case EntryKind::Red: {
    ClassId Inline(E.InlineOrOffset);
    std::span<const ClassId> Vs =
        E.PoolCount == 0
            ? std::span<const ClassId>(&Inline, 1)
            : From.rawRedPool().subspan(E.InlineOrOffset, E.PoolCount);
    To.setRed(To.slot(Row), E.DefiningClass, Vs, E.RepresentativeV, E.Via,
              E.access(), E.staticMerged());
    return;
  }
  case EntryKind::Blue:
    To.setBlue(To.slot(Row), From.blues(E));
    return;
  }
}

/// Computes one member column start to finish in compact form. Runs on
/// a worker thread; touches only \p Out, \p S, the worker's scratch and
/// the shared expiry flag - the hierarchy and \p From are immutable
/// input.
///
/// Only the down-closure of the member's declarers is visited, in
/// topological order; every other row is known Absent and stays on the
/// zero page. A visited row is computed when \p From is null, when
/// \p Dirty marks it, or when it lies beyond \p From's rows; otherwise
/// its entry is copied from \p From. A small closure is collected and
/// sorted first; its other rows are marked computed only after the
/// pre-expiry check, and they are closed under taking bases. A large
/// closure is marked during one scan of the topological order, which
/// computes a topological prefix. Either way a column cut short by the
/// deadline holds no computed row above an uncomputed base.
void tabulateColumn(const Hierarchy &H, Symbol Member,
                    const ParallelTabulator::Column *From,
                    const BitVector *Dirty, const Deadline &D,
                    std::atomic<bool> &ExpiredFlag,
                    ParallelTabulator::Column &Out,
                    ParallelTabulator::Stats &S) {
  using Engine = DominanceLookupEngine;

  uint32_t NumClasses = H.numClasses();
  Out.Computed = BitVector(NumClasses);
  Out.Data.reset(NumClasses);

  if (ExpiredFlag.load(std::memory_order_relaxed))
    return; // pre-expired: publish an empty (all-uncomputed) column

  // One worker's expiry stops the others within a stride: the flag is
  // sticky and checked before the (possibly syscall-priced) clock read.
  WalkScratch &W = walkScratch(NumClasses);
  bool CheckDeadline = !D.unlimited();
  auto Expired = [&] {
    if (!CheckDeadline || ++W.SinceCheck % Engine::DeadlineStride != 0)
      return false;
    if (ExpiredFlag.load(std::memory_order_relaxed) || D.expired()) {
      ExpiredFlag.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };
  uint32_t Carried = From ? From->Data.size() : 0;
  auto Fill = [&](ClassId C) {
    if (C.index() < Carried && !Dirty->test(C.index())) {
      copyEntry(From->Data, Out.Data, C.index());
      ++S.EntriesCopied;
    } else {
      Engine::computeEntry(H, Out.Data, C, Member, S);
    }
  };

  if (collectSmallClosure(H, Member, W)) {
    Out.Data.reservePages(countPages(W.Rows, W));
    Out.Computed.setAll();
    for (ClassId C : W.Rows)
      Out.Computed.reset(C.index());
    for (ClassId C : W.Rows) {
      if (Expired())
        return;
      Fill(C);
      Out.Computed.set(C.index());
    }
  } else {
    Out.Data.reservePages(Out.Data.numPages());
    bool Stopped = false;
    for (ClassId C : H.topologicalOrder()) {
      if (Expired()) {
        Stopped = true;
        break;
      }
      uint8_t &Mark = W.Marked[C.index()];
      for (const BaseSpecifier &Spec : H.info(C).DirectBases) {
        if (Mark)
          break;
        Mark = W.Marked[Spec.Base.index()];
      }
      if (Mark)
        Fill(C);
      Out.Computed.set(C.index());
    }
    std::fill_n(W.Marked.begin(), NumClasses, 0);
    if (Stopped)
      return;
  }
  Out.Complete = true;
  // Finished columns are long-lived (shared across epochs); drop the
  // growth slack so heapBytes() is the real footprint, and hash once so
  // structural dedup never re-reads a shared column's bytes.
  Out.Data.shrinkToFit();
  Out.StructuralHash = Out.Data.structuralHash();
}

} // namespace

ParallelTabulator::Result
ParallelTabulator::tabulate(const Hierarchy &H,
                            const std::vector<uint32_t> &MemberIdxs,
                            const Deadline &D, uint32_t Threads,
                            const Predecessor *Prev) {
  const std::vector<Symbol> &Names = H.allMemberNames();
  assert((!Prev || (Prev->Columns.size() == Names.size() &&
                    Prev->Dirty.size() == Names.size())) &&
         "a predecessor is indexed like allMemberNames()");

  std::vector<uint32_t> Work(MemberIdxs);
  std::sort(Work.begin(), Work.end());
  Work.erase(std::unique(Work.begin(), Work.end()), Work.end());

  Result R;
  R.Columns.resize(Names.size());
  R.ThreadsUsed = std::min<uint32_t>(resolveThreads(Threads),
                                     std::max<size_t>(Work.size(), 1));

  // Per-task output slots: each worker writes only its claimed column
  // and stats slot, and parallelFor's join publishes everything to this
  // thread before the merge below runs.
  std::vector<Column> Built(Work.size());
  std::vector<Stats> PerColumn(Work.size());
  std::atomic<bool> ExpiredFlag{D.expired()};

  parallelFor(R.ThreadsUsed, static_cast<uint32_t>(Work.size()),
              [&](uint32_t I) {
                uint32_t Idx = Work[I];
                assert(Idx < Names.size() && "member index out of range");
                const Column *From = Prev ? Prev->Columns[Idx] : nullptr;
                tabulateColumn(H, Names[Idx], From,
                               From ? &Prev->Dirty[Idx] : nullptr, D,
                               ExpiredFlag, Built[I], PerColumn[I]);
              });

  for (size_t I = 0; I != Work.size(); ++I) {
    R.TabulationStats += PerColumn[I];
    R.Complete &= Built[I].Complete;
    R.Columns[Work[I]] = std::make_shared<const Column>(std::move(Built[I]));
  }
  return R;
}

ParallelTabulator::Result ParallelTabulator::tabulateAll(const Hierarchy &H,
                                                         const Deadline &D,
                                                         uint32_t Threads) {
  std::vector<uint32_t> All(H.allMemberNames().size());
  for (uint32_t I = 0, E = static_cast<uint32_t>(All.size()); I != E; ++I)
    All[I] = I;
  return tabulate(H, All, D, Threads);
}
