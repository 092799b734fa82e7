//===- memlook/core/ParallelTabulator.h - Parallel Figure 8 -----*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel construction of the full lookup table, one member column per
/// task. The enabling observation is in the complexity argument of
/// Section 5 and is visible in Figure 8 itself: the computation of
/// lookup[*, m] reads the hierarchy graph and *its own column* - never
/// another member's column. The |M| columns are therefore independent
/// jobs over shared immutable input, and the O(|M|*|N|*(|N|+|E|)) table
/// build parallelizes across |M| with no synchronization inside the
/// kernel at all.
///
/// Each column is tabulated sparsely. By Definitions 7-11, lookup[C, m]
/// is non-absent exactly when C lies in the down-closure of the classes
/// that declare m (Hierarchy::declarers, using-declarations included),
/// and Figure 8 reads only a row's direct bases. So a worker marks that
/// down-closure and computes just those rows, in topological order; every
/// other row is Absent and stays on the shared zero page of the paged
/// column (CompactColumn.h). While the closure is small, the worker
/// walks DirectDerived from the declarers and sorts the marked rows by
/// topoIndex. Once it grows past the point where k log k sorting costs
/// more than a scan, the worker scans topologicalOrder() instead and
/// marks a row when one of its direct bases is marked. Both give the
/// same rows in the same order, so the choice never shows in the output.
/// On a forest a column's closure is a few dozen rows of thousands; on a
/// dense DAG it is most of them, and the scan costs what a dense walk
/// does.
///
/// The same walk serves the commit-time rewarm. Given a Predecessor - the
/// previous epoch's column for the name, over the same class ids, plus
/// the rows an edit can have changed - the worker computes only those
/// dirty rows and copies every other row of the closure from the
/// predecessor, in the same topological order, re-appending each copied
/// row's pool payload through setRed/setBlue. The pools therefore come
/// out exactly as a fresh build lays them down, and the column is byte
/// for byte what tabulating from nothing gives. A fresh build is this
/// walk with no predecessor, where every row is dirty.
///
/// The tabulator drives DominanceLookupEngine::computeEntry - the same
/// statically-exposed kernel the serial engine runs, not a copy - and
/// publishes the *compact* column directly. Answers are materialized on
/// read by entryToResult, so a parallel build is entry-for-entry
/// identical to a serial dense one (the differential tests pin this)
/// while the stored table is just the live pages plus overflow pools.
///
/// Deadline cooperation mirrors the serial engine: each worker consults
/// the shared Deadline every DominanceLookupEngine::DeadlineStride rows
/// it visits (computed or copied), counted across its columns, and
/// expiry is published through a shared sticky flag so the remaining
/// workers stop within one stride. A column interrupted by expiry still
/// holds a *valid prefix*: a topological prefix of the class order, or,
/// for a small closure, the rows outside it (marked known-Absent once
/// the pre-expiry check has passed) plus a topological prefix of the
/// closure. Every computed or copied entry is final and correct, because
/// entries only ever read entries of base classes, and the rows outside
/// the closure are closed under taking bases. Partial columns carry a
/// per-row Computed bitmap so callers can either use the prefix or
/// discard the column wholesale.
///
/// Columns are produced as shared_ptr<const Column> deliberately: the
/// service layer's incremental rewarming shares unaffected columns
/// *across epochs* by aliasing these pointers, so "who owns a column"
/// never depends on which table retires first.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_CORE_PARALLELTABULATOR_H
#define MEMLOOK_CORE_PARALLELTABULATOR_H

#include "memlook/core/DominanceLookupEngine.h"
#include "memlook/support/BitVector.h"
#include "memlook/support/Deadline.h"

#include <memory>
#include <vector>

namespace memlook {

/// Builds member columns of the Figure 8 table in parallel.
class ParallelTabulator {
public:
  using Stats = DominanceLookupEngine::Stats;

  /// One tabulated member column in compact form. Immutable once
  /// published (always held as shared_ptr<const Column>), so epochs can
  /// share it, and value-immutable too: a Complete column with no
  /// Overrides is exactly the deterministic kernel's output, which is
  /// what makes structural dedup (LookupTable) sound.
  struct Column {
    /// The paged compact entries plus overflow pools; the answer for a
    /// class is materialized on read by resultFor().
    CompactColumn Data;
    /// Data[i] is meaningful iff Computed.test(i). All-ones exactly
    /// when Complete; in a deadline-interrupted column no computed row
    /// sits above an uncomputed base (see the file comment).
    BitVector Computed;
    bool Complete = false;
    /// Row-level answer replacements consulted before Data - the
    /// corruption-injection hook (LookupTable::cloneWithCorruptedEntry)
    /// writes here instead of mutating compact entries, because a
    /// falsified entry would poison the Via chains of every descendant
    /// row. A column with Overrides is never deduplicated.
    std::vector<std::pair<uint32_t, LookupResult>> Overrides;
    /// Data.structuralHash(), computed once when the column completes,
    /// so the structural-dedup pass costs O(columns) map probes per
    /// build instead of re-hashing every shared column's bytes on
    /// every incremental rewarm. Meaningless while !Complete.
    uint64_t StructuralHash = 0;

    uint32_t numRows() const { return Data.size(); }

    /// Materializes the answer for \p Context: Overrides first, then
    /// entryToResult over the compact entry. Uncomputed or out-of-range
    /// rows answer NotFound (the rewarm shared-short-column contract).
    LookupResult resultFor(const Hierarchy &H, ClassId Context) const;

    /// Exact heap footprint (compact storage + bookkeeping).
    uint64_t heapBytes() const;
  };

  /// A (possibly partial) table build.
  struct Result {
    /// Indexed like Hierarchy::allMemberNames(). Entries for member
    /// indices the caller did not request stay null - the incremental
    /// rewarm fills those by sharing the predecessor epoch's columns.
    std::vector<std::shared_ptr<const Column>> Columns;
    /// Per-worker counters summed at join (column-granular, so the sum
    /// is deterministic for a given hierarchy regardless of schedule).
    Stats TabulationStats;
    /// True iff every *requested* column completed before the deadline.
    bool Complete = true;
    uint32_t ThreadsUsed = 1;
  };

  /// Maps the caller's thread request to a pool size: 0 means "pick for
  /// me" (hardware concurrency, capped - see defaultTabulationThreads),
  /// anything else is taken literally so tests and benchmarks can force
  /// serial (1) or oversubscribed pools.
  static uint32_t resolveThreads(uint32_t Requested);

  /// Tabulates every member column of \p H.
  static Result tabulateAll(const Hierarchy &H, const Deadline &D,
                            uint32_t Threads = 0);

  /// What a rewarm carries forward from the predecessor epoch, indexed
  /// like Hierarchy::allMemberNames(). For member index I, Columns[I] is
  /// the predecessor's Complete column for that name over the same class
  /// ids (null: tabulate fresh), and Dirty[I] marks the rows whose entry
  /// the edit can have changed. A row of the new closure that is not
  /// dirty must have the predecessor's entry as its correct value; rows
  /// beyond a shorter predecessor column are always recomputed.
  struct Predecessor {
    std::vector<const Column *> Columns;
    std::vector<BitVector> Dirty;
  };

  /// Tabulates exactly the columns in \p MemberIdxs (indices into
  /// Hierarchy::allMemberNames(); duplicates tolerated), copying the
  /// clean rows of each column \p Prev carries. Columns not requested
  /// are left null in the result.
  static Result tabulate(const Hierarchy &H,
                         const std::vector<uint32_t> &MemberIdxs,
                         const Deadline &D, uint32_t Threads = 0,
                         const Predecessor *Prev = nullptr);
};

} // namespace memlook

#endif // MEMLOOK_CORE_PARALLELTABULATOR_H
