//===- memlook/service/Snapshot.h - Versioned snapshots ---------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The read side of the long-lived lookup service: epoch-numbered,
/// immutable snapshots of a hierarchy plus its fully tabulated Figure 8
/// lookup table.
///
/// The paper's Figure 8 tabulation assumes a frozen class hierarchy
/// graph. The service keeps that assumption *per epoch*: every
/// committed transaction produces a brand-new Snapshot (shared-ownership
/// Hierarchy + LookupTable), published by pointer swap. Concurrent
/// readers pin a snapshot with one shared_ptr copy and never observe a
/// mutation, never take a lock while querying, and never block writers;
/// a snapshot dies when its last pinning reader releases it.
///
/// The one concession to mutability is the quarantine flag: when the
/// self-audit catches the cached table disagreeing with a live engine,
/// it marks the table quarantined (a monotone atomic - set once, never
/// cleared) so readers skip the tabulated rung until the service
/// publishes a rebuilt snapshot. Everything else is deep-frozen at
/// publication.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_SERVICE_SNAPSHOT_H
#define MEMLOOK_SERVICE_SNAPSHOT_H

#include "memlook/chg/Hierarchy.h"
#include "memlook/core/LookupResult.h"
#include "memlook/core/ParallelTabulator.h"
#include "memlook/support/Deadline.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

/// Best-effort cache prefetch, used by the batch query path to overlap
/// column-entry loads across a batch. A no-op on compilers without the
/// builtin - prefetching is purely a hint, never semantics.
#if defined(__GNUC__) || defined(__clang__)
#define MEMLOOK_PREFETCH(Addr) __builtin_prefetch(Addr)
#else
#define MEMLOOK_PREFETCH(Addr) ((void)sizeof(Addr))
#endif

namespace memlook {
namespace service {

/// A fully materialized, immutable |M| x |N| table of lookup answers -
/// the warm rung of the service's degradation ladder. Unlike a live
/// DominanceLookupEngine (which memoizes, so concurrent lookups race),
/// a LookupTable is computed once before publication and is then
/// const-queryable from any number of threads.
///
/// Storage is column-major behind per-column shared_ptrs - the unit of
/// both parallel construction (one ParallelTabulator task per member
/// name) and cross-epoch structural sharing: rewarm() aliases every
/// column the committed edit provably did not affect into the new
/// epoch's table, so a small edit re-tabulates a small impact set
/// instead of the whole |M| x |N| product.
class LookupTable {
public:
  using Column = ParallelTabulator::Column;

  /// How a table came to be, for observability and the bench harness.
  struct BuildStats {
    uint32_t ColumnsBuilt = 0;  ///< columns tabulated by this build
    uint32_t ColumnsShared = 0; ///< columns aliased from the predecessor
    /// Column pointers unified by structural dedup: distinct member
    /// names whose finished columns are byte-identical share one
    /// Column object. Counted as (columns) - (distinct objects), so a
    /// rewarm that re-derives a column identical to a shared one also
    /// counts. Orthogonal to ColumnsShared, which is cross-epoch.
    uint32_t ColumnsDeduped = 0;
    uint32_t ThreadsUsed = 1;
    ParallelTabulator::Stats Tabulation; ///< kernel counters (built only)
  };

  /// Tabulates every (class, member) answer over \p H, sharding member
  /// columns across \p Threads workers (0 = pick automatically, 1 =
  /// serial). Honors \p BuildDeadline at DeadlineStride granularity:
  /// when it expires mid-build, returns nullptr and the snapshot stays
  /// cold (queries degrade to the per-query rungs).
  static std::shared_ptr<const LookupTable>
  build(const Hierarchy &H, const Deadline &BuildDeadline = Deadline::never(),
        uint32_t Threads = 0);

  /// Incremental commit-time rewarm: builds the table for \p NewH by
  /// re-tabulating only the member-name columns in \p ImpactedNames
  /// (spellings) and structurally sharing every other column of
  /// \p Prev, the predecessor epoch's table built over \p OldH.
  ///
  /// Inside a re-tabulated column the rewarm is row-precise. The rows it
  /// recomputes are derived from the two hierarchies, not from the edit
  /// script: the down-closure (over DirectDerived in both epochs) of
  ///  * the structural seeds - classes that are new, or whose DirectBases
  ///    list differs in order, base, kind or access - shared by every
  ///    column; and
  ///  * the member seeds of that column - classes among the old or new
  ///    declarers of the name whose declaration of it differs.
  /// Outside those rows a class has the same up-closure, edges,
  /// declarations and ids in both epochs, so its Figure 8 entry is the
  /// predecessor's. The walk visits the new closure in topological order
  /// and copies each such row from Prev's column, re-appending its pool
  /// payload (ParallelTabulator::Predecessor), so a rewarmed column is
  /// byte-identical - pages, pools and StructuralHash - to the one
  /// build() makes; dedup and the snapshot writer cannot tell them
  /// apart. A name Prev does not tabulate is computed fresh.
  ///
  /// Soundness preconditions (the commit path guarantees both):
  ///  * class ids are stable from OldH to NewH - the edit script
  ///    removed no class, so surviving classes keep their dense ids and
  ///    new classes take ids >= OldH.numClasses();
  ///  * \p ImpactedNames covers every member name whose column differs
  ///    between the two epochs (computeImpactSet's contract).
  /// A shared column then answers correctly for every pre-existing
  /// class, and for a *new* class the answer is NotFound - any name
  /// visible from a new class is impacted by construction, so an
  /// unimpacted name cannot reach it. find() encodes exactly that:
  /// a row index beyond a shared column's size answers NotFound.
  ///
  /// Returns nullptr when the re-tabulation missed \p BuildDeadline.
  static std::shared_ptr<const LookupTable>
  rewarm(const Hierarchy &NewH, const Hierarchy &OldH, const LookupTable &Prev,
         const std::vector<std::string> &ImpactedNames,
         const Deadline &BuildDeadline = Deadline::never(),
         uint32_t Threads = 0);

  /// Assembles a table directly from per-member column pointers - the
  /// snapshot loader's factory, bypassing tabulation. \p Columns must be
  /// indexed like \p H.allMemberNames(), all non-null, Complete,
  /// Override-free, and already validated against \p H (SnapshotFile.h
  /// owns that validation); aliased pointers preserve structural-dedup
  /// sharing and are re-counted into ColumnsDeduped.
  static std::shared_ptr<const LookupTable>
  fromColumns(const Hierarchy &H,
              std::vector<std::shared_ptr<const Column>> Columns);

  /// The tabulated answer for (\p Context, \p Member), materialized on
  /// read from the compact column (so it is returned by value). Names
  /// never declared anywhere in the epoch's hierarchy answer NotFound.
  /// \p Context must be a valid class id of \p H, the hierarchy the
  /// table was built over (witness paths are reconstructed against it).
  LookupResult find(const Hierarchy &H, ClassId Context, Symbol Member) const {
    assert(Context.isValid() && Context.index() < NumClasses &&
           "class id from a different epoch?");
    uint32_t Col = columnIndexFor(Member);
    if (Col == NoColumn)
      return LookupResult::notFound();
    // resultFor answers NotFound for rows beyond a shared short
    // column's span (new class, unimpacted name: see rewarm()).
    return Columns[Col]->resultFor(H, Context);
  }

  /// Release-safe twin of find(): a context id that is invalid or
  /// beyond this table's row span - a stale id resolved at another
  /// epoch, or a forged QueryKey - answers NotFound and sets
  /// \p *StaleContext (when non-null) instead of relying on an assert
  /// that compiles away in release builds. The service's tabulated rung
  /// uses this for resolved-handle queries, whose raw ids the caller
  /// stores across commits.
  LookupResult findChecked(const Hierarchy &H, ClassId Context, Symbol Member,
                           bool *StaleContext = nullptr) const {
    if (Context.rawValue() >= NumClasses) { // invalid sentinel is UINT32_MAX
      if (StaleContext)
        *StaleContext = true;
      return LookupResult::notFound();
    }
    return find(H, Context, Member);
  }

  /// The allocation-free answer of probe(): classification plus the
  /// target member, read straight from one 24-byte compact entry - no
  /// witness path, no candidate vector, no heap traffic. DefiningClass,
  /// Access, and SharedStatic are meaningful only when Status is
  /// Unambiguous (they mirror find()'s DefiningClass, EffectiveAccess,
  /// and SharedStatic exactly).
  struct Probe {
    LookupStatus Status = LookupStatus::NotFound;
    ClassId DefiningClass;
    AccessSpec Access = AccessSpec::Public;
    bool SharedStatic = false;
    /// The context id was invalid or out of this table's row span
    /// (stale epoch / forged key): answered NotFound, release-safe.
    bool StaleContext = false;
  };

  /// Classifies (\p Context, \p Member) by reading one compact entry,
  /// with findChecked()'s bounds discipline (a stale context answers
  /// NotFound, flagged). Row Overrides - the corruption-injection side
  /// channel - are honored without materializing their stored result,
  /// so a probe never allocates on any path.
  Probe probe(ClassId Context, Symbol Member) const {
    Probe P;
    if (Context.rawValue() >= NumClasses) {
      P.StaleContext = true;
      return P;
    }
    uint32_t Col = columnIndexFor(Member);
    if (Col == NoColumn)
      return P;
    const Column &C = *Columns[Col];
    uint32_t Row = Context.index();
    if (!C.Overrides.empty()) {
      for (const auto &[OverrideRow, Answer] : C.Overrides) {
        if (OverrideRow != Row)
          continue;
        P.Status = Answer.Status;
        P.DefiningClass = Answer.DefiningClass;
        P.Access = Answer.EffectiveAccess.value_or(AccessSpec::Public);
        P.SharedStatic = Answer.SharedStatic;
        return P;
      }
    }
    if (Row >= C.Data.size() || !C.Computed.test(Row))
      return P; // shared short column or deadline prefix: NotFound
    const CompactEntry &E = C.Data[Row];
    switch (E.kind()) {
    case EntryKind::Absent:
      break;
    case EntryKind::Red:
      P.Status = LookupStatus::Unambiguous;
      P.DefiningClass = E.DefiningClass;
      P.Access = E.access();
      P.SharedStatic = E.staticMerged();
      break;
    case EntryKind::Blue:
      P.Status = LookupStatus::Ambiguous;
      break;
    }
    return P;
  }

  /// Best-effort prefetch of the compact entry a subsequent probe() or
  /// find() for (\p Context, \p Member) will read. queryMany() issues
  /// these across a batch so the (cache-missing) column loads overlap
  /// instead of serializing.
  void prefetchEntry(ClassId Context, Symbol Member) const {
    uint32_t Col = columnIndexFor(Member);
    if (Col == NoColumn)
      return;
    const CompactColumn &Data = Columns[Col]->Data;
    if (Context.rawValue() < Data.size())
      MEMLOOK_PREFETCH(&Data[Context.rawValue()]);
  }

  /// Number of tabulated entry slots across all columns (shared columns
  /// count their own, possibly shorter, row span; deduped columns are
  /// counted once per referencing member, matching the logical table).
  uint64_t numEntries() const;

  /// Exact heap footprint of the compact storage, for capacity
  /// observability. Each distinct Column object is counted once, so
  /// dedup and cross-epoch sharing show up as genuine savings within
  /// one table (a column shared with a *previous* epoch is still
  /// charged here - the predecessor may retire first).
  uint64_t heapBytes() const;

  const BuildStats &buildStats() const { return Build; }

  /// The per-member column pointers, indexed like the hierarchy's
  /// allMemberNames(). Exposed (const) for the snapshot serializer -
  /// which must see pointer aliasing to store deduped columns once -
  /// and for tests asserting that sharing survives a round trip.
  const std::vector<std::shared_ptr<const Column>> &columns() const {
    return Columns;
  }

  /// Row span the table was built over (the epoch's class count).
  uint32_t numClassesTabulated() const { return NumClasses; }

  /// Test-and-demo hook: a copy of this table with the (\p Context,
  /// \p Member) answer replaced by a deliberately wrong one (the
  /// corruption the self-audit exists to catch). Returns nullptr when
  /// the member name is not tabulated. The wrong answer is recorded as
  /// a row Override on a copy of the column - falsifying the compact
  /// entry itself would corrupt the Via chains of every descendant row,
  /// which is a different (and assert-fatal) failure than the
  /// wrong-answer scenario the audit targets. Only the corrupted column
  /// is copied; the rest stay shared.
  std::shared_ptr<const LookupTable>
  cloneWithCorruptedEntry(const Hierarchy &H, ClassId Context,
                          Symbol Member) const;

private:
  LookupTable() = default;

  /// MemberIndex sentinel: this Symbol has no tabulated column.
  static constexpr uint32_t NoColumn = UINT32_MAX;

  /// The flat symbol dispatch: MemberIndex[Sym.rawValue()] is the
  /// column index of Sym, or NoColumn. One bounds check + one array
  /// read replaces a hash probe on every query. Sized by the epoch's
  /// whole interner (class names and member names share the dense id
  /// space; non-member ids just hold the sentinel), which costs 4 bytes
  /// a name - noise next to the columns. Symbols interned *after* the
  /// build (query-side internName) fall off the end and correctly
  /// answer NoColumn: a name interned post-build is declared nowhere.
  uint32_t columnIndexFor(Symbol Member) const {
    uint32_t Raw = Member.rawValue(); // invalid sentinel fails the bound
    return Raw < MemberIndex.size() ? MemberIndex[Raw] : NoColumn;
  }

  /// Fills MemberIndex for \p H (shared by every factory).
  void buildMemberIndex(const Hierarchy &H);

  uint32_t NumClasses = 0;
  std::vector<uint32_t> MemberIndex;
  /// Columns[memberIdx], indexed like Hierarchy::allMemberNames(); all
  /// non-null and Complete in a published table. Distinct member
  /// indices may alias one Column object (cross-epoch sharing and
  /// structural dedup) - sound because published columns are
  /// value-immutable.
  std::vector<std::shared_ptr<const Column>> Columns;
  BuildStats Build;
};

/// One epoch-numbered, immutable hierarchy state. Readers pin it with a
/// shared_ptr copy; the service publishes a new one on every committed
/// transaction (epoch bumps) and on table warm/rebuild (epoch stays -
/// the epoch names the *hierarchy content*, not the cache state).
struct Snapshot {
  /// Monotone epoch, starting at 1 for the service's initial hierarchy
  /// and incremented by every committed transaction.
  uint64_t Epoch = 0;

  /// The finalized hierarchy of this epoch. Shared ownership: readers,
  /// per-query engines, and audits all hold it without copying.
  std::shared_ptr<const Hierarchy> H;

  /// The warm lookup table, or nullptr while this epoch is cold (table
  /// build deferred or its build deadline expired).
  std::shared_ptr<const LookupTable> Table;

  /// True when this snapshot's table was rebuilt after a self-audit
  /// quarantined a predecessor at the same epoch.
  bool RebuiltByAudit = false;

  /// Set (once, never cleared) by the self-audit when the cached table
  /// disagreed with a live engine. Readers skip the tabulated rung.
  mutable std::atomic<bool> Quarantined{false};

  /// True when the tabulated rung can answer.
  bool warm() const { return Table != nullptr && !quarantined(); }

  bool quarantined() const {
    return Quarantined.load(std::memory_order_acquire);
  }

  void quarantine() const {
    Quarantined.store(true, std::memory_order_release);
  }
};

} // namespace service
} // namespace memlook

#endif // MEMLOOK_SERVICE_SNAPSHOT_H
