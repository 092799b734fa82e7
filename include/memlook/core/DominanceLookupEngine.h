//===- memlook/core/DominanceLookupEngine.h - Figure 8 ----------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's member-lookup algorithm (Figure 8): a topological-order
/// pass over the class hierarchy graph that propagates *abstractions* of
/// definitions instead of paths or subobjects:
///
///  * an unambiguous lookup at a class is a "red" value - the pair
///    (ldc, leastVirtual), which Lemma 4 shows suffices to test
///    dominance against anything arriving along a different edge;
///  * an ambiguous lookup is a "blue" set of leastVirtual abstractions,
///    still propagated because a blue definition, while never the
///    winner, can demote a red definition at a join (the Figure 5
///    bar-at-H scenario).
///
/// Both abstractions are transported across an edge B -> D with the
/// Definition 15 operator
///     X o (B->D) = X  if X != Omega,
///                  B  if the edge is virtual,
///                  Omega otherwise,
/// which abstracts path extension exactly
/// (leastVirtual(p . (B->D)) = leastVirtual(p) o (B->D)).
///
/// Dominance between a red (L1,V1) and a definition abstracted as
/// (L2,V2) that arrived along a different edge is Lemma 4's
/// constant-time test:
///     V2 in virtual-bases[L1]  or  V1 = V2 != Omega.
///
/// ## The static-member generalization (Section 6, Definition 17)
///
/// The paper says the extension to static members is "straightforward":
/// add the clause "L1 = L2 and m is a static member of L1" to the
/// dominates function. Implemented literally, that clause is *unsound*:
/// it treats one subobject as a stand-in for the whole maximal set. When
/// two same-class static definitions meet (legal under Definition 17(2):
/// one entity, many subobjects), the set's members can carry *different*
/// leastVirtual abstractions; a later competitor may dominate the kept
/// representative yet fail to dominate a discarded member, and the
/// algorithm would wrongly report the lookup unambiguous. (A concrete
/// failing hierarchy is pinned in
/// tests/core/StaticMembersTest.cpp::SetAbstractionRegression; our
/// randomized differential tests found it within forty seeds.)
///
/// This implementation therefore generalizes the red value to
///     Red (L, {V1, ..., Vk}),
/// the abstractions of *all* maximal definitions (which Definition 17(2)
/// guarantees share the defining class L; k = 1 always for members that
/// are not static). A competitor must cover every member:
///     covers((L,Vs), (L2,V2)) :=
///         (V2 != Omega and V2 in virtual-bases[L])   [Lemma 4 (i)]
///      or (V2 != Omega and V2 in Vs)                 [Lemma 4 (ii)]
/// and a same-L static definition that is not covered is *absorbed* into
/// the member set instead of being dropped. Blue elements carry their
/// defining class for the same reason. For programs without static
/// members every set is a singleton and the algorithm is exactly
/// Figure 8; the complexity bound gains at most the same |N|+1 factor a
/// blue set already has.
///
/// Complexity (Section 5): constructing the full table is
/// O(|M| * |N| * (|N|+|E|)) worst case and O((|M|+|N|) * (|N|+|E|)) when
/// no lookup is ambiguous. This implementation offers three tabulation
/// disciplines: Eager builds the whole table at construction; Lazy
/// materializes one member's column on first query of that member; and
/// LazyRecursive is the memoizing variant Section 5 describes, computing
/// exactly the queried class's down-closure.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_CORE_DOMINANCELOOKUPENGINE_H
#define MEMLOOK_CORE_DOMINANCELOOKUPENGINE_H

#include "memlook/core/CompactColumn.h"
#include "memlook/core/LookupEngine.h"
#include "memlook/support/BitVector.h"
#include "memlook/support/Deadline.h"

#include <unordered_map>
#include <vector>

namespace memlook {

/// The paper's Figure 8 algorithm behind the common engine interface.
class DominanceLookupEngine : public LookupEngine {
public:
  /// Tabulation discipline (all three variants Section 5 discusses).
  enum class Mode {
    /// Build the whole |M| x |N| table at construction; every query is
    /// then a table read.
    Eager,
    /// Materialize the full column of a member name on its first query.
    Lazy,
    /// The paper's memoizing variant: a query for lookup[C,m] computes
    /// entries only for C and its (transitive) bases.
    LazyRecursive,
  };

  DominanceLookupEngine(const Hierarchy &H, Mode Mode = Mode::Eager);

  LookupResult lookup(ClassId Context, Symbol Member) override;
  using LookupEngine::lookup;

  std::string_view engineName() const override;

  /// Attaches a wall-clock deadline to subsequent tabulation work (the
  /// service's per-query degradation hook). The engine checks it at
  /// entry granularity - coarse enough to keep the paper's meter-free
  /// inner loop intact, fine enough that one query cannot overshoot by
  /// more than DeadlineStride entries. Once the deadline expires,
  /// lookups whose entries are not yet tabulated return
  /// LookupStatus::Exhausted; already-computed entries keep answering
  /// (they are final - a topological prefix is always valid). Pass
  /// nullptr to detach. \p D must outlive the engine's use of it.
  void setDeadline(const Deadline *D) {
    QueryDeadline = (D && !D->unlimited()) ? D : nullptr;
    DeadlineTripped = QueryDeadline && QueryDeadline->expired();
  }

  /// True once an attached deadline expired mid-tabulation. Sticky, like
  /// BudgetMeter: a cancelled computation stays cancelled.
  bool deadlineTripped() const { return DeadlineTripped; }

  //===--------------------------------------------------------------------===
  // Introspection (used by the Figure 6/7 reproduction tests and the
  // operation-count benchmarks)
  //===--------------------------------------------------------------------===

  /// One element of a blue set (now a namespace-scope type shared with
  /// the compact storage; see CompactColumn.h).
  using BlueElement = memlook::BlueElement;

  /// The lookup[C,m] table entry, *expanded* for introspection. The
  /// table itself stores CompactEntry slots (CompactColumn.h); entry()
  /// inflates one slot into this self-contained view, so it is returned
  /// by value.
  struct Entry {
    using Kind = memlook::EntryKind;

    Kind EntryKind = Kind::Absent;

    /// Red: ldc of the result. All maximal definitions share it
    /// (Definition 17(2)).
    ClassId DefiningClass;
    /// Red: the leastVirtual abstractions of the maximal definitions,
    /// sorted by raw id (an invalid id is the paper's Omega). Singleton
    /// unless the static-member rule merged subobjects.
    std::vector<ClassId> RedVs;
    /// Red: leastVirtual of the representative member, whose witness
    /// path the Via chain reconstructs.
    ClassId RepresentativeV;
    /// Red: the direct base the representative was inherited through,
    /// or invalid when m is declared in C itself. Following the chain
    /// downward reconstructs the paper's full-path triple
    /// (ldc, leastVirtual, path) without changing the complexity.
    ClassId Via;
    /// Red: true when the maximal set provably names more than one
    /// subobject of one static entity (Definition 17(2)) - possibly
    /// with coinciding abstractions, so this is not just RedVs.size()>1.
    bool StaticMerged = false;
    /// Red: the representative member's access composed along its
    /// witness path (the member's declared access restricted by every
    /// inheritance edge crossed) - the Section 6 access-rights
    /// extension, tabulated during propagation at no extra asymptotic
    /// cost.
    AccessSpec Access = AccessSpec::Public;

    std::vector<BlueElement> Blues; ///< sorted+unique; valid iff Blue
  };

  /// The table entry for (Context, Member), computing the member's
  /// column first if the engine is lazy. Returns an Absent entry for
  /// names that are not members anywhere. By value: the entry is
  /// expanded out of the compact column on demand.
  Entry entry(ClassId Context, Symbol Member);

  /// The finished compact column for \p Member, tabulating the whole
  /// column now if the engine is lazy; nullptr for names never declared
  /// anywhere. Statistics consumers iterate this directly instead of
  /// expanding every entry.
  const CompactColumn *column(Symbol Member);

  /// Operation counters for the complexity-validation benchmarks.
  struct Stats {
    /// computeEntry calls: Absent slots count where a walk visits them
    /// (the engine's own walks do; ParallelTabulator's sparse walk
    /// visits only non-absent rows).
    uint64_t EntriesComputed = 0;
    /// Rows a rewarm carried forward from the predecessor epoch's column
    /// instead of computing (ParallelTabulator::Predecessor); always 0
    /// for a fresh build.
    uint64_t EntriesCopied = 0;
    uint64_t DominanceTests = 0;    ///< Lemma 4 element tests performed
    uint64_t BlueElementsMoved = 0; ///< blue elements composed across edges

    Stats &operator+=(const Stats &Other) {
      EntriesComputed += Other.EntriesComputed;
      EntriesCopied += Other.EntriesCopied;
      DominanceTests += Other.DominanceTests;
      BlueElementsMoved += Other.BlueElementsMoved;
      return *this;
    }
  };
  const Stats &stats() const { return EngineStats; }

  //===--------------------------------------------------------------------===
  // The Figure 8 kernel, exposed statically
  //
  // The table is column-independent: lookup[*, m] never reads another
  // member's column. These statics are the whole per-column computation
  // with no engine state beyond the caller-owned column and Stats, so
  // the ParallelTabulator can drive the very same code - not a copy of
  // it - from worker threads, one column per task.
  //===--------------------------------------------------------------------===

  /// Computes the single entry lookup[C, \p Member] into \p Column,
  /// assuming the entries of every direct base of C are final (i.e. C's
  /// predecessors in topological order were computed first). Writes the
  /// compact slot directly, and takes it only for a red or blue entry, so
  /// an Absent row leaves its page on the zero page; per-call heap churn
  /// is absorbed by a thread_local scratch, so worker threads each reuse
  /// their own.
  static void computeEntry(const Hierarchy &H, CompactColumn &Column,
                           ClassId C, Symbol Member, Stats &S);

  /// Converts the (final) entry for \p Context into the engine's public
  /// LookupResult, reconstructing the red witness path via the column's
  /// Via links. Every entry the witness chain crosses must be final.
  static LookupResult entryToResult(const Hierarchy &H,
                                    const CompactColumn &Column,
                                    ClassId Context);

  /// Exact heap footprint of the materialized table: entry slots plus
  /// overflow-pool payloads plus per-column bookkeeping - the space
  /// counterpart of the complexity story, reported by the scaling
  /// benchmarks. (Replaces the old approximateTableBytes: the compact
  /// pools make the exact number a few multiplies.)
  uint64_t tableHeapBytes() const;

  /// Table memory breakdown (exact bytes plus pool occupancy), for
  /// TableStatistics and capacity observability.
  struct MemoryStats {
    uint64_t HeapBytes = 0;
    CompactColumn::PoolStats Pools;
    uint32_t ColumnsAllocated = 0;
  };
  MemoryStats memoryStats() const;

private:
  /// Computes the full column lookup[*, Member] in topological order
  /// (skipping entries a LazyRecursive query already produced).
  void computeColumn(uint32_t MemberIdx);

  /// Computes lookup[Context, Member] and exactly the base entries it
  /// transitively needs (explicit work-stack, no recursion).
  void computeEntryRecursive(uint32_t MemberIdx, ClassId Context);

  /// Allocates a column's entry and computed-flag storage on first use.
  void ensureColumnStorage(uint32_t MemberIdx);

  /// True once every entry of the column is final: the column's
  /// popcount equals the class count. Replaces the old
  /// ColumnFullyComputed set - the BitVector already knows.
  bool columnFullyComputed(uint32_t MemberIdx) const {
    const BitVector &Done = EntryComputed[MemberIdx];
    return Done.size() != 0 && Done.count() == Done.size();
  }

  /// Definition 15's o operator across the direct edge \p Spec.Base ->
  /// derived (edge kind taken from \p Spec).
  static ClassId composeAcross(ClassId V, const BaseSpecifier &Spec) {
    if (V.isValid())
      return V;
    if (Spec.Kind == InheritanceKind::Virtual)
      return Spec.Base;
    return ClassId(); // Omega
  }

  /// Deadline check at entry granularity: consults the clock every
  /// DeadlineStride entries, never when no deadline is attached.
  bool deadlineExpired() {
    if (!QueryDeadline)
      return false;
    if (DeadlineTripped)
      return true;
    if (++DeadlineCheckCounter % DeadlineStride != 0)
      return false;
    DeadlineTripped = QueryDeadline->expired();
    return DeadlineTripped;
  }

  Mode TabulationMode;
  const Deadline *QueryDeadline = nullptr;
  bool DeadlineTripped = false;
  uint32_t DeadlineCheckCounter = 0;
  std::unordered_map<Symbol, uint32_t> MemberIndex;
  /// Column-major table: Columns[memberIdx][classIdx], in compact form.
  /// A column is allocated lazily; EntryComputed tracks which entries
  /// are final as a packed per-column BitVector, so each column's
  /// bookkeeping is independently owned (no adjacent-bit sharing across
  /// columns).
  std::vector<CompactColumn> Columns;
  std::vector<BitVector> EntryComputed;
  Stats EngineStats;

public:
  /// Entries tabulated between clock reads while a deadline is attached.
  /// Shared with the ParallelTabulator so serial and parallel builds
  /// overshoot an expired deadline by the same bounded amount.
  static constexpr uint32_t DeadlineStride = 64;
};

} // namespace memlook

#endif // MEMLOOK_CORE_DOMINANCELOOKUPENGINE_H
