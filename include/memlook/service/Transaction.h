//===- memlook/service/Transaction.h - Batch edits --------------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transactional batch edits against a LookupService epoch. A
/// Transaction is a recorded *edit script* - class/edge/member
/// additions and removals by name - begun against a base epoch and
/// applied atomically at commit():
///
///   * the service applies the script to an editable copy of the base
///     epoch's hierarchy (Hierarchy::editableCopy: same class ids and
///     Symbols), enforces the construction-side ResourceBudget after
///     every op, and runs full validation (Hierarchy::validate
///     semantics via finalize: cycles, duplicate bases, using-targets);
///   * any failure - an op referencing a name that does not exist, a
///     budget trip, a validation error, or a conflicting commit that
///     moved the epoch - rolls the whole transaction back: the prior
///     snapshot keeps serving, bit-identically, and the caller gets a
///     Status explaining why;
///   * success publishes a new epoch; readers pinning the old snapshot
///     are unaffected until they re-pin.
///
/// Recording ops by name (not ClassId) is what makes rollback trivial
/// and replay-after-conflict possible: a RemoveClass shifts every later
/// id down, so ids are per-epoch while names are stable across epochs.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_SERVICE_TRANSACTION_H
#define MEMLOOK_SERVICE_TRANSACTION_H

#include "memlook/chg/Hierarchy.h"
#include "memlook/support/ResourceBudget.h"
#include "memlook/support/Status.h"

#include <string>
#include <vector>

namespace memlook {
namespace service {

class LookupService;

/// A recorded edit script against one base epoch. Ops accumulate
/// unvalidated (recording never fails); all checking happens atomically
/// at LookupService::commit().
class Transaction {
public:
  enum class OpKind : uint8_t {
    AddClass,     ///< create class A
    RemoveClass,  ///< drop class A (must have no remaining references)
    AddBase,      ///< append base B to A's base-specifier list
    RemoveBase,   ///< remove the direct edge B -> A
    AddMember,    ///< declare member M in A
    RemoveMember, ///< remove A's declaration of M
    AddUsing,     ///< add `using B::M;` to A
  };

  /// One recorded edit. Field use by kind: Class is the class being
  /// edited; Target is the base (AddBase/RemoveBase), the using-source
  /// (AddUsing), or empty; Member is the member name, or empty.
  struct Op {
    OpKind Kind;
    std::string Class;
    std::string Target;
    std::string Member;
    InheritanceKind EdgeKind = InheritanceKind::NonVirtual;
    AccessSpec Access = AccessSpec::Public;
    bool IsStatic = false;
    bool IsVirtual = false;
  };

  /// The epoch this transaction was begun against; commit() refuses
  /// (TransactionConflict) if the service has moved past it.
  uint64_t baseEpoch() const { return BaseEpoch; }

  const std::vector<Op> &ops() const { return Ops; }
  size_t size() const { return Ops.size(); }
  bool empty() const { return Ops.empty(); }

  //===--------------------------------------------------------------------===
  // Recording (fluent; never fails - validation happens at commit)
  //===--------------------------------------------------------------------===

  Transaction &addClass(std::string Name) {
    Ops.push_back(Op{OpKind::AddClass, std::move(Name), {}, {},
                     InheritanceKind::NonVirtual, AccessSpec::Public, false,
                     false});
    return *this;
  }

  Transaction &removeClass(std::string Name) {
    Ops.push_back(Op{OpKind::RemoveClass, std::move(Name), {}, {},
                     InheritanceKind::NonVirtual, AccessSpec::Public, false,
                     false});
    return *this;
  }

  Transaction &addBase(std::string Derived, std::string Base,
                       InheritanceKind Kind = InheritanceKind::NonVirtual,
                       AccessSpec Access = AccessSpec::Public) {
    Ops.push_back(Op{OpKind::AddBase, std::move(Derived), std::move(Base), {},
                     Kind, Access, false, false});
    return *this;
  }

  Transaction &removeBase(std::string Derived, std::string Base) {
    Ops.push_back(Op{OpKind::RemoveBase, std::move(Derived), std::move(Base),
                     {}, InheritanceKind::NonVirtual, AccessSpec::Public,
                     false, false});
    return *this;
  }

  Transaction &addMember(std::string Class, std::string Member,
                         bool IsStatic = false, bool IsVirtual = false,
                         AccessSpec Access = AccessSpec::Public) {
    Ops.push_back(Op{OpKind::AddMember, std::move(Class), {},
                     std::move(Member), InheritanceKind::NonVirtual, Access,
                     IsStatic, IsVirtual});
    return *this;
  }

  Transaction &removeMember(std::string Class, std::string Member) {
    Ops.push_back(Op{OpKind::RemoveMember, std::move(Class), {},
                     std::move(Member), InheritanceKind::NonVirtual,
                     AccessSpec::Public, false, false});
    return *this;
  }

  Transaction &addUsing(std::string Class, std::string From,
                        std::string Member,
                        AccessSpec Access = AccessSpec::Public) {
    Ops.push_back(Op{OpKind::AddUsing, std::move(Class), std::move(From),
                     std::move(Member), InheritanceKind::NonVirtual, Access,
                     false, false});
    return *this;
  }

private:
  friend class LookupService;
  explicit Transaction(uint64_t BaseEpoch) : BaseEpoch(BaseEpoch) {}

  uint64_t BaseEpoch;
  std::vector<Op> Ops;
};

/// Applies \p Ops to an editable copy of \p Base and returns the
/// finalized result, or the Status explaining the first failure (unknown
/// name, duplicate, budget trip, validation error). \p Base is never
/// touched: this is the commit path's all-or-nothing core, exposed as a
/// free function so the edit-script fuzzer can drive it directly.
///
/// Each op resolves its names once and edits the copy by id. The result
/// keeps \p Base's class ids (a RemoveClass shifts later ids down one)
/// and Symbols, with new names appended. Whole-graph checks (self-edge,
/// cycle, using-target) see only the final graph, so a self-edge a later
/// op removes is no error, and any op-level failure is reported first.
Expected<Hierarchy> applyEditScript(const Hierarchy &Base,
                                    const std::vector<Transaction::Op> &Ops,
                                    const ResourceBudget &Budget);

/// What a committed edit can possibly have changed in the lookup table,
/// computed from the edit script plus both epoch hierarchies. The
/// incremental rewarm re-tabulates exactly MemberNames and structurally
/// shares every other column (LookupTable::rewarm, which also narrows
/// each re-tabulated column to the rows the edit can reach).
///
/// In Figure 8, lookup[C, m] reads only C's own declaration of m and
/// its direct bases' entries in column m. Per op, the names are:
///  * AddMember, RemoveMember, AddUsing: Op.Member alone - no other
///    column reads a declaration of it;
///  * AddBase(A, B): the names declared at B or in B's up-closure, in
///    the new hierarchy;
///  * RemoveBase(A, B): the same set, taken in the old hierarchy, where
///    the edge still exists;
///  * AddClass: nothing - a class with no bases and no members makes no
///    name visible (its edges and members arrive as their own ops);
///  * RemoveClass: FullRebuild.
///
/// Why a base edge B -> A touches only names declared at or above B:
/// a name m declared nowhere at or above B has an Absent entry at B, and
/// the fold skips Absent bases, so the edge itself contributes nothing
/// to column m. The edge also adds or removes CHG paths, which changes
/// isVirtualBaseOf(V2, L) - the Lemma 4 test - only for a V2 at or above
/// B. A definition of m whose least-virtual node is V2 is declared at or
/// above V2, and so at or above B: then m is named. Every other
/// definition keeps its subobjects and its Lemma 4 answers, so column m
/// is unchanged. Base-list order and edge kind or access change only
/// where B's entry is read, which again needs m at or above B.
struct ImpactSet {
  /// True when column sharing is unsound for this script and the table
  /// must be rebuilt from scratch: RemoveClass erases the class's slot
  /// and shifts every later class id down by one, so a shared column
  /// (indexed by class id) would answer for the wrong classes.
  bool FullRebuild = false;
  /// Classes in the new epoch's down-closure of the edited classes - the
  /// rows the edit can reach (stat only).
  uint64_t ImpactedClasses = 0;
  /// Spellings of the member names whose columns must be re-tabulated.
  std::vector<std::string> MemberNames;
};

/// Computes the impact set of \p Ops, which took \p Old to \p New.
/// Requires both hierarchies finalized; tolerant of ops naming classes
/// that exist in only one of the two (AddClass, for instance).
ImpactSet computeImpactSet(const Hierarchy &Old, const Hierarchy &New,
                           const std::vector<Transaction::Op> &Ops);

} // namespace service
} // namespace memlook

#endif // MEMLOOK_SERVICE_TRANSACTION_H
