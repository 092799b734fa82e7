//===- memlook/chg/Hierarchy.h - C++ class hierarchy graph ------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Class Hierarchy Graph (CHG) of Section 2 of the paper: nodes are
/// classes, edges are direct inheritance relations partitioned into
/// virtual (E_v) and non-virtual (E_nv) edges. An edge X -> Y means X is a
/// direct base of Y. Each class carries the set M[X] of members declared
/// directly in it.
///
/// Beyond the paper's bare graph, the hierarchy records the C++ details
/// needed by the extensions in Section 6 and by the compiler applications:
/// per-member static/virtual flags and access, and per-edge access.
///
/// A Hierarchy is built incrementally, then finalize() validates it
/// (acyclicity, no duplicate direct bases - both C++ rules) and computes
/// the preprocessing artifacts the lookup algorithm needs: a topological
/// order of classes, the virtual-base closure behind Lemma 4's
/// constant-time test, and a declarer index naming, per member name, the
/// classes that declare it. The closure matrix has one column per class
/// that is a virtual base (N x K; K = 0 without virtual edges). No
/// transitive-base structure is kept - a chain's would be Theta(N^2) - so
/// isBaseOf() and basesOf() walk the direct-base lists; loops hoist a
/// basesOf().
///
/// A finalized hierarchy is immutable. An edit starts from
/// editableCopy(), which keeps class ids and Symbols, changes the copy
/// through the construction and removal calls, and finalizes it again.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_CHG_HIERARCHY_H
#define MEMLOOK_CHG_HIERARCHY_H

#include "memlook/support/BitMatrix.h"
#include "memlook/support/BitVector.h"
#include "memlook/support/Diagnostics.h"
#include "memlook/support/StringInterner.h"
#include "memlook/support/StrongId.h"

#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace memlook {

struct ClassTag {};

/// Dense id of a class in a Hierarchy.
using ClassId = StrongId<ClassTag>;

/// The two inheritance flavors of C++ (solid vs dashed edges in the
/// paper's figures).
enum class InheritanceKind : uint8_t { NonVirtual, Virtual };

/// C++ access specifiers, ordered from most to least permissive.
enum class AccessSpec : uint8_t { Public, Protected, Private };

/// Returns the more restrictive of two access specifiers. Composing
/// access along an inheritance path takes the minimum at each step.
inline AccessSpec restrictAccess(AccessSpec A, AccessSpec B) {
  return static_cast<uint8_t>(A) >= static_cast<uint8_t>(B) ? A : B;
}

/// Returns "public" / "protected" / "private".
const char *accessSpelling(AccessSpec Access);

/// One entry of a class's base-specifier list.
struct BaseSpecifier {
  ClassId Base;
  InheritanceKind Kind = InheritanceKind::NonVirtual;
  AccessSpec Access = AccessSpec::Public;
  SourceLoc Loc;
};

/// A member declared directly in a class (an element of M[X]).
///
/// The paper does not distinguish virtual and non-virtual members for
/// lookup; we record the flag anyway because the vtable application needs
/// it. Type names and enumerator constants introduced into class scope
/// behave exactly like static members for lookup (Section 6), so IsStatic
/// covers them too.
///
/// A using-declaration (`using B::m;`) is modeled as a declaration of m
/// in the class that contains it, with UsingFrom naming B. That is
/// exactly C++'s semantics - the introduced name hides every inherited
/// m - so the lookup algorithms need no change at all; only clients that
/// care about the *entity* behind the name (vtables, diagnostics)
/// resolve the target via core/UsingDeclarations.h.
struct MemberDecl {
  Symbol Name;
  bool IsStatic = false;
  bool IsVirtual = false;
  AccessSpec Access = AccessSpec::Public;
  SourceLoc Loc;
  /// For a using-declaration: the named base class; invalid otherwise.
  ClassId UsingFrom;

  bool isUsingDeclaration() const { return UsingFrom.isValid(); }
};

/// The class hierarchy graph plus per-class member declarations.
class Hierarchy {
public:
  /// Per-class record.
  struct ClassInfo {
    Symbol Name;
    SourceLoc Loc;
    /// Direct bases in base-specifier-list order (the order matters for
    /// object layout and for deterministic algorithm traversal).
    std::vector<BaseSpecifier> DirectBases;
    /// Classes that list this class as a direct base, in ascending id
    /// order.
    std::vector<ClassId> DirectDerived;
    /// Members declared directly in this class, in declaration order.
    std::vector<MemberDecl> Members;
  };

  //===--------------------------------------------------------------------===
  // Construction
  //===--------------------------------------------------------------------===

  /// Creates a class named \p Name. Returns an invalid id and reports to
  /// \p Diags if the name is already taken.
  ClassId createClass(std::string_view Name, SourceLoc Loc = SourceLoc(),
                      DiagnosticEngine *Diags = nullptr);

  /// Appends \p Base to \p Derived's base-specifier list (and \p Derived
  /// to \p Base's DirectDerived, in id order). Duplicate direct bases are
  /// rejected (ill-formed in C++) with a diagnostic. Must not be called
  /// after finalize().
  bool addBase(ClassId Derived, ClassId Base,
               InheritanceKind Kind = InheritanceKind::NonVirtual,
               AccessSpec Access = AccessSpec::Public,
               SourceLoc Loc = SourceLoc(), DiagnosticEngine *Diags = nullptr);

  /// Declares member \p Name directly in \p Class. Redeclaring the same
  /// name in one class is folded into the first declaration (we model
  /// names, not overload sets) with a warning.
  void addMember(ClassId Class, std::string_view Name, bool IsStatic = false,
                 bool IsVirtual = false, AccessSpec Access = AccessSpec::Public,
                 SourceLoc Loc = SourceLoc(), DiagnosticEngine *Diags = nullptr);

  /// Adds `using From::Name;` to \p Class: a declaration of \p Name in
  /// \p Class whose entity is inherited from \p From. finalize()
  /// verifies that \p From is a (transitive) base of \p Class; whether
  /// Name is actually a member of From is a lookup question answered by
  /// validateUsingDeclarations() (core/UsingDeclarations.h).
  void addUsingDeclaration(ClassId Class, ClassId From, std::string_view Name,
                           AccessSpec Access = AccessSpec::Public,
                           SourceLoc Loc = SourceLoc(),
                           DiagnosticEngine *Diags = nullptr);

  /// An unfinalized copy to edit: the same class ids, records, source
  /// locations and Symbols (names the copy interns later get new ones).
  /// The finalize() artifacts are not copied; finalize the copy once the
  /// edits are done.
  Hierarchy editableCopy() const;

  /// Removes \p Class's declaration of \p Name. Returns false if \p Class
  /// declares no such member. Must not be called after finalize().
  bool removeMember(ClassId Class, Symbol Name);

  /// Removes the direct edge \p Base -> \p Derived. Returns false if
  /// there is none. Must not be called after finalize().
  bool removeBase(ClassId Derived, ClassId Base);

  /// Removes \p Class with its own edges and members. No other class may
  /// still list it as a base or name it in a using-declaration. Every
  /// class id above it shifts down by one; Symbols do not change. Must
  /// not be called after finalize().
  void removeClass(ClassId Class);

  /// Non-mutating validation of the graph as described so far: reports
  /// inheritance cycles and using-declarations that do not name a
  /// (transitive) base, as structured Diagnostics. Duplicate classes and
  /// duplicate/conflicting base edges are rejected at insertion time
  /// (createClass / addBase), so a hierarchy that reached this point can
  /// only be ill-formed in those two global ways. Returns true iff the
  /// hierarchy would finalize successfully. Usable before finalize();
  /// does not change any state.
  bool validate(DiagnosticEngine &Diags) const;

  /// Validates the graph and computes the topological order and the
  /// virtual-base closure. Returns false (and reports) on a cycle or a
  /// bad using-declaration target.
  /// Construction calls are invalid after a successful finalize().
  bool finalize(DiagnosticEngine &Diags);

  /// True once finalize() has succeeded.
  bool isFinalized() const { return Finalized; }

  //===--------------------------------------------------------------------===
  // Queries
  //===--------------------------------------------------------------------===

  uint32_t numClasses() const { return static_cast<uint32_t>(Classes.size()); }

  /// Total number of inheritance edges |E|.
  uint32_t numEdges() const { return NumEdges; }

  const ClassInfo &info(ClassId Id) const {
    assert(Id.isValid() && Id.index() < Classes.size() && "bad class id");
    return Classes[Id.index()];
  }

  /// Spelling of \p Id's name.
  std::string_view className(ClassId Id) const {
    return Names.spelling(info(Id).Name);
  }

  /// Finds a class by name; invalid id if absent.
  ClassId findClass(std::string_view Name) const;

  /// Interns a member name so it can be used in lookup queries. Query-side
  /// code may also use findMemberName() to avoid allocating for unknown
  /// names.
  Symbol internName(std::string_view Name) { return Names.intern(Name); }

  /// Finds an already-interned name; invalid Symbol if never seen.
  Symbol findName(std::string_view Name) const { return Names.find(Name); }

  /// Number of distinct interned names so far - class names, member
  /// names, and query-side internName() calls share one dense id space,
  /// so every valid Symbol's raw value is below this bound. The flat
  /// member dispatch of service::LookupTable is sized by it. An edited
  /// copy keeps every name of its predecessor, used or not.
  uint32_t numInternedNames() const {
    return static_cast<uint32_t>(Names.size());
  }

  /// Spelling of an interned name.
  std::string_view spelling(Symbol Sym) const { return Names.spelling(Sym); }

  /// The member named \p Name declared directly in \p Class, if any.
  const MemberDecl *declaredMember(ClassId Class, Symbol Name) const;

  /// True iff \p Name is in M[Class].
  bool declaresMember(ClassId Class, Symbol Name) const {
    return declaredMember(Class, Name) != nullptr;
  }

  /// The classes that declare \p Name directly (using-declarations
  /// included), in ascending id order. These seed lookup[*, Name]: its
  /// non-absent rows are exactly their down-closure. Empty for a name no
  /// class declares. Requires finalize().
  std::span<const ClassId> declarers(Symbol Name) const {
    assert(Finalized && "the declarer index requires finalize()");
    uint32_t Raw = Name.rawValue(); // invalid sentinel fails the bound
    if (Raw + 1 >= DeclarerOffsets.size())
      return {};
    return std::span<const ClassId>(Declarers)
        .subspan(DeclarerOffsets[Raw], DeclarerOffsets[Raw + 1] -
                                           DeclarerOffsets[Raw]);
  }

  /// All distinct member names declared anywhere in the program, in
  /// first-declaration order.
  const std::vector<Symbol> &allMemberNames() const {
    assert(Finalized && "closures require finalize()");
    return MemberNames;
  }

  /// Classes in topological order: every base precedes its derived
  /// classes. Requires finalize().
  const std::vector<ClassId> &topologicalOrder() const {
    assert(Finalized && "topological order requires finalize()");
    return TopoOrder;
  }

  /// Position of \p Id in topologicalOrder(): every proper base of a
  /// class has a smaller index than the class. Requires finalize().
  uint32_t topoIndex(ClassId Id) const {
    assert(Finalized && "topological order requires finalize()");
    return TopoIndex[Id.index()];
  }

  /// True iff \p Base is a (transitive, proper) base class of \p Derived:
  /// a nonempty CHG path Base -> ... -> Derived exists. Walks the direct
  /// bases up from Derived, skipping classes ordered before Base, so it
  /// costs up to the size of Derived's up-closure.
  bool isBaseOf(ClassId Base, ClassId Derived) const;

  /// True iff \p Base is a virtual base of \p Derived: some CHG path from
  /// Base to Derived starts with a virtual edge (Section 2). One rank
  /// load plus at most one bit test.
  bool isVirtualBaseOf(ClassId Base, ClassId Derived) const {
    assert(Finalized && "closures require finalize()");
    uint32_t Rank = VirtualRank[Base.index()];
    return Rank != NoRank && VirtualClosure.test(Derived.index(), Rank);
  }

  /// The set of (transitive) bases of \p Derived, indexed by class index;
  /// one walk up the direct-base lists.
  BitVector basesOf(ClassId Derived) const;

  /// Sets in \p Seen every base of \p From reachable through classes not
  /// yet set, so calls sharing \p Seen walk each class once. Needs no
  /// finalize() and terminates on cyclic graphs.
  void markBases(ClassId From, BitVector &Seen) const;

  /// The set of virtual bases of \p Derived, indexed by class index.
  BitVector virtualBasesOf(ClassId Derived) const;

  /// Number of classes that are a virtual base of some class: the
  /// column count K of the virtual-base matrix.
  uint32_t numVirtualBaseClasses() const {
    return static_cast<uint32_t>(VirtualBaseClasses.size());
  }

  /// The inheritance kind of the direct edge Base -> Derived, or nullopt
  /// if no such edge exists.
  std::optional<InheritanceKind> edgeKind(ClassId Base, ClassId Derived) const;

  /// The access of the direct edge Base -> Derived, or nullopt.
  std::optional<AccessSpec> edgeAccess(ClassId Base, ClassId Derived) const;

  /// Sum over classes of |M[X]| (number of member declarations).
  uint32_t numMemberDecls() const { return NumMemberDecls; }

  /// Heap bytes this hierarchy holds: class records, names, topological
  /// order and closures (hash-table nodes estimated from their sizes).
  size_t heapBytes() const;

private:
  /// VirtualRank of a class that is no class's virtual base.
  static constexpr uint32_t NoRank = UINT32_MAX;

  /// Reports every using-declaration whose target is not a base of its
  /// class, in class then declaration order. Returns true iff none is.
  bool checkUsingTargets(DiagnosticEngine &Diags) const;

  StringInterner Names;
  std::vector<ClassInfo> Classes;
  // The class a name denotes, indexed by Symbol; invalid where the name
  // is no class's (and past the end for names interned afterwards).
  std::vector<ClassId> ClassOfName;

  std::vector<ClassId> TopoOrder;
  std::vector<uint32_t> TopoIndex; // class index -> position in TopoOrder
  std::vector<Symbol> MemberNames;
  // Declarer index in CSR form: the declarers of the name with raw id S
  // are Declarers[DeclarerOffsets[S] .. DeclarerOffsets[S + 1]).
  std::vector<uint32_t> DeclarerOffsets;
  std::vector<ClassId> Declarers;
  // Virtual-base closure, rank-compressed: VirtualBaseClasses lists the
  // K classes that are some class's virtual base in ascending id order,
  // VirtualRank maps a class to its position there (or NoRank), and
  // VirtualClosure is N x K (row = derived, col = rank).
  std::vector<uint32_t> VirtualRank;
  std::vector<ClassId> VirtualBaseClasses;
  BitMatrix VirtualClosure;
  uint32_t NumEdges = 0;
  uint32_t NumMemberDecls = 0;
  bool Finalized = false;
};

} // namespace memlook

#endif // MEMLOOK_CHG_HIERARCHY_H
