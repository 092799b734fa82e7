//===- RewarmSweepTest.cpp ------------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// Bounded-exhaustive check of the commit-time rewarm. Every hierarchy on
/// four classes whose edges respect one fixed topological order is built
/// (3^6 = 729 graphs, as in AnswerSweepTest), each with two placements
/// of the names m and n on sets of declaring classes, static or not (n
/// is absent from some). Every single-op edit is then applied to each
/// case and, if it commits:
///  * AddBase over every ordered pair, non-virtual public and virtual
///    private;
///  * RemoveBase of every edge;
///  * AddMember of m, n and a fresh name in every class;
///  * RemoveMember of every declaration;
///  * AddUsing of m and n from every base;
///  * a new leaf class plus AddBase under every class.
///
/// The rewarm over the edit's impact set must then be:
///  * sound - every column outside the impact set answers, row by row,
///    what a fresh build answers;
///  * exact - every column it tabulated is byte-identical (pages, pools
///    and StructuralHash) to LookupTable::build over the new hierarchy;
///  * correct - every answer equals the Rossie-Friedman subobject-graph
///    definition (SubobjectLookupEngine).
///
//===----------------------------------------------------------------------===//

#include "memlook/core/SubobjectLookupEngine.h"
#include "memlook/service/Snapshot.h"
#include "memlook/service/Transaction.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace memlook;
using namespace memlook::service;
using namespace memlook::testutil;

namespace {

constexpr uint32_t N = 4;
/// Topological position -> class id.
constexpr uint32_t Order[N] = {2, 0, 3, 1};

using K = Transaction::OpKind;

/// Where the names go: m on the classes of MaskM, n on those of MaskN
/// (possibly none).
struct Placement {
  uint32_t MaskM;
  bool StaticM;
  uint32_t MaskN;
  bool StaticN;
};

/// Builds graph number \p Code (base-3 digits, one per pair of
/// topological positions: 0 none, 1 non-virtual, 2 virtual) with the
/// names placed as \p P says.
Hierarchy buildCase(uint32_t Code, const Placement &P) {
  Hierarchy H;
  for (uint32_t C = 0; C != N; ++C)
    H.createClass("K" + std::to_string(C));
  for (uint32_t I = 0; I != N; ++I)
    for (uint32_t J = I + 1; J != N; ++J) {
      uint32_t Kind = Code % 3;
      Code /= 3;
      if (Kind != 0)
        H.addBase(ClassId(Order[J]), ClassId(Order[I]),
                  Kind == 2 ? InheritanceKind::Virtual
                            : InheritanceKind::NonVirtual);
    }
  for (uint32_t C = 0; C != N; ++C) {
    if (P.MaskM & (1u << C))
      H.addMember(ClassId(C), "m", P.StaticM);
    if (P.MaskN & (1u << C))
      H.addMember(ClassId(C), "n", P.StaticN, false, AccessSpec::Protected);
  }
  DiagnosticEngine Diags;
  bool Finalized = H.finalize(Diags);
  EXPECT_TRUE(Finalized);
  return H;
}

Transaction::Op makeOp(K Kind, std::string Class, std::string Target = "",
                       std::string Member = "",
                       InheritanceKind Edge = InheritanceKind::NonVirtual,
                       AccessSpec Access = AccessSpec::Public,
                       bool IsStatic = false) {
  return Transaction::Op{Kind,
                         std::move(Class),
                         std::move(Target),
                         std::move(Member),
                         Edge,
                         Access,
                         IsStatic,
                         false};
}

/// Every single-op edit the sweep tries on \p H (some will not commit).
std::vector<std::vector<Transaction::Op>> editsOf(const Hierarchy &H) {
  std::vector<std::vector<Transaction::Op>> Edits;
  auto Name = [&H](uint32_t C) {
    return std::string(H.className(ClassId(C)));
  };
  for (uint32_t A = 0; A != N; ++A)
    for (uint32_t B = 0; B != N; ++B) {
      if (A == B)
        continue;
      Edits.push_back({makeOp(K::AddBase, Name(A), Name(B))});
      Edits.push_back({makeOp(K::AddBase, Name(A), Name(B), "",
                              InheritanceKind::Virtual, AccessSpec::Private)});
    }
  for (uint32_t A = 0; A != N; ++A)
    for (const BaseSpecifier &Spec : H.info(ClassId(A)).DirectBases)
      Edits.push_back(
          {makeOp(K::RemoveBase, Name(A), Name(Spec.Base.index()))});
  for (uint32_t C = 0; C != N; ++C) {
    for (const char *Member : {"m", "n", "fresh"})
      Edits.push_back({makeOp(K::AddMember, Name(C), "", Member,
                              InheritanceKind::NonVirtual, AccessSpec::Public,
                              /*IsStatic=*/C % 2 == 1)});
    for (const MemberDecl &M : H.info(ClassId(C)).Members)
      Edits.push_back({makeOp(K::RemoveMember, Name(C), "",
                              std::string(H.spelling(M.Name)))});
    BitVector Bases = H.basesOf(ClassId(C));
    Bases.forEachSetBit([&](size_t B) {
      for (const char *Member : {"m", "n"})
        Edits.push_back({makeOp(K::AddUsing, Name(C),
                                Name(static_cast<uint32_t>(B)), Member,
                                InheritanceKind::NonVirtual,
                                AccessSpec::Private)});
    });
    InheritanceKind LeafEdge =
        C % 2 ? InheritanceKind::Virtual : InheritanceKind::NonVirtual;
    Edits.push_back({makeOp(K::AddClass, "Z"),
                     makeOp(K::AddBase, "Z", Name(C), "", LeafEdge)});
  }
  return Edits;
}

/// Checks one committed edit of \p Old (tabulated as \p OldTable);
/// returns false after the first failed assertion.
bool checkEdit(const Hierarchy &Old, const LookupTable &OldTable,
               const std::vector<Transaction::Op> &Ops, const std::string &Tag,
               uint32_t &Commits, uint64_t &Copied) {
  Expected<Hierarchy> Edited =
      applyEditScript(Old, Ops, ResourceBudget::unlimited());
  if (!Edited)
    return true; // the edit does not commit (a cycle, a duplicate, ...)
  ++Commits;
  const Hierarchy &New = *Edited;
  ImpactSet Impact = computeImpactSet(Old, New, Ops);
  EXPECT_FALSE(Impact.FullRebuild) << Tag;

  std::shared_ptr<const LookupTable> Rewarmed = LookupTable::rewarm(
      New, Old, OldTable, Impact.MemberNames, Deadline::never(), 1);
  std::shared_ptr<const LookupTable> Fresh =
      LookupTable::build(New, Deadline::never(), 1);
  EXPECT_TRUE(Rewarmed && Fresh) << Tag;
  if (!Rewarmed || !Fresh)
    return false;
  Copied += Rewarmed->buildStats().Tabulation.EntriesCopied;

  SubobjectLookupEngine Reference(New);
  const std::vector<Symbol> &Members = New.allMemberNames();
  for (uint32_t Idx = 0; Idx != Members.size(); ++Idx) {
    std::string_view Spelling = New.spelling(Members[Idx]);
    const LookupTable::Column &Got = *Rewarmed->columns()[Idx];
    const LookupTable::Column &Want = *Fresh->columns()[Idx];
    std::string Where = Tag + " column " + std::string(Spelling);
    bool Tabulated =
        std::find(Impact.MemberNames.begin(), Impact.MemberNames.end(),
                  Spelling) != Impact.MemberNames.end() ||
        !Old.findName(Spelling).isValid() ||
        Old.declarers(Old.findName(Spelling)).empty();
    if (Tabulated) {
      EXPECT_TRUE(Got.Complete && Got.Data == Want.Data) << Where;
      EXPECT_EQ(Got.StructuralHash, Want.StructuralHash) << Where;
      EXPECT_EQ(Got.Data.structuralHash(), Want.StructuralHash) << Where;
    }
    for (uint32_t C = 0; C != New.numClasses(); ++C) {
      ClassId Class(C);
      std::string Answer = comparisonKey(New, Got.resultFor(New, Class));
      EXPECT_EQ(Answer, comparisonKey(New, Want.resultFor(New, Class)))
          << Where << " at " << New.className(Class);
      EXPECT_EQ(Answer,
                comparisonKey(New, Reference.lookup(Class, Members[Idx])))
          << Where << " at " << New.className(Class);
    }
    if (::testing::Test::HasFailure())
      return false;
  }
  return true;
}

TEST(RewarmSweepTest, EverySingleOpEditRewarmsExactly) {
  uint32_t Cases = 0, Commits = 0;
  uint64_t Copied = 0;
  for (uint32_t Code = 0; Code != 729; ++Code)
    for (uint32_t K = 0; K != 2; ++K) {
      // Rotate the placements with the graph so every declarer set of m,
      // static and not, and every set of n meets many graphs.
      uint32_t Idx = Code * 2 + K;
      Placement P{Idx % 15 + 1, (Idx / 15) % 2 == 1, (Idx * 7) % 16,
                  (Idx / 30) % 2 == 1};
      Hierarchy H = buildCase(Code, P);
      std::shared_ptr<const LookupTable> OldTable =
          LookupTable::build(H, Deadline::never(), 1);
      ASSERT_NE(OldTable, nullptr);
      std::string Tag = "graph " + std::to_string(Code) + " m@" +
                        std::to_string(P.MaskM) + (P.StaticM ? "s" : "") +
                        " n@" + std::to_string(P.MaskN) +
                        (P.StaticN ? "s" : "");
      for (const std::vector<Transaction::Op> &Ops : editsOf(H)) {
        ++Cases;
        std::string EditTag = Tag + " edit";
        for (const Transaction::Op &Op : Ops)
          EditTag += " " + std::to_string(static_cast<int>(Op.Kind)) + ":" +
                     Op.Class + "," + Op.Target + "," + Op.Member;
        ASSERT_TRUE(checkEdit(H, *OldTable, Ops, EditTag, Commits, Copied));
      }
    }
  // The sweep must exercise the copy-forward path, not only fresh
  // columns, and most of its edits must commit.
  EXPECT_GT(Copied, 0u);
  EXPECT_GT(Commits, Cases / 2);
  RecordProperty("cases", static_cast<int>(Cases));
  RecordProperty("commits", static_cast<int>(Commits));
}

} // namespace
