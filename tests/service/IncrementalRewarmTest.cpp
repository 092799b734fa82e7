//===- IncrementalRewarmTest.cpp -------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental commit-time rewarm: computeImpactSet must be sound
/// (every column it declares unimpacted really is identical across the
/// edit) and tight enough to be worth having (an edit inside one module
/// of a modular forest shares the other modules' columns). The rewarmed
/// table must be entry-for-entry identical to a from-scratch build of
/// the new epoch - checked directly on small edits and over a 500+
/// edit-script fuzz campaign whose in-harness oracle does exactly that
/// comparison after every successful commit.
///
//===----------------------------------------------------------------------===//

#include "memlook/chg/HierarchyBuilder.h"
#include "memlook/core/DifferentialCheck.h"
#include "memlook/core/DominanceLookupEngine.h"
#include "memlook/service/EditScriptFuzz.h"
#include "memlook/service/LookupService.h"
#include "memlook/service/Snapshot.h"
#include "memlook/service/Transaction.h"
#include "memlook/workload/Generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace memlook;
using namespace memlook::service;

namespace {

bool contains(const std::vector<std::string> &Names, std::string_view Want) {
  return std::find(Names.begin(), Names.end(), Want) != Names.end();
}

/// Applies \p Ops to \p Base with an unlimited budget, asserting success.
Hierarchy applyOps(const Hierarchy &Base,
                const std::vector<Transaction::Op> &Ops) {
  Expected<Hierarchy> New =
      applyEditScript(Base, Ops, ResourceBudget::unlimited());
  EXPECT_TRUE(New.hasValue()) << New.status().message();
  return std::move(*New);
}

/// Every (class, member) answer of \p Table over \p H, rendered with the
/// differential comparison key.
std::vector<std::string> renderTable(const Hierarchy &H,
                                     const LookupTable &Table) {
  std::vector<std::string> Out;
  for (uint32_t Idx = 0; Idx != H.numClasses(); ++Idx)
    for (Symbol Member : H.allMemberNames())
      Out.push_back(
          renderLookupForComparison(H, Table.find(H, ClassId(Idx), Member)));
  return Out;
}

TEST(ImpactSetTest, EditInOneModuleImpactsOnlyThatModule) {
  // Three independent trees; declaring a fresh name at tree 0's root
  // can change only that name's column, so neither tree 0's other names
  // nor the globals every root declares are impacted.
  Workload W = makeModularForest(3, 2, 2, 4, 2);
  std::vector<Transaction::Op> Ops;
  Ops.push_back(Transaction::Op{Transaction::OpKind::AddMember, "T0", "",
                                "t0_fresh", InheritanceKind::NonVirtual,
                                AccessSpec::Public, false, false});
  Hierarchy New = applyOps(W.H, Ops);

  ImpactSet Impact = computeImpactSet(W.H, New, Ops);
  EXPECT_FALSE(Impact.FullRebuild);
  EXPECT_TRUE(contains(Impact.MemberNames, "t0_fresh"));
  EXPECT_FALSE(contains(Impact.MemberNames, "t0_m0"));
  EXPECT_FALSE(contains(Impact.MemberNames, "g0"));
  EXPECT_FALSE(contains(Impact.MemberNames, "t1_m0"));
  EXPECT_FALSE(contains(Impact.MemberNames, "t2_m0"));
  // Down-closure of T0 = tree 0 only: 1 root + 2 + 4 children.
  EXPECT_EQ(Impact.ImpactedClasses, 7u);
}

TEST(ImpactSetTest, RemoveClassForcesFullRebuild) {
  // RemoveClass compacts class ids, so every shared column would be
  // misaligned; the impact set must demand a from-scratch build.
  Workload W = makeModularForest(2, 2, 1, 2, 1);
  std::vector<Transaction::Op> Ops;
  Ops.push_back(Transaction::Op{Transaction::OpKind::RemoveClass, "T1_0", "",
                                "", InheritanceKind::NonVirtual,
                                AccessSpec::Public, false, false});
  Hierarchy New = applyOps(W.H, Ops);

  ImpactSet Impact = computeImpactSet(W.H, New, Ops);
  EXPECT_TRUE(Impact.FullRebuild);
}

TEST(ImpactSetTest, RemovedMemberNameComesFromTheOldClosure) {
  // Removing T0's only declaration of t0_m1 makes the name invisible in
  // the new hierarchy; the old-side closure (and the conservative
  // per-op spelling) must still put it in the impact set, or its stale
  // column would be shared.
  Workload W = makeModularForest(2, 2, 1, 4, 1);
  std::vector<Transaction::Op> Ops;
  Ops.push_back(Transaction::Op{Transaction::OpKind::RemoveMember, "T0", "",
                                "t0_m1", InheritanceKind::NonVirtual,
                                AccessSpec::Public, false, false});
  Hierarchy New = applyOps(W.H, Ops);

  ImpactSet Impact = computeImpactSet(W.H, New, Ops);
  EXPECT_FALSE(Impact.FullRebuild);
  EXPECT_TRUE(contains(Impact.MemberNames, "t0_m1"));
  EXPECT_FALSE(contains(Impact.MemberNames, "t1_m0"));
}

/// Top{t} <- Mid{m} <- Leaf{l}, SideBase{sb} <- Side{s}, and Other{o}
/// on its own: every name is declared once, so an impact set names
/// exactly the columns it must.
Hierarchy makeImpactFixture() {
  HierarchyBuilder B;
  B.addClass("Top").withMember("t");
  B.addClass("Mid").withBase("Top").withMember("m");
  B.addClass("Leaf").withBase("Mid").withMember("l");
  B.addClass("SideBase").withMember("sb");
  B.addClass("Side").withBase("SideBase").withMember("s");
  B.addClass("Other").withMember("o");
  return std::move(B).build();
}

Transaction::Op edgeOp(Transaction::OpKind Kind, std::string Class,
                       std::string Target, std::string Member = "") {
  return Transaction::Op{Kind,
                         std::move(Class),
                         std::move(Target),
                         std::move(Member),
                         InheritanceKind::NonVirtual,
                         AccessSpec::Public,
                         false,
                         false};
}

/// The impact set's names, sorted, for exact comparison.
std::vector<std::string>
impactedNames(const Hierarchy &Old, const std::vector<Transaction::Op> &Ops) {
  Hierarchy New = applyOps(Old, Ops);
  ImpactSet Impact = computeImpactSet(Old, New, Ops);
  EXPECT_FALSE(Impact.FullRebuild);
  std::sort(Impact.MemberNames.begin(), Impact.MemberNames.end());
  return Impact.MemberNames;
}

using Names = std::vector<std::string>;

TEST(ImpactSetTest, AddBaseNamesWhatIsDeclaredAtOrAboveTheNewBase) {
  // Leaf gains Side: only the names Side makes visible can change.
  using K = Transaction::OpKind;
  Hierarchy H = makeImpactFixture();
  EXPECT_EQ(impactedNames(H, {edgeOp(K::AddBase, "Leaf", "Side")}),
            (Names{"s", "sb"}));
  // A fresh leaf under Mid sees Mid's and Top's names, nothing else.
  EXPECT_EQ(impactedNames(H, {edgeOp(K::AddClass, "Fresh", ""),
                              edgeOp(K::AddBase, "Fresh", "Mid")}),
            (Names{"m", "t"}));
  // The base exists only in the new epoch: its names come from the new
  // side, where it already derives from Side.
  EXPECT_EQ(impactedNames(H, {edgeOp(K::AddClass, "NewB", ""),
                              edgeOp(K::AddMember, "NewB", "", "nb"),
                              edgeOp(K::AddBase, "NewB", "Side"),
                              edgeOp(K::AddBase, "Other", "NewB")}),
            (Names{"nb", "s", "sb"}));
}

TEST(ImpactSetTest, RemoveBaseNamesWhatWasDeclaredAtOrAboveTheOldBase) {
  using K = Transaction::OpKind;
  Hierarchy H = makeImpactFixture();
  EXPECT_EQ(impactedNames(H, {edgeOp(K::RemoveBase, "Mid", "Top")}),
            (Names{"t"}));
  EXPECT_EQ(impactedNames(H, {edgeOp(K::RemoveBase, "Leaf", "Mid")}),
            (Names{"m", "t"}));
  // Cutting Side off SideBase first leaves the old side's sb named.
  EXPECT_EQ(impactedNames(H, {edgeOp(K::RemoveBase, "Side", "SideBase"),
                              edgeOp(K::AddBase, "Leaf", "Side")}),
            (Names{"s", "sb"}));
}

TEST(ImpactSetTest, UsingDeclarationNamesOnlyItsMember) {
  using K = Transaction::OpKind;
  Hierarchy H = makeImpactFixture();
  EXPECT_EQ(impactedNames(H, {edgeOp(K::AddUsing, "Leaf", "Top", "t")}),
            (Names{"t"}));
  EXPECT_EQ(impactedNames(H, {edgeOp(K::AddClass, "Lone", "")}), Names{});
}

TEST(RewarmTest, SharesUnaffectedColumnsAndMatchesScratch) {
  Workload W = makeModularForest(12, 2, 2, 4, 2);
  std::shared_ptr<const LookupTable> Old = LookupTable::build(W.H);
  ASSERT_NE(Old, nullptr);

  std::vector<Transaction::Op> Ops;
  Ops.push_back(Transaction::Op{Transaction::OpKind::AddMember, "T0", "",
                                "t0_fresh", InheritanceKind::NonVirtual,
                                AccessSpec::Public, false, true});
  Hierarchy New = applyOps(W.H, Ops);
  ImpactSet Impact = computeImpactSet(W.H, New, Ops);
  ASSERT_FALSE(Impact.FullRebuild);

  std::shared_ptr<const LookupTable> Rewarmed =
      LookupTable::rewarm(New, W.H, *Old, Impact.MemberNames);
  ASSERT_NE(Rewarmed, nullptr);

  // Entry-for-entry identical to a from-scratch serial build.
  std::shared_ptr<const LookupTable> Scratch =
      LookupTable::build(New, Deadline::never(), /*Threads=*/1);
  ASSERT_NE(Scratch, nullptr);
  EXPECT_EQ(renderTable(New, *Rewarmed), renderTable(New, *Scratch));

  // The other eleven trees' columns rode along untouched: the edit
  // re-tabulated only tree 0's names, the globals, and the new name.
  const LookupTable::BuildStats &Stats = Rewarmed->buildStats();
  EXPECT_EQ(Stats.ColumnsBuilt, Impact.MemberNames.size());
  EXPECT_EQ(Stats.ColumnsBuilt + Stats.ColumnsShared,
            New.allMemberNames().size());
  EXPECT_GT(Stats.ColumnsShared, Stats.ColumnsBuilt);
  // The <20% re-tabulation bar the bench harness enforces, in-tree.
  EXPECT_LT(Stats.ColumnsBuilt * 5, New.allMemberNames().size());
}

TEST(RewarmTest, NewClassReadsNotFoundOffSharedShortColumns) {
  // Adding a class leaves every pre-existing column one row short for
  // the new id. Sharing is still sound because any name *visible* from
  // the new class is impacted by construction; for unimpacted names the
  // right answer is NotFound, which find() synthesizes for row indices
  // beyond a shared column's span.
  Workload W = makeModularForest(3, 2, 2, 4, 2);
  std::shared_ptr<const LookupTable> Old = LookupTable::build(W.H);
  ASSERT_NE(Old, nullptr);

  std::vector<Transaction::Op> Ops;
  Ops.push_back(Transaction::Op{Transaction::OpKind::AddClass, "Fresh", "",
                                "", InheritanceKind::NonVirtual,
                                AccessSpec::Public, false, false});
  Ops.push_back(Transaction::Op{Transaction::OpKind::AddBase, "Fresh", "T1",
                                "", InheritanceKind::NonVirtual,
                                AccessSpec::Public, false, false});
  Hierarchy New = applyOps(W.H, Ops);
  ImpactSet Impact = computeImpactSet(W.H, New, Ops);
  ASSERT_FALSE(Impact.FullRebuild);

  std::shared_ptr<const LookupTable> Rewarmed =
      LookupTable::rewarm(New, W.H, *Old, Impact.MemberNames);
  ASSERT_NE(Rewarmed, nullptr);
  std::shared_ptr<const LookupTable> Scratch = LookupTable::build(New);
  ASSERT_NE(Scratch, nullptr);

  // Tree 0's names are invisible from Fresh (it derives from T1), so
  // their columns were shared - and must answer NotFound for Fresh,
  // exactly as the scratch table does. Tree 1's names are visible from
  // Fresh and so were re-tabulated.
  ClassId Fresh = New.findClass("Fresh");
  ASSERT_TRUE(Fresh.isValid());
  ASSERT_EQ(Fresh.index(), W.H.numClasses());
  EXPECT_FALSE(contains(Impact.MemberNames, "t0_m0"));
  EXPECT_TRUE(contains(Impact.MemberNames, "t1_m0"));
  EXPECT_EQ(renderTable(New, *Rewarmed), renderTable(New, *Scratch));
  EXPECT_EQ(Rewarmed->find(New, Fresh, New.findName("t0_m0")).Status,
            LookupStatus::NotFound);
}

TEST(RewarmTest, DedupNeverMutatesSharedColumnsInPlace) {
  // PR 3's sharing invariant under dedup: a rewarm may alias the old
  // epoch's columns (cross-epoch sharing) and unify byte-identical ones
  // (structural dedup), but must never write through either. Render the
  // old table before and after the rewarm - any in-place mutation of a
  // shared or deduped column would change the old epoch's answers.
  Workload W = makeModularForest(6, 2, 2, 4, 2);
  std::shared_ptr<const LookupTable> Old = LookupTable::build(W.H);
  ASSERT_NE(Old, nullptr);
  std::vector<std::string> OldAnswersBefore = renderTable(W.H, *Old);

  std::vector<Transaction::Op> Ops;
  Ops.push_back(Transaction::Op{Transaction::OpKind::AddMember, "T1", "",
                                "t1_fresh", InheritanceKind::NonVirtual,
                                AccessSpec::Public, false, true});
  Hierarchy New = applyOps(W.H, Ops);
  ImpactSet Impact = computeImpactSet(W.H, New, Ops);
  ASSERT_FALSE(Impact.FullRebuild);

  std::shared_ptr<const LookupTable> Rewarmed =
      LookupTable::rewarm(New, W.H, *Old, Impact.MemberNames);
  ASSERT_NE(Rewarmed, nullptr);

  EXPECT_EQ(renderTable(W.H, *Old), OldAnswersBefore)
      << "rewarm mutated a column shared with the predecessor epoch";
  std::shared_ptr<const LookupTable> Scratch =
      LookupTable::build(New, Deadline::never(), /*Threads=*/1);
  ASSERT_NE(Scratch, nullptr);
  EXPECT_EQ(renderTable(New, *Rewarmed), renderTable(New, *Scratch));

  // ColumnsBuilt/ColumnsShared keep their PR 3 meanings; dedup is the
  // separate pointer-unification counter.
  const LookupTable::BuildStats &Stats = Rewarmed->buildStats();
  EXPECT_EQ(Stats.ColumnsBuilt + Stats.ColumnsShared,
            New.allMemberNames().size());
  EXPECT_EQ(Stats.ColumnsDeduped, Scratch->buildStats().ColumnsDeduped);
}

TEST(RewarmTest, DedupSavesBytesWhenColumnsCoincide) {
  // Two member names declared identically on the same class produce
  // byte-identical columns; the table must store them once and report
  // both the dedup hit and the byte saving.
  HierarchyBuilder B;
  B.addClass("Base").withMember("alpha").withMember("beta");
  B.addClass("Mid").withVirtualBase("Base");
  B.addClass("Leaf").withBase("Mid").withVirtualBase("Base");
  Hierarchy H = std::move(B).build();

  std::shared_ptr<const LookupTable> Table = LookupTable::build(H);
  ASSERT_NE(Table, nullptr);
  EXPECT_GE(Table->buildStats().ColumnsDeduped, 1u);

  // Both names still answer independently and correctly.
  DominanceLookupEngine Engine(H);
  for (const char *Member : {"alpha", "beta"})
    for (const char *Class : {"Base", "Mid", "Leaf"}) {
      ClassId C = H.findClass(Class);
      EXPECT_EQ(renderLookupForComparison(H,
                                          Table->find(H, C, H.findName(Member))),
                renderLookupForComparison(H, Engine.lookup(C, H.findName(Member))))
          << Class << "::" << Member;
    }
}

TEST(ServiceTest, CommitRewarmsIncrementallyAndCountsIt) {
  Workload W = makeModularForest(4, 2, 2, 4, 2);
  ServiceOptions Opts;
  Opts.WarmThreads = 2;
  LookupService Svc(std::move(W.H), Opts);

  Transaction Txn = Svc.beginTxn();
  Txn.addMember("T2", "t2_fresh");
  ASSERT_TRUE(Svc.commit(Txn).isOk());

  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.Commits, 1u);
  EXPECT_EQ(Stats.IncrementalRewarms, 1u);
  EXPECT_GT(Stats.ColumnsShared, 0u);
  EXPECT_GT(Stats.ColumnsRetabulated, 0u);
  std::shared_ptr<const Snapshot> Snap = Svc.snapshot();
  EXPECT_TRUE(Snap->warm());

  // The rewarmed epoch serves the new member from the tabulated rung
  // and survives a full self-audit.
  QueryAnswer A = Svc.query("T2_0_0", "t2_fresh");
  EXPECT_EQ(A.Result.Status, LookupStatus::Unambiguous);
  EXPECT_TRUE(Svc.auditNow().passed());

  // A class-removing commit falls back to a full (non-incremental)
  // build and stays warm.
  Transaction Txn2 = Svc.beginTxn();
  Txn2.removeClass("T3_1_1");
  ASSERT_TRUE(Svc.commit(Txn2).isOk());
  Stats = Svc.stats();
  EXPECT_EQ(Stats.Commits, 2u);
  EXPECT_EQ(Stats.IncrementalRewarms, 1u);
  EXPECT_TRUE(Svc.snapshot()->warm());
  EXPECT_TRUE(Svc.auditNow().passed());
}

TEST(EditScriptCampaignTest, FiveHundredScriptsRewarmIdenticallyToScratch) {
  // The harness's oracle 3 rebuilds the table from scratch (serial,
  // single-threaded) after every successful commit and compares it
  // entry-for-entry against the incrementally rewarmed one; the case
  // seed also varies WarmThreads, so this campaign is the
  // "incremental + parallel == serial from-scratch" acceptance check.
  EditScriptCampaignReport Report = runEditScriptCampaign(2000, 130);
  for (const EditScriptCaseResult &Failure : Report.Failures) {
    ADD_FAILURE() << "seed " << Failure.Seed << ": "
                  << Failure.Mismatches.front();
  }
  EXPECT_TRUE(Report.passed());
  EXPECT_GE(Report.TxnsCommitted + Report.TxnsRejected, 500u)
      << "campaign too small to count as 500 edit scripts";
  EXPECT_GT(Report.PairsChecked, 0u);
}

} // namespace
