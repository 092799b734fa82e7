//===- EditScriptFuzz.cpp - Transaction fuzzing ------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/service/EditScriptFuzz.h"

#include "memlook/core/DifferentialCheck.h"
#include "memlook/service/LookupService.h"
#include "memlook/support/Rng.h"
#include "memlook/workload/Generators.h"

#include <map>
#include <set>

using namespace memlook;
using namespace memlook::service;

namespace {

/// Member-name pool shared with the random-hierarchy generator's
/// defaults ("m0".."m5") plus a few never-declared names so removals and
/// queries also exercise the not-found paths.
std::string poolMember(Rng &R) { return "m" + std::to_string(R.nextBelow(8)); }

/// A random class name: usually one that exists, sometimes garbage.
std::string pickClassName(Rng &R, const Hierarchy &H) {
  if (H.numClasses() != 0 && R.nextChance(7, 8)) {
    ClassId Id(static_cast<uint32_t>(R.nextBelow(H.numClasses())));
    return std::string(H.className(Id));
  }
  return "Ghost" + std::to_string(R.nextBelow(4));
}

/// Records 1-3 ops that are valid by construction: fresh class names,
/// fresh member names on existing classes, and forward edges from an
/// existing class to the new one. Keeps the committed half of the
/// campaign growing instead of stalling on rejections.
void recordValidOps(Rng &R, const Hierarchy &H, uint64_t CaseTag,
                    uint64_t TxnIdx, Transaction &Txn) {
  std::string Fresh = "Fuzz" + std::to_string(CaseTag) + "_" +
                      std::to_string(TxnIdx);
  Txn.addClass(Fresh);
  if (H.numClasses() != 0) {
    ClassId BaseId(static_cast<uint32_t>(R.nextBelow(H.numClasses())));
    Txn.addBase(Fresh, std::string(H.className(BaseId)),
                R.nextChance(1, 3) ? InheritanceKind::Virtual
                                   : InheritanceKind::NonVirtual);
  }
  Txn.addMember(Fresh, poolMember(R), /*IsStatic=*/R.nextChance(1, 6),
                /*IsVirtual=*/R.nextChance(1, 4));
}

/// Records 1-6 random ops - valid and invalid alike - into \p Txn.
void recordRandomOps(Rng &R, const Hierarchy &H, uint64_t CaseTag,
                     Transaction &Txn) {
  uint64_t NumOps = R.nextInRange(1, 6);
  for (uint64_t Idx = 0; Idx != NumOps; ++Idx) {
    switch (R.nextBelow(8)) {
    case 0:
      // Fresh name most of the time; occasionally a duplicate.
      Txn.addClass(R.nextChance(1, 6)
                       ? pickClassName(R, H)
                       : "Fuzz" + std::to_string(CaseTag) + "_" +
                             std::to_string(R.nextBelow(64)));
      break;
    case 1:
      Txn.removeClass(pickClassName(R, H));
      break;
    case 2: {
      // Random direction, so some of these propose back-edges that can
      // only be caught by the cycle validation at commit.
      InheritanceKind Kind = R.nextChance(1, 3) ? InheritanceKind::Virtual
                                                : InheritanceKind::NonVirtual;
      Txn.addBase(pickClassName(R, H), pickClassName(R, H), Kind);
      break;
    }
    case 3:
      Txn.removeBase(pickClassName(R, H), pickClassName(R, H));
      break;
    case 4:
      Txn.addMember(pickClassName(R, H), poolMember(R),
                    /*IsStatic=*/R.nextChance(1, 6),
                    /*IsVirtual=*/R.nextChance(1, 4));
      break;
    case 5:
      Txn.removeMember(pickClassName(R, H), poolMember(R));
      break;
    case 6:
      Txn.addUsing(pickClassName(R, H), pickClassName(R, H), poolMember(R));
      break;
    default:
      // A second member edit, biased valid: grows hierarchies over the
      // case instead of stalling on rejections.
      Txn.addMember(pickClassName(R, H),
                    "f" + std::to_string(R.nextBelow(16)));
      break;
    }
  }
}

/// Every (class, member-pool) answer of \p Snap, rendered with the
/// differential comparison key - the "bit-identical answers" the
/// rollback oracle compares.
std::map<std::string, std::string> renderAllAnswers(const LookupService &Svc,
                                                    const Snapshot &Snap) {
  std::map<std::string, std::string> Out;
  const Hierarchy &H = *Snap.H;
  for (uint32_t Idx = 0; Idx != H.numClasses(); ++Idx) {
    ClassId C(Idx);
    for (Symbol Member : H.allMemberNames()) {
      QueryAnswer A = Svc.queryOn(Snap, H.className(C), H.spelling(Member));
      Out[std::string(H.className(C)) + "::" +
          std::string(H.spelling(Member))] =
          renderLookupForComparison(H, A.Result);
    }
  }
  return Out;
}

} // namespace

EditScriptCaseResult
memlook::service::runEditScriptCase(uint64_t Seed,
                                    const ResourceBudget &Budget) {
  EditScriptCaseResult Result;
  Result.Seed = Seed;

  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 0xed17);

  RandomHierarchyParams Params;
  Params.NumClasses = static_cast<uint32_t>(R.nextInRange(4, 20));
  Params.MemberPool = 6;
  Params.UsingChance = 0.1;
  Workload W = makeRandomHierarchy(Params, R.next());

  ServiceOptions Opts;
  Opts.Budget = Budget;
  Opts.AuditSampleLimit = 64;
  // Commits go down the incremental-rewarm path (the default), and the
  // pool size rotates with the seed so the campaign covers serial,
  // small-parallel, and auto-sized builds alike.
  Opts.WarmThreads = static_cast<uint32_t>(Seed % 5); // 0 = auto
  LookupService Svc(std::move(W.H), Opts);

  uint64_t NumTxns = R.nextInRange(3, 8);
  for (uint64_t TxnIdx = 0; TxnIdx != NumTxns; ++TxnIdx) {
    ++Result.TxnsAttempted;

    std::shared_ptr<const Snapshot> Before = Svc.snapshot();
    std::map<std::string, std::string> AnswersBefore =
        renderAllAnswers(Svc, *Before);

    Transaction Txn = Svc.beginTxn();
    if (TxnIdx % 2 == 0)
      recordValidOps(R, *Before->H, Seed & 0xffff, TxnIdx, Txn);
    else
      recordRandomOps(R, *Before->H, Seed & 0xffff, Txn);

    Status S = Svc.commit(Txn);
    if (S.isOk()) {
      ++Result.TxnsCommitted;
      // Oracle 1: the new epoch must pass the full self-audit (engines
      // against each other, cached table against a fresh engine).
      AuditReport Audit = Svc.auditNow();
      Result.PairsChecked += Audit.PairsSampled + Audit.EnginePairsChecked;
      Result.PairsSkipped += Audit.PairsSkipped;
      for (const std::string &M : Audit.Mismatches)
        Result.Mismatches.push_back("txn " + std::to_string(TxnIdx) +
                                    " post-commit " + M);
      // A committed transaction must move the epoch by exactly one.
      if (Svc.snapshot()->Epoch != Before->Epoch + 1)
        Result.Mismatches.push_back(
            "txn " + std::to_string(TxnIdx) +
            ": commit succeeded but epoch did not advance by one");
      // Oracle 3: the published table - usually an incremental rewarm
      // sharing columns with the predecessor epoch, built in parallel -
      // must be entry-for-entry identical to a serial from-scratch
      // build over the same hierarchy, and every column the commit
      // tabulated (a rewarm copies the clean rows forward) byte-identical
      // to the scratch build's. Columns aliased from the predecessor are
      // only value-equal: an edit can reorder the rows their pools
      // were laid down in.
      std::shared_ptr<const Snapshot> Now = Svc.snapshot();
      if (Now->Table) {
        auto Scratch =
            LookupTable::build(*Now->H, Deadline::never(), /*Threads=*/1);
        const Hierarchy &NH = *Now->H;
        std::set<const LookupTable::Column *> Aliased;
        if (Before->Table)
          for (const auto &Col : Before->Table->columns())
            Aliased.insert(Col.get());
        for (size_t Col = 0; Col != NH.allMemberNames().size(); ++Col) {
          const LookupTable::Column &Got = *Now->Table->columns()[Col];
          const LookupTable::Column &Want = *Scratch->columns()[Col];
          ++Result.PairsChecked;
          if (Aliased.count(&Got) == 0 &&
              (!(Got.Data == Want.Data) ||
               Got.StructuralHash != Want.StructuralHash))
            Result.Mismatches.push_back(
                "txn " + std::to_string(TxnIdx) + " rewarm: column " +
                std::string(NH.spelling(NH.allMemberNames()[Col])) +
                " is not byte-identical to a from-scratch build");
        }
        for (uint32_t Idx = 0;
             Idx != NH.numClasses() && Result.Mismatches.size() < 16; ++Idx) {
          for (Symbol M : NH.allMemberNames()) {
            std::string Rewarmed = renderLookupForComparison(
                NH, Now->Table->find(NH, ClassId(Idx), M));
            std::string FromScratch = renderLookupForComparison(
                NH, Scratch->find(NH, ClassId(Idx), M));
            ++Result.PairsChecked;
            if (Rewarmed != FromScratch)
              Result.Mismatches.push_back(
                  "txn " + std::to_string(TxnIdx) + " rewarm: " +
                  std::string(NH.className(ClassId(Idx))) + "::" +
                  std::string(NH.spelling(M)) + ": rewarmed table says '" +
                  Rewarmed + "' but a from-scratch build says '" +
                  FromScratch + "'");
          }
        }
      }
    } else {
      ++Result.TxnsRejected;
      // Oracle 2: rollback restores answers. The snapshot pointer must
      // be untouched (nothing was published) and every answer
      // bit-identical.
      std::shared_ptr<const Snapshot> After = Svc.snapshot();
      if (After.get() != Before.get())
        Result.Mismatches.push_back(
            "txn " + std::to_string(TxnIdx) + " (" + S.toString() +
            "): rejected commit published a new snapshot");
      std::map<std::string, std::string> AnswersAfter =
          renderAllAnswers(Svc, *After);
      if (AnswersAfter != AnswersBefore)
        Result.Mismatches.push_back(
            "txn " + std::to_string(TxnIdx) + " (" + S.toString() +
            "): rejected commit changed lookup answers");
      Result.PairsChecked += AnswersBefore.size();
    }
  }

  // Epoch-conflict path: a transaction begun one commit ago must be
  // refused with TransactionConflict and change nothing - unless no
  // transaction ever committed, in which case it commits fine.
  Transaction Stale = Svc.beginTxn();
  Transaction Winner = Svc.beginTxn();
  Winner.addMember(pickClassName(R, *Svc.snapshot()->H), poolMember(R));
  bool WinnerCommitted = Svc.commit(Winner).isOk();
  std::shared_ptr<const Snapshot> BeforeStale = Svc.snapshot();
  Stale.addClass("StaleClass");
  Status StaleS = Svc.commit(Stale);
  ++Result.TxnsAttempted;
  if (WinnerCommitted) {
    if (StaleS.code() != ErrorCode::TransactionConflict)
      Result.Mismatches.push_back(
          "stale transaction was not refused with transaction-conflict "
          "(got " +
          StaleS.toString() + ")");
    if (Svc.snapshot().get() != BeforeStale.get())
      Result.Mismatches.push_back(
          "conflicted commit published a new snapshot");
    ++Result.TxnsRejected;
  } else if (StaleS.isOk()) {
    ++Result.TxnsCommitted;
  } else {
    ++Result.TxnsRejected;
  }

  return Result;
}

EditScriptCampaignReport
memlook::service::runEditScriptCampaign(uint64_t FirstSeed, uint64_t NumCases,
                                        const ResourceBudget &Budget) {
  EditScriptCampaignReport Report;
  for (uint64_t Idx = 0; Idx != NumCases; ++Idx) {
    EditScriptCaseResult Case = runEditScriptCase(FirstSeed + Idx, Budget);
    ++Report.CasesRun;
    Report.TxnsCommitted += Case.TxnsCommitted;
    Report.TxnsRejected += Case.TxnsRejected;
    Report.PairsChecked += Case.PairsChecked;
    Report.PairsSkipped += Case.PairsSkipped;
    if (!Case.passed())
      Report.Failures.push_back(std::move(Case));
  }
  return Report;
}
