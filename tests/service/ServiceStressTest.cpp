//===- ServiceStressTest.cpp -----------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrency contract, exercised for real: one writer thread
/// pushing over a thousand transactions (valid, invalid, and
/// deliberately stale) through a live LookupService while four reader
/// threads query under a mix of deadlines and a background audit sweeps
/// every few milliseconds. Run under the `tsan` preset this is the
/// data-race proof; under any build it checks the ladder's liveness
/// guarantee - every query is answered by *some* rung - and that the
/// self-audit never finds a mismatch on an unfaulted service.
///
/// Reader threads record into plain per-thread structs and the main
/// thread asserts after joining, so a TSan report can only ever be
/// about the service itself.
///
//===----------------------------------------------------------------------===//

#include "memlook/core/DifferentialCheck.h"
#include "memlook/service/LookupService.h"
#include "memlook/support/Rng.h"
#include "memlook/workload/Generators.h"

#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <string>
#include <thread>
#include <vector>

using namespace memlook;
using namespace memlook::service;

namespace {

/// What one reader thread saw; asserted on the main thread after join.
struct ReaderLog {
  uint64_t Queries = 0;
  uint64_t RungSeen[3] = {0, 0, 0};
  uint64_t OkAnswers = 0;
  uint64_t UnknownContexts = 0;
  /// Pinned-snapshot repeat queries whose exact rungs disagreed.
  uint64_t RepeatDivergences = 0;
  /// Answers whose rung was outside the ladder (should be impossible).
  uint64_t BadRungs = 0;
};

std::string queryClassName(Rng &R, uint64_t WriterTxns) {
  switch (R.nextBelow(4)) {
  case 0: // a seed class, always present
    return "K" + std::to_string(R.nextBelow(12));
  case 1: // a writer-added class that may or may not exist yet
    return "W" + std::to_string(R.nextBelow(WriterTxns + 1));
  case 2: // never a class
    return "Ghost" + std::to_string(R.nextBelow(3));
  default:
    return "K" + std::to_string(R.nextBelow(24));
  }
}

void readerMain(const LookupService &Svc, const std::atomic<bool> &Done,
                uint64_t Seed, uint64_t NumWriterTxns, ReaderLog &Log) {
  Rng R(Seed);
  std::atomic<bool> Cancelled{true};
  uint64_t Iter = 0;
  // At least 512 queries even if the writer finishes instantly, capped
  // so a stalled writer cannot spin a reader forever.
  while ((Iter < 512 || !Done.load(std::memory_order_acquire)) &&
         Iter < 200000) {
    ++Iter;
    std::string Class = queryClassName(R, NumWriterTxns);
    std::string Member = "m" + std::to_string(R.nextBelow(8));

    QueryAnswer A;
    switch (Iter % 4) {
    case 0: { // already-cancelled deadline: floor rung on cold epochs
      Deadline D = Deadline::never();
      D.withCancelFlag(&Cancelled);
      A = Svc.query(Class, Member, D);
      break;
    }
    case 1: // tight wall-clock deadline
      A = Svc.query(Class, Member, Deadline::afterMillis(5));
      break;
    case 2: { // pinned snapshot, exact-deadline-free query twice: the
              // exact rungs (table, per-query engine) must agree
      std::shared_ptr<const Snapshot> Snap = Svc.snapshot();
      A = Svc.queryOn(*Snap, Class, Member);
      QueryAnswer B = Svc.queryOn(*Snap, Class, Member);
      if (!A.Approximate && !B.Approximate &&
          renderLookupForComparison(*Snap->H, A.Result) !=
              renderLookupForComparison(*Snap->H, B.Result))
        ++Log.RepeatDivergences;
      break;
    }
    default:
      A = Svc.query(Class, Member);
      break;
    }

    ++Log.Queries;
    if (A.Rung > AnswerRung::GxxApproximate) {
      ++Log.BadRungs;
      continue;
    }
    ++Log.RungSeen[static_cast<uint8_t>(A.Rung)];
    if (A.S.isOk())
      ++Log.OkAnswers;
    else if (A.S.code() == ErrorCode::UnknownClass)
      ++Log.UnknownContexts;
  }
}

} // namespace

TEST(ServiceStressTest, ReadersWritersAndAuditShareOneService) {
  RandomHierarchyParams Params;
  Params.NumClasses = 16;
  Params.MemberPool = 6;
  Params.UsingChance = 0.1;
  Workload W = makeRandomHierarchy(Params, /*Seed=*/20260805);

  ServiceOptions Opts;
  // Cold-by-default epochs keep the per-query rung in play; the writer
  // warms periodically so the tabulated rung is exercised too.
  Opts.WarmOnCommit = false;
  // The table audit stays on every pass; the O(table) engine-vs-engine
  // sweep is covered by single-threaded tests and would make a 10ms
  // audit cadence dominate a TSan run.
  Opts.AuditEngineCheck = false;
  Opts.AuditSampleLimit = 64;
  LookupService Svc(std::move(W.H), Opts);

  constexpr uint64_t NumWriterTxns = 1100;
  constexpr int NumReaders = 4;

  Svc.startBackgroundAudit(/*IntervalMillis=*/10);

  std::atomic<bool> Done{false};
  std::vector<ReaderLog> Logs(NumReaders);
  std::vector<std::thread> Readers;
  for (int Idx = 0; Idx != NumReaders; ++Idx)
    Readers.emplace_back(readerMain, std::cref(Svc), std::cref(Done),
                         /*Seed=*/0xbeef + Idx, NumWriterTxns,
                         std::ref(Logs[Idx]));

  // The writer: NumWriterTxns transactions in three interleaved
  // flavors - valid growth, validation rejects, and epoch-race
  // conflicts - with a periodic warmCurrent() so readers see warm and
  // cold epochs alike.
  uint64_t ValidFailures = 0, RejectAnomalies = 0, ConflictAnomalies = 0;
  {
    Rng R(0x57e55);
    uint64_t TxnCount = 0;
    for (uint64_t I = 0; TxnCount < NumWriterTxns; ++I) {
      switch (I % 3) {
      case 0: { // valid: a fresh class joined under an existing one,
                // or a fresh member on an existing class
        std::shared_ptr<const Snapshot> Snap = Svc.snapshot();
        Transaction Txn = Svc.beginTxn();
        if (I % 12 == 0) {
          std::string Fresh = "W" + std::to_string(I);
          ClassId Under(
              static_cast<uint32_t>(R.nextBelow(Snap->H->numClasses())));
          Txn.addClass(Fresh)
              .addBase(Fresh, std::string(Snap->H->className(Under)),
                       R.nextChance(1, 3) ? InheritanceKind::Virtual
                                          : InheritanceKind::NonVirtual)
              .addMember(Fresh, "m" + std::to_string(R.nextBelow(6)));
        } else {
          ClassId Onto(
              static_cast<uint32_t>(R.nextBelow(Snap->H->numClasses())));
          Txn.addMember(std::string(Snap->H->className(Onto)),
                        "s" + std::to_string(I));
        }
        if (!Svc.commit(Txn).isOk())
          ++ValidFailures;
        ++TxnCount;
        break;
      }
      case 1: { // invalid: must reject and roll back
        Transaction Txn = Svc.beginTxn();
        Txn.addMember("NoSuchClassEver", "m0");
        if (Svc.commit(Txn).code() != ErrorCode::UnknownClass)
          ++RejectAnomalies;
        ++TxnCount;
        break;
      }
      default: { // stale: a second writer-side txn loses the epoch race
        Transaction Stale = Svc.beginTxn();
        Transaction Winner = Svc.beginTxn();
        Winner.addMember("K" + std::to_string(R.nextBelow(4)),
                         "w" + std::to_string(I));
        bool WinnerOk = Svc.commit(Winner).isOk();
        Stale.addClass("Stale" + std::to_string(I));
        Status S = Svc.commit(Stale);
        if (WinnerOk && S.code() != ErrorCode::TransactionConflict)
          ++ConflictAnomalies;
        TxnCount += 2;
        break;
      }
      }
      if (I % 25 == 0)
        (void)Svc.warmCurrent();
    }
  }
  Done.store(true, std::memory_order_release);

  for (std::thread &T : Readers)
    T.join();
  Svc.stopBackgroundAudit();

  // Writer-side sanity.
  EXPECT_EQ(ValidFailures, 0u);
  EXPECT_EQ(RejectAnomalies, 0u);
  EXPECT_EQ(ConflictAnomalies, 0u);

  // Reader-side: every query was answered by a ladder rung, exactly.
  uint64_t ReaderQueries = 0;
  for (const ReaderLog &Log : Logs) {
    EXPECT_GE(Log.Queries, 512u);
    EXPECT_EQ(Log.BadRungs, 0u);
    EXPECT_EQ(Log.RepeatDivergences, 0u);
    EXPECT_EQ(Log.Queries,
              Log.RungSeen[0] + Log.RungSeen[1] + Log.RungSeen[2]);
    EXPECT_EQ(Log.Queries, Log.OkAnswers + Log.UnknownContexts);
    ReaderQueries += Log.Queries;
  }

  // Service-side totals line up with what the threads observed.
  ServiceStats Stats = Svc.stats();
  EXPECT_GE(Stats.Queries, ReaderQueries);
  EXPECT_EQ(Stats.Queries,
            Stats.RungAnswers[0] + Stats.RungAnswers[1] +
                Stats.RungAnswers[2]);
  EXPECT_GE(Stats.Commits, NumWriterTxns / 3);
  EXPECT_GE(Stats.CommitRejects, NumWriterTxns / 5);
  EXPECT_GE(Stats.CommitConflicts, NumWriterTxns / 5);
  EXPECT_GE(Stats.Audits, 1u);

  // No faults were injected, so the audit must never have disagreed.
  EXPECT_EQ(Stats.AuditMismatches, 0u);
  EXPECT_EQ(Stats.Quarantines, 0u);

  // Deterministic rung coverage, now that the threads are quiet: warm
  // epoch -> tabulated; fresh cold commit -> per-query engine; cold +
  // cancelled deadline -> approximate floor.
  ASSERT_TRUE(Svc.warmCurrent().isOk());
  EXPECT_EQ(Svc.query("K0", "m0").Rung, AnswerRung::Tabulated);

  Transaction Cooling = Svc.beginTxn();
  Cooling.addClass("FinalCold");
  ASSERT_TRUE(Svc.commit(Cooling).isOk());
  EXPECT_EQ(Svc.query("K0", "m0").Rung, AnswerRung::Figure8PerQuery);

  std::atomic<bool> Cancelled{true};
  Deadline D = Deadline::never();
  D.withCancelFlag(&Cancelled);
  QueryAnswer Floor = Svc.query("K0", "m0", D);
  EXPECT_EQ(Floor.Rung, AnswerRung::GxxApproximate);
  EXPECT_TRUE(Floor.Approximate);
  EXPECT_TRUE(Floor.DeadlineExpired);

  AuditReport Final = Svc.auditNow();
  EXPECT_TRUE(Final.passed()) << Final.toString();
}

//===----------------------------------------------------------------------===//
// Parallel warm builds racing readers
//===----------------------------------------------------------------------===//

namespace {

/// A reader that hammers *real* class and member names, so the racing
/// queries actually read table columns (including columns structurally
/// shared across epochs by the incremental rewarm) rather than
/// short-circuiting on unknown contexts.
void tableReaderMain(const LookupService &Svc, const std::atomic<bool> &Done,
                     uint64_t Seed, const std::vector<std::string> &Classes,
                     const std::vector<std::string> &Members, ReaderLog &Log) {
  Rng R(Seed);
  uint64_t Iter = 0;
  while ((Iter < 512 || !Done.load(std::memory_order_acquire)) &&
         Iter < 200000) {
    ++Iter;
    const std::string &Class = Classes[R.nextBelow(Classes.size())];
    const std::string &Member = Members[R.nextBelow(Members.size())];

    QueryAnswer A;
    if (Iter % 3 == 0) {
      // Pinned snapshot queried twice: the answer must be stable even
      // while the writer publishes rewarmed tables that alias this
      // snapshot's columns.
      std::shared_ptr<const Snapshot> Snap = Svc.snapshot();
      A = Svc.queryOn(*Snap, Class, Member);
      QueryAnswer B = Svc.queryOn(*Snap, Class, Member);
      if (!A.Approximate && !B.Approximate &&
          renderLookupForComparison(*Snap->H, A.Result) !=
              renderLookupForComparison(*Snap->H, B.Result))
        ++Log.RepeatDivergences;
    } else {
      A = Svc.query(Class, Member);
    }

    ++Log.Queries;
    if (A.Rung > AnswerRung::GxxApproximate) {
      ++Log.BadRungs;
      continue;
    }
    ++Log.RungSeen[static_cast<uint8_t>(A.Rung)];
    if (A.S.isOk())
      ++Log.OkAnswers;
    else if (A.S.code() == ErrorCode::UnknownClass)
      ++Log.UnknownContexts;
  }
}

} // namespace

TEST(ServiceStressTest, ParallelRewarmCommitsRaceReaders) {
  // Every commit warms synchronously with a 4-thread parallel build or
  // incremental rewarm, while readers query the previous epochs' tables
  // - whose columns the rewarms are concurrently aliasing into new
  // tables. Under the tsan preset this is the data-race proof for
  // ParallelTabulator and the column-sharing rewarm path.
  Workload W = makeModularForest(6, 2, 3, 4, 2);

  std::vector<std::string> Classes;
  for (uint32_t Idx = 0; Idx != W.H.numClasses(); ++Idx)
    Classes.emplace_back(W.H.className(ClassId(Idx)));
  Classes.push_back("GhostClass"); // unknown contexts stay covered
  std::vector<std::string> Members;
  for (Symbol M : W.H.allMemberNames())
    Members.emplace_back(W.H.spelling(M));
  Members.push_back("ghost_member");

  ServiceOptions Opts;
  Opts.WarmOnCommit = true;
  Opts.WarmThreads = 4;
  Opts.AuditEngineCheck = false;
  Opts.AuditSampleLimit = 64;
  LookupService Svc(std::move(W.H), Opts);

  Svc.startBackgroundAudit(/*IntervalMillis=*/10);

  constexpr int NumReaders = 3;
  std::atomic<bool> Done{false};
  std::vector<ReaderLog> Logs(NumReaders);
  std::vector<std::thread> Readers;
  for (int Idx = 0; Idx != NumReaders; ++Idx)
    Readers.emplace_back(tableReaderMain, std::cref(Svc), std::cref(Done),
                         /*Seed=*/0xfeed + Idx, std::cref(Classes),
                         std::cref(Members), std::ref(Logs[Idx]));

  // The writer: module-local edits (one tree's names re-tabulated, the
  // other trees' columns shared), fresh classes under existing roots,
  // and the occasional member removal - all warmed in-commit.
  uint64_t ValidFailures = 0;
  {
    Rng R(0x9a11e1);
    for (uint64_t I = 0; I != 60; ++I) {
      Transaction Txn = Svc.beginTxn();
      std::string Root = "T" + std::to_string(R.nextBelow(6));
      switch (I % 4) {
      case 0:
        Txn.addMember(Root, "fresh" + std::to_string(I), /*IsStatic=*/false,
                      /*IsVirtual=*/R.nextChance(1, 2));
        break;
      case 1: {
        std::string Fresh = "P" + std::to_string(I);
        Txn.addClass(Fresh).addBase(Fresh, Root,
                                    R.nextChance(1, 3)
                                        ? InheritanceKind::Virtual
                                        : InheritanceKind::NonVirtual);
        break;
      }
      case 2:
        Txn.addMember(Root + "_0", "deep" + std::to_string(I));
        break;
      default: {
        // Add-then-remove in one script: a net no-op hierarchy-wise,
        // but the impact set must still carry the name (the removal
        // side is collected from the old closure) and the rewarm must
        // stay sound under the race.
        std::string Name = "blip" + std::to_string(I);
        Txn.addMember(Root, Name).removeMember(Root, Name);
        break;
      }
      }
      if (!Svc.commit(Txn).isOk())
        ++ValidFailures;
    }
  }
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();
  Svc.stopBackgroundAudit();

  EXPECT_EQ(ValidFailures, 0u);
  for (const ReaderLog &Log : Logs) {
    EXPECT_GE(Log.Queries, 512u);
    EXPECT_EQ(Log.BadRungs, 0u);
    EXPECT_EQ(Log.RepeatDivergences, 0u);
    EXPECT_EQ(Log.Queries, Log.OkAnswers + Log.UnknownContexts);
  }

  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.Commits, 60u);
  // Module-local edits rewarm incrementally; only class-removing
  // scripts (none here) may fall back.
  EXPECT_GT(Stats.IncrementalRewarms, 0u);
  EXPECT_GT(Stats.ColumnsShared, Stats.ColumnsRetabulated);
  EXPECT_EQ(Stats.AuditMismatches, 0u);
  EXPECT_EQ(Stats.Quarantines, 0u);
  EXPECT_TRUE(Svc.snapshot()->warm());

  AuditReport Final = Svc.auditNow();
  EXPECT_TRUE(Final.passed()) << Final.toString();
}

namespace {

/// Renders a fixed set of (class, member) answers straight off a pinned
/// snapshot's table - the deduped compact columns themselves, no ladder
/// in between.
std::vector<std::string> renderPinnedPairs(
    const Snapshot &Snap,
    const std::vector<std::pair<std::string, std::string>> &Pairs) {
  std::vector<std::string> Out;
  const Hierarchy &H = *Snap.H;
  for (const auto &[Class, Member] : Pairs) {
    ClassId C = H.findClass(Class);
    Symbol M = H.findName(Member);
    if (!C.isValid() || !M.isValid()) {
      Out.push_back("<absent>");
      continue;
    }
    Out.push_back(renderLookupForComparison(H, Snap.Table->find(H, C, M)));
  }
  return Out;
}

} // namespace

TEST(ServiceStressTest, DedupedColumnsStayFrozenUnderRewarmRaces) {
  // The value-immutability proof for structural dedup: readers pin a
  // warm snapshot whose table contains deduped columns (the modular
  // forest's shared names g0/g1 are declared identically on every root,
  // so their finished columns are byte-identical and unified), render a
  // fixed pair set once, then re-render in a loop - while a writer
  // commits edits whose incremental rewarms alias those very columns
  // into new epochs and re-run dedup over the mixed shared/rebuilt
  // column set. Any in-place mutation of a shared column is either a
  // render divergence here or a TSan report under the tsan preset.
  Workload W = makeModularForest(6, 2, 2, 4, 2);

  std::vector<std::pair<std::string, std::string>> Pairs;
  for (uint32_t T = 0; T != 6; ++T)
    for (const char *Member : {"g0", "g1", "t0_m0", "ghost"})
      Pairs.emplace_back("T" + std::to_string(T) + "_1_1", Member);

  ServiceOptions Opts;
  Opts.WarmOnCommit = true;
  Opts.AuditEngineCheck = false;
  Opts.AuditSampleLimit = 32;
  LookupService Svc(std::move(W.H), Opts);
  ASSERT_TRUE(Svc.snapshot()->warm());
  ASSERT_GE(Svc.snapshot()->Table->buildStats().ColumnsDeduped, 1u)
      << "the fixture must actually exercise dedup";

  constexpr int NumReaders = 3;
  std::atomic<bool> Done{false};
  std::vector<uint64_t> Divergences(NumReaders, 0);
  std::vector<std::thread> Readers;
  for (int Idx = 0; Idx != NumReaders; ++Idx)
    Readers.emplace_back([&, Idx] {
      // Pin whatever epoch is current when this reader starts; the
      // writer will rewarm past it while we keep re-reading it.
      std::shared_ptr<const Snapshot> Pinned = Svc.snapshot();
      while (!Pinned->warm())
        Pinned = Svc.snapshot();
      std::vector<std::string> First = renderPinnedPairs(*Pinned, Pairs);
      uint64_t Iter = 0;
      while ((Iter < 256 || !Done.load(std::memory_order_acquire)) &&
             Iter < 200000) {
        ++Iter;
        if (renderPinnedPairs(*Pinned, Pairs) != First)
          ++Divergences[Idx];
        // Every few rounds, also chase the newest epoch once (reading
        // the columns the rewarm just aliased) and re-pin our original.
        if (Iter % 8 == 0) {
          std::shared_ptr<const Snapshot> Now = Svc.snapshot();
          if (Now->warm())
            (void)renderPinnedPairs(*Now, Pairs);
        }
      }
    });

  uint64_t ValidFailures = 0;
  {
    Rng R(0xd0d0);
    for (uint64_t I = 0; I != 48; ++I) {
      Transaction Txn = Svc.beginTxn();
      std::string Root = "T" + std::to_string(R.nextBelow(6));
      if (I % 3 == 0) {
        // A tree-local edit: the other trees' columns - including the
        // deduped g0/g1 pair - are aliased, then deduped again.
        Txn.addMember(Root, "local" + std::to_string(I));
      } else if (I % 3 == 1) {
        std::string Fresh = "Q" + std::to_string(I);
        Txn.addClass(Fresh).addBase(Fresh, Root,
                                    R.nextChance(1, 3)
                                        ? InheritanceKind::Virtual
                                        : InheritanceKind::NonVirtual);
      } else {
        // Declare a shared name further down one tree: g0's column is
        // re-tabulated and must *stop* being deduped with g1's without
        // disturbing the pinned epochs that still unify them. The
        // (class, name) combos are unique across iterations, so every
        // one of these commits is valid.
        uint64_t K = I / 3;
        Txn.addMember("T" + std::to_string(K % 6) + "_0",
                      "g" + std::to_string(K / 6));
      }
      if (!Svc.commit(Txn).isOk())
        ++ValidFailures;
    }
  }
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();

  EXPECT_EQ(ValidFailures, 0u);
  for (int Idx = 0; Idx != NumReaders; ++Idx)
    EXPECT_EQ(Divergences[Idx], 0u)
        << "reader " << Idx
        << ": a pinned table's answers changed under rewarm+dedup";

  ServiceStats Stats = Svc.stats();
  EXPECT_GT(Stats.IncrementalRewarms, 0u);
  EXPECT_GE(Stats.ColumnsDeduped, 1u);
  EXPECT_EQ(Stats.AuditMismatches, 0u);

  AuditReport Final = Svc.auditNow();
  EXPECT_TRUE(Final.passed()) << Final.toString();
}

TEST(ServiceStressTest, DeadlineExpiryMidParallelBuildLeavesEpochCold) {
  // A 1ms warm budget on a hierarchy whose full tabulation costs far
  // more: every in-commit parallel build trips its deadline mid-flight
  // (cooperatively, at DeadlineStride granularity), the epoch publishes
  // cold, and queries degrade to the per-query rung - while readers
  // race the aborting builds. An explicit warmCurrent() with no
  // deadline then warms the final epoch fully. Tabulation computes only
  // the rows a member reaches, so the 400 names every root declares are
  // what make it long: each reaches all 1210 classes, 484,000 entries.
  Workload W = makeModularForest(10, 3, 4, 4, 400);

  std::vector<std::string> Classes;
  for (uint32_t Idx = 0; Idx != W.H.numClasses(); ++Idx)
    Classes.emplace_back(W.H.className(ClassId(Idx)));
  std::vector<std::string> Members;
  for (Symbol M : W.H.allMemberNames())
    Members.emplace_back(W.H.spelling(M));

  ServiceOptions Opts;
  Opts.WarmOnCommit = true;
  Opts.WarmThreads = 4;
  Opts.WarmBuildMillis = 1;
  Opts.AuditEngineCheck = false;
  Opts.AuditSampleLimit = 32;
  LookupService Svc(std::move(W.H), Opts);

  constexpr int NumReaders = 2;
  std::atomic<bool> Done{false};
  std::vector<ReaderLog> Logs(NumReaders);
  std::vector<std::thread> Readers;
  for (int Idx = 0; Idx != NumReaders; ++Idx)
    Readers.emplace_back(tableReaderMain, std::cref(Svc), std::cref(Done),
                         /*Seed=*/0xc01d + Idx, std::cref(Classes),
                         std::cref(Members), std::ref(Logs[Idx]));

  uint64_t ColdEpochs = 0;
  for (uint64_t I = 0; I != 8; ++I) {
    Transaction Txn = Svc.beginTxn();
    Txn.addMember("T" + std::to_string(I % 10), "late" + std::to_string(I));
    ASSERT_TRUE(Svc.commit(Txn).isOk());
    if (!Svc.snapshot()->warm())
      ++ColdEpochs;
  }
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();

  // The builds must have been expiring: this tabulation is orders of
  // magnitude over a 1ms budget. (Not asserted for all 8 - a pathological
  // scheduler stall could let one squeak through the stride check.)
  EXPECT_GE(ColdEpochs, 4u);
  for (const ReaderLog &Log : Logs) {
    EXPECT_EQ(Log.BadRungs, 0u);
    EXPECT_EQ(Log.RepeatDivergences, 0u);
  }

  // Cold epoch answers come off the ladder's per-query rung...
  if (!Svc.snapshot()->warm()) {
    EXPECT_EQ(Svc.query("T0_0_0_0", "t0_m0").Rung,
              AnswerRung::Figure8PerQuery);
  }

  // ...until an unbounded warm succeeds and the tabulated rung returns.
  ASSERT_TRUE(Svc.warmCurrent().isOk());
  EXPECT_TRUE(Svc.snapshot()->warm());
  EXPECT_EQ(Svc.query("T0_0_0_0", "t0_m0").Rung, AnswerRung::Tabulated);

  AuditReport Final = Svc.auditNow();
  EXPECT_TRUE(Final.passed()) << Final.toString();
}

TEST(ServiceStressTest, FastLaneReadersShardedStatsAndWriterShareOneService) {
  // The query fast lane under contention: readers running the
  // resolved-handle paths (probe, key query, queryMany batches) on
  // their own key copies, a stats thread summing the sharded read
  // counters mid-flight, and a writer committing member adds that
  // invalidate every outstanding key's epoch. Under the tsan preset
  // this is the data-race proof for ShardedCounters and the in-place
  // key re-resolution; under any build it checks the fast-lane
  // accounting invariant - every probe and every key answered by
  // exactly one rung - and that sharded totals only ever move forward.
  Workload W = makeModularForest(4, 2, 2, /*MembersPerRoot=*/4,
                                 /*SharedMembers=*/2);

  ServiceOptions Opts;
  Opts.AuditEngineCheck = false;
  Opts.AuditSampleLimit = 64;
  LookupService Svc(std::move(W.H), Opts);

  constexpr int NumReaders = 4;
  constexpr uint64_t NumWriterTxns = 400;

  // Keys minted once at epoch 1; each reader gets private copies (the
  // QueryKey contract: re-resolution mutates in place, so keys are
  // never shared mutably across threads).
  std::vector<QueryKey> Master;
  for (uint32_t T = 0; T != 4; ++T)
    for (uint32_t M = 0; M != 4; ++M)
      Master.push_back(Svc.resolve(
          "T" + std::to_string(T) + "_0",
          "t" + std::to_string(T) + "_m" + std::to_string(M)));
  Master.push_back(Svc.resolve("T0", "g0"));
  Master.push_back(Svc.resolve("NoSuchClass", "g0"));
  Master.push_back(Svc.resolve("T1", "no_such_member"));

  struct FastLaneLog {
    uint64_t Probes = 0;
    uint64_t KeyQueries = 0;
    uint64_t BatchKeys = 0;
    uint64_t RungSeen[3] = {0, 0, 0};
    uint64_t BadAnswers = 0;
  };

  Svc.startBackgroundAudit(/*IntervalMillis=*/10);

  std::atomic<bool> Done{false};
  std::vector<FastLaneLog> Logs(NumReaders);
  std::vector<std::thread> Readers;
  for (int Idx = 0; Idx != NumReaders; ++Idx)
    Readers.emplace_back([&Svc, &Done, &Master, Idx, &Log = Logs[Idx]] {
      std::vector<QueryKey> Keys = Master; // private copies
      std::vector<QueryAnswer> Answers(Keys.size());
      uint64_t Iter = 0;
      while ((Iter < 512 || !Done.load(std::memory_order_acquire)) &&
             Iter < 200000) {
        ++Iter;
        QueryKey &Key = Keys[(Iter + Idx) % Keys.size()];
        switch (Iter % 3) {
        case 0: {
          ProbeAnswer P = Svc.probe(Key);
          ++Log.Probes;
          if (P.Rung > AnswerRung::GxxApproximate)
            ++Log.BadAnswers;
          else
            ++Log.RungSeen[static_cast<uint8_t>(P.Rung)];
          break;
        }
        case 1: {
          QueryAnswer A = Svc.query(Key);
          ++Log.KeyQueries;
          if (A.Rung > AnswerRung::GxxApproximate ||
              (!A.S.isOk() && A.S.code() != ErrorCode::UnknownClass))
            ++Log.BadAnswers;
          else
            ++Log.RungSeen[static_cast<uint8_t>(A.Rung)];
          break;
        }
        default: {
          Svc.queryMany(std::span<QueryKey>(Keys),
                        std::span<QueryAnswer>(Answers));
          for (const QueryAnswer &A : Answers) {
            ++Log.BatchKeys;
            if (A.Rung > AnswerRung::GxxApproximate)
              ++Log.BadAnswers;
            else
              ++Log.RungSeen[static_cast<uint8_t>(A.Rung)];
          }
          break;
        }
        }
      }
    });

  // The stats thread: sharded counters are eventually consistent, but
  // totals are monotone - a sum that goes backwards means a torn or
  // racy read. Checked mid-flight, not just after join.
  uint64_t StatsRegressions = 0, StatsSamples = 0;
  std::thread StatsThread([&Svc, &Done, &StatsRegressions, &StatsSamples] {
    uint64_t LastQ = 0, LastP = 0, LastB = 0, LastR = 0, LastRungs = 0;
    while (!Done.load(std::memory_order_acquire)) {
      ServiceStats S = Svc.stats();
      uint64_t Rungs =
          S.RungAnswers[0] + S.RungAnswers[1] + S.RungAnswers[2];
      if (S.Queries < LastQ || S.Probes < LastP || S.BatchQueries < LastB ||
          S.StaleKeyReresolves < LastR || Rungs < LastRungs)
        ++StatsRegressions;
      LastQ = S.Queries;
      LastP = S.Probes;
      LastB = S.BatchQueries;
      LastR = S.StaleKeyReresolves;
      LastRungs = Rungs;
      ++StatsSamples;
      std::this_thread::yield();
    }
  });

  // The writer: every commit moves the epoch, so each reader's next use
  // of each key crosses a stale epoch and re-resolves in place.
  for (uint64_t I = 0; I != NumWriterTxns; ++I) {
    Transaction Txn = Svc.beginTxn();
    Txn.addMember("T" + std::to_string(I % 4), "fresh" + std::to_string(I));
    ASSERT_TRUE(Svc.commit(Txn).isOk());
  }
  Done.store(true, std::memory_order_release);

  for (std::thread &T : Readers)
    T.join();
  StatsThread.join();
  Svc.stopBackgroundAudit();

  EXPECT_EQ(StatsRegressions, 0u);
  EXPECT_GE(StatsSamples, 1u);

  uint64_t SeenProbes = 0, SeenQueries = 0, SeenRungs = 0;
  for (const FastLaneLog &Log : Logs) {
    EXPECT_EQ(Log.BadAnswers, 0u);
    EXPECT_EQ(Log.Probes + Log.KeyQueries + Log.BatchKeys,
              Log.RungSeen[0] + Log.RungSeen[1] + Log.RungSeen[2]);
    SeenProbes += Log.Probes;
    SeenQueries += Log.KeyQueries + Log.BatchKeys;
    SeenRungs += Log.RungSeen[0] + Log.RungSeen[1] + Log.RungSeen[2];
  }

  // The fast-lane accounting invariant: probes are counted apart from
  // queries, and the rung totals cover both - exactly once each.
  ServiceStats Stats = Svc.stats();
  EXPECT_GE(Stats.Probes, SeenProbes);
  EXPECT_GE(Stats.Queries, SeenQueries);
  EXPECT_EQ(Stats.Queries + Stats.Probes,
            Stats.RungAnswers[0] + Stats.RungAnswers[1] +
                Stats.RungAnswers[2]);
  EXPECT_GT(Stats.StaleKeyReresolves, 0u);
  EXPECT_EQ(Stats.AuditMismatches, 0u);
  EXPECT_EQ(Stats.Quarantines, 0u);

  AuditReport Final = Svc.auditNow();
  EXPECT_TRUE(Final.passed()) << Final.toString();
}

TEST(ServiceStressTest, EpochReclamationRacesGuardPinnedReadersAndWriter) {
  // The lock-free read path under its designed-for load: 4 readers
  // hammer the guard-pinned entry points (probe / key query /
  // queryMany) - each call pins the published snapshot through an
  // EpochReclaimer::ReadGuard and dereferences it raw - while a writer
  // commits every few milliseconds, retiring a snapshot per publish,
  // and the reclaimer frees the limbo list behind the readers. Under
  // the tsan preset this is the data-race proof for the whole EBR
  // protocol (publish -> retire -> scan -> free vs. pin -> load ->
  // deref); under ASan a reclamation bug is a hard heap-use-after-free.
  // Build-independent assertions: answers from freed-candidate
  // snapshots stay coherent (epochs never run backwards per thread, no
  // answer carries epoch 0), the limbo list stays bounded by reader
  // progress, and it drains to zero once the readers quiesce.
  Workload W = makeModularForest(4, 2, 2, /*MembersPerRoot=*/4,
                                 /*SharedMembers=*/2);

  ServiceOptions Opts;
  Opts.AuditEngineCheck = false;
  Opts.AuditSampleLimit = 32;
  LookupService Svc(std::move(W.H), Opts);

  constexpr int NumReaders = 4;
  constexpr uint64_t NumWriterTxns = 300;

  std::vector<QueryKey> Master;
  for (uint32_t T = 0; T != 4; ++T)
    for (uint32_t M = 0; M != 4; ++M)
      Master.push_back(Svc.resolve(
          "T" + std::to_string(T) + "_0",
          "t" + std::to_string(T) + "_m" + std::to_string(M)));
  Master.push_back(Svc.resolve("T0", "g0"));

  struct ReclaimLog {
    uint64_t Ops = 0;
    uint64_t NonMonotoneEpochs = 0; ///< a later answer from an older epoch
    uint64_t ZeroEpochs = 0;        ///< an answer stamped with no epoch
    uint64_t BadAnswers = 0;
  };

  std::atomic<bool> Done{false};
  std::vector<ReclaimLog> Logs(NumReaders);
  std::vector<std::thread> Readers;
  for (int Idx = 0; Idx != NumReaders; ++Idx)
    Readers.emplace_back([&Svc, &Done, &Master, Idx, &Log = Logs[Idx]] {
      std::vector<QueryKey> Keys = Master; // private copies
      std::vector<QueryAnswer> Answers(Keys.size());
      uint64_t LastEpoch = 0;
      auto Note = [&Log, &LastEpoch](uint64_t Epoch) {
        if (Epoch == 0)
          ++Log.ZeroEpochs;
        if (Epoch < LastEpoch)
          ++Log.NonMonotoneEpochs;
        else
          LastEpoch = Epoch;
      };
      uint64_t Iter = 0;
      while ((Iter < 512 || !Done.load(std::memory_order_acquire)) &&
             Iter < 200000) {
        ++Iter;
        QueryKey &Key = Keys[(Iter + Idx) % Keys.size()];
        switch (Iter % 4) {
        case 0:
        case 1: { // probe-heavy, like the bench's fast lane
          ProbeAnswer P = Svc.probe(Key);
          Note(P.Epoch);
          if (P.Rung > AnswerRung::GxxApproximate)
            ++Log.BadAnswers;
          break;
        }
        case 2: {
          QueryAnswer A = Svc.query(Key);
          Note(A.Epoch);
          if (A.Rung > AnswerRung::GxxApproximate ||
              (!A.S.isOk() && A.S.code() != ErrorCode::UnknownClass))
            ++Log.BadAnswers;
          break;
        }
        default: {
          Svc.queryMany(std::span<QueryKey>(Keys),
                        std::span<QueryAnswer>(Answers));
          for (const QueryAnswer &A : Answers) {
            Note(A.Epoch);
            if (A.Rung > AnswerRung::GxxApproximate)
              ++Log.BadAnswers;
          }
          break;
        }
        }
        Log.Ops += 1;
      }
    });

  // A sampler thread watches the reclaimer gauges mid-flight: the limbo
  // list must stay bounded (readers release their guards every call, so
  // reclamation keeps pace with retirement) and the running totals must
  // stay consistent.
  uint64_t MaxLimbo = 0, GaugeAnomalies = 0;
  std::thread Sampler([&Svc, &Done, &MaxLimbo, &GaugeAnomalies] {
    while (!Done.load(std::memory_order_acquire)) {
      ServiceStats S = Svc.stats();
      MaxLimbo = std::max(MaxLimbo, S.SnapshotLimboDepth);
      if (S.SnapshotsReclaimed > S.SnapshotsRetired)
        ++GaugeAnomalies;
      std::this_thread::yield();
    }
  });

  // The writer: a net no-op blip per commit (add + remove one member in
  // one script) every couple of milliseconds - each publish retires the
  // superseded snapshot while readers are mid-deref on it.
  for (uint64_t I = 0; I != NumWriterTxns; ++I) {
    Transaction Txn = Svc.beginTxn();
    std::string Name = "storm" + std::to_string(I);
    Txn.addMember("T" + std::to_string(I % 4), Name)
        .removeMember("T" + std::to_string(I % 4), Name);
    ASSERT_TRUE(Svc.commit(Txn).isOk());
    if (I % 8 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Done.store(true, std::memory_order_release);

  for (std::thread &T : Readers)
    T.join();
  Sampler.join();

  for (const ReclaimLog &Log : Logs) {
    EXPECT_GE(Log.Ops, 512u);
    EXPECT_EQ(Log.BadAnswers, 0u);
    EXPECT_EQ(Log.ZeroEpochs, 0u);
    EXPECT_EQ(Log.NonMonotoneEpochs, 0u)
        << "a guard-pinned read served an epoch older than one already "
           "observed on the same thread";
  }
  EXPECT_EQ(GaugeAnomalies, 0u);
  EXPECT_LE(MaxLimbo, EpochReclaimer::NumSlots)
      << "the limbo list outgrew any plausible reader-progress bound";

  // Quiescence: one more publish retires the last superseded snapshot
  // and its reclaim pass - with every reader slot quiescent - must
  // drain the limbo list completely.
  Transaction FinalTxn = Svc.beginTxn();
  FinalTxn.addMember("T0", "final_member");
  ASSERT_TRUE(Svc.commit(FinalTxn).isOk());

  ServiceStats Stats = Svc.stats();
  EXPECT_GE(Stats.SnapshotsRetired, NumWriterTxns);
  EXPECT_EQ(Stats.SnapshotLimboDepth, 0u);
  EXPECT_EQ(Stats.SnapshotsReclaimed, Stats.SnapshotsRetired);
  EXPECT_EQ(Stats.EpochPinOverflows, 0u);

  // And the answers on the far side of ~300 reclaimed epochs are right.
  QueryKey Check = Svc.resolve("T0", "final_member");
  EXPECT_EQ(Svc.probe(Check).Status, LookupStatus::Unambiguous);
  AuditReport Audit = Svc.auditNow();
  EXPECT_TRUE(Audit.passed()) << Audit.toString();
}

TEST(ServiceStressTest, TraceDrainRacesReadersAndCommittingWriter) {
  // The trace ring's concurrency contract under TSan: a drainer thread
  // repeatedly copies the ring (and renders the full metrics
  // exposition) while reader threads record sampled query/probe events
  // into it and a writer commits - drain() must never stop a reader,
  // never tear a record, and every drained event must be well-formed.
  Workload W = makeModularForest(4, 2, 2, /*MembersPerRoot=*/4,
                                 /*ExtraMembersPerChild=*/2);
  ServiceOptions Opts;
  Opts.Observability.SamplePeriod = 1; // every operation traced
  Opts.Observability.TraceShardCapacity = 32; // force wrap-around
  Opts.Observability.SlowQueryNanos = 0;
  LookupService Svc(std::move(W.H), Opts);

  constexpr uint64_t NumWriterTxns = 200;
  constexpr int NumReaders = 2;

  std::atomic<bool> Done{false};
  struct DrainLog {
    uint64_t Drains = 0;
    uint64_t Events = 0;
    uint64_t Malformed = 0;
    uint64_t UnsortedPairs = 0;
  } Drain;
  struct QueryLog {
    uint64_t Ops = 0;
    uint64_t BadAnswers = 0;
  };
  std::vector<QueryLog> Logs(NumReaders);

  std::thread Drainer([&Svc, &Done, &Drain] {
    while (!Done.load(std::memory_order_acquire)) {
      std::vector<TraceEvent> Events = Svc.drainTrace();
      ++Drain.Drains;
      Drain.Events += Events.size();
      for (size_t I = 0; I != Events.size(); ++I) {
        const TraceEvent &E = Events[I];
        if (size_t(E.Kind) >= NumTraceKinds || E.WhenNanos == 0 ||
            E.toString().empty())
          ++Drain.Malformed;
        if (I && Events[I - 1].WhenNanos > E.WhenNanos)
          ++Drain.UnsortedPairs;
      }
      // The expositions walk every instrument; render them in the race
      // too so TSan sees the read side of the histograms and stats.
      (void)Svc.metricsText();
      (void)Svc.metricsJson();
      (void)Svc.recentAnomalies();
    }
  });

  std::vector<std::thread> Readers;
  for (int Idx = 0; Idx != NumReaders; ++Idx)
    Readers.emplace_back([&Svc, &Done, Idx, &Log = Logs[Idx]] {
      Rng R(0x7ace + Idx);
      uint64_t Iter = 0;
      while ((Iter < 512 || !Done.load(std::memory_order_acquire)) &&
             Iter < 200000) {
        ++Iter;
        std::string Class = "T" + std::to_string(R.nextBelow(4));
        std::string Member = "m" + std::to_string(R.nextBelow(4));
        QueryKey K = Svc.resolve(Class, Member);
        QueryAnswer A = Svc.query(K);
        ProbeAnswer P = Svc.probe(K);
        Log.Ops += 2;
        if (A.Rung > AnswerRung::GxxApproximate ||
            P.Rung > AnswerRung::GxxApproximate)
          ++Log.BadAnswers;
      }
    });

  for (uint64_t I = 0; I != NumWriterTxns; ++I) {
    Transaction Txn = Svc.beginTxn();
    Txn.addMember("T" + std::to_string(I % 4),
                  "trace_s" + std::to_string(I));
    ASSERT_TRUE(Svc.commit(Txn).isOk());
  }
  Done.store(true, std::memory_order_release);

  for (std::thread &T : Readers)
    T.join();
  Drainer.join();

  EXPECT_GE(Drain.Drains, 1u);
  EXPECT_GT(Drain.Events, 0u);
  EXPECT_EQ(Drain.Malformed, 0u);
  EXPECT_EQ(Drain.UnsortedPairs, 0u);
  for (const QueryLog &Log : Logs)
    EXPECT_EQ(Log.BadAnswers, 0u);

  // Quiescent accounting: the sampled instruments and the sharded
  // stat counters agree with each other and with the ring totals.
  ServiceStats Stats = Svc.stats();
  EXPECT_EQ(Stats.Queries + Stats.Probes,
            Stats.RungAnswers[0] + Stats.RungAnswers[1] +
                Stats.RungAnswers[2]);
  EXPECT_EQ(Stats.LatencySamples, Stats.Queries + Stats.Probes);
  EXPECT_GE(Stats.TraceEventsRecorded,
            Stats.Queries + Stats.Probes + NumWriterTxns);
  EXPECT_GE(Stats.TraceEventsRecorded, Stats.TraceEventsOverwritten);
  std::vector<TraceEvent> Remaining = Svc.drainTrace();
  EXPECT_EQ(Stats.TraceEventsRecorded - Stats.TraceEventsOverwritten,
            Remaining.size());
}
