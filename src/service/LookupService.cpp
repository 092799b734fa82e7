//===- LookupService.cpp - Long-lived service --------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/service/LookupService.h"

#include "memlook/core/DifferentialCheck.h"
#include "memlook/core/DominanceLookupEngine.h"
#include "memlook/core/GxxBfsEngine.h"
#include "memlook/service/SnapshotFile.h"
#include "memlook/service/WriteAheadLog.h"
#include "memlook/support/CrashPoint.h"
#include "memlook/support/Rng.h"

#include <chrono>
#include <cstdio>

using namespace memlook;
using namespace memlook::service;

const char *memlook::service::answerRungLabel(AnswerRung Rung) {
  switch (Rung) {
  case AnswerRung::Tabulated:
    return "tabulated";
  case AnswerRung::Figure8PerQuery:
    return "figure8-per-query";
  case AnswerRung::GxxApproximate:
    return "gxx-approximate";
  }
  return "unknown";
}

const char *memlook::service::restoreRungLabel(RestoreRung Rung) {
  switch (Rung) {
  case RestoreRung::Snapshot:
    return "snapshot";
  case RestoreRung::RebuildFromSource:
    return "rebuild-from-source";
  case RestoreRung::SnapshotAndWal:
    return "snapshot+wal";
  }
  return "unknown";
}

std::string RestoreReport::toString() const {
  std::string Out = std::string("restore: rung=") + restoreRungLabel(Rung) +
                    " epoch=" + std::to_string(Epoch);
  if (Rung == RestoreRung::Snapshot || Rung == RestoreRung::SnapshotAndWal)
    Out += ", " + std::to_string(AuditColumnsChecked) + " columns audited";
  if (!SnapshotStatus.isOk())
    Out += ", snapshot passed over: " + SnapshotStatus.toString();
  if (FileQuarantined)
    Out += ", file quarantined to " + QuarantinePath;
  if (WalAttempted) {
    if (WalRecordsReplayed != 0)
      Out += ", " + std::to_string(WalRecordsReplayed) + " wal records replayed";
    if (WalRecordsSkipped != 0)
      Out += ", " + std::to_string(WalRecordsSkipped) +
             " wal records already covered";
    if (!WalStatus.isOk())
      Out += ", wal stopped: " + WalStatus.toString();
    if (WalQuarantined)
      Out += ", wal quarantined to " + WalQuarantinePath;
    if (DataLoss)
      Out += ", DATA LOSS";
  }
  return Out;
}

std::string AuditReport::toString() const {
  std::string Out = "audit epoch " + std::to_string(Epoch) + ": " +
                    std::to_string(PairsSampled) + " table pairs sampled, " +
                    std::to_string(EnginePairsChecked) +
                    " engine pairs checked, " + std::to_string(PairsSkipped) +
                    " skipped, " + std::to_string(Mismatches.size()) +
                    " mismatches";
  if (!TableWasWarm)
    Out += ", table cold";
  if (QuarantinedTable)
    Out += ", QUARANTINED";
  return Out;
}

LookupService::LookupService(Hierarchy Initial, ServiceOptions Options)
    : Opts(std::move(Options)) {
  assert(Initial.isFinalized() &&
         "the service serves finalized hierarchies; use create() for "
         "untrusted input");
  auto Snap = std::make_shared<Snapshot>();
  Snap->Epoch = 1;
  Snap->H = std::make_shared<const Hierarchy>(std::move(Initial));
  if (Opts.WarmOnCommit) {
    Deadline BuildDeadline = warmDeadline();
    Snap->Table = LookupTable::build(*Snap->H, BuildDeadline, Opts.WarmThreads);
    noteTableBuilt(Snap->Table.get());
  }
  if (!Opts.WalPath.empty()) {
    // A fresh service is a fresh history: start the log at epoch 1.
    // restore() is the entry point that preserves an existing log (it
    // clears WalPath before reaching this constructor and attaches the
    // log it salvaged itself).
    Expected<WriteAheadLog> W = WriteAheadLog::create(
        Opts.WalPath, /*BaseEpoch=*/1, hierarchyFingerprint(*Snap->H),
        Opts.WalSyncEachAppend);
    if (W)
      Wal = std::make_unique<WriteAheadLog>(W.takeValue());
    else
      WalHealth = W.status();
  }
  adoptInitial(std::move(Snap));
}

Expected<std::unique_ptr<LookupService>>
LookupService::create(Hierarchy Initial, ServiceOptions Options) {
  if (!Initial.isFinalized())
    return Status::error(ErrorCode::NotFinalized,
                         "service requires a finalized hierarchy");
  return std::make_unique<LookupService>(std::move(Initial),
                                         std::move(Options));
}

LookupService::LookupService(RestoreTag, uint64_t Epoch,
                             std::shared_ptr<const Hierarchy> H,
                             std::shared_ptr<const LookupTable> Table,
                             ServiceOptions Options)
    : Opts(std::move(Options)) {
  assert(H && H->isFinalized() && "restore() validates before adopting");
  auto Snap = std::make_shared<Snapshot>();
  Snap->Epoch = Epoch;
  Snap->H = std::move(H);
  Snap->Table = std::move(Table);
  if (!Snap->Table && Opts.WarmOnCommit)
    Snap->Table = LookupTable::build(*Snap->H, warmDeadline(),
                                     Opts.WarmThreads);
  noteTableBuilt(Snap->Table.get());
  adoptInitial(std::move(Snap));
}

namespace {

/// The restore audit: recompute up to \p SampleColumns member columns
/// with a live kernel (the same code path commit-time warms use) and
/// require the loaded table's answers to agree row-for-row. Structural
/// validation proved the table internally consistent; this proves a
/// deterministic sample of it *correct* - the defense against a
/// CRC-valid, well-formed file whose entries answer wrongly.
Status auditRestoredTable(const Hierarchy &H, const LookupTable &Table,
                          uint32_t SampleColumns, uint64_t &ColumnsChecked) {
  uint32_t NumMembers = static_cast<uint32_t>(H.allMemberNames().size());
  if (SampleColumns == 0 || NumMembers == 0)
    return Status::ok();
  uint32_t Sample = std::min(SampleColumns, NumMembers);
  // Deterministic evenly spread sample: restores are reproducible.
  std::vector<uint32_t> Idxs;
  Idxs.reserve(Sample);
  for (uint32_t I = 0; I != Sample; ++I)
    Idxs.push_back(static_cast<uint32_t>(uint64_t(I) * NumMembers / Sample));

  ParallelTabulator::Result Fresh =
      ParallelTabulator::tabulate(H, Idxs, Deadline::never(), /*Threads=*/1);
  assert(Fresh.Complete && "an unbounded serial tabulation cannot expire");

  for (uint32_t Idx : Idxs) {
    ++ColumnsChecked;
    const LookupTable::Column &Oracle = *Fresh.Columns[Idx];
    Symbol Member = H.allMemberNames()[Idx];
    for (uint32_t Row = 0; Row != H.numClasses(); ++Row) {
      // find() consults the loaded column (short rows answer NotFound -
      // legal only if the kernel also says the answer is NotFound).
      std::string Got =
          renderLookupForComparison(H, Table.find(H, ClassId(Row), Member));
      std::string Want =
          renderLookupForComparison(H, Oracle.resultFor(H, ClassId(Row)));
      if (Got != Want)
        return Status::error(
            ErrorCode::TableQuarantined,
            "restore audit: loaded table answers '" + Got + "' for " +
                std::string(H.className(ClassId(Row))) + "::" +
                std::string(H.spelling(Member)) +
                " but a live kernel answers '" + Want + "'");
    }
  }
  return Status::ok();
}

} // namespace

Expected<std::unique_ptr<LookupService>>
LookupService::restore(const std::string &Path, Hierarchy FallbackSource,
                       ServiceOptions Options, RestoreReport *Report) {
  RestoreReport Local;
  RestoreReport &R = Report ? *Report : Local;
  R = RestoreReport();
  const uint64_t T0 = observabilityNowNanos();

  // Durable mode: salvage the log up front, before any rung can touch
  // the filesystem, and keep the constructors away from the file
  // (WalPath cleared) - restore owns the log's fate here.
  const std::string WalPath = Options.WalPath;
  const bool Durable = !WalPath.empty();
  const bool Sync = Options.WalSyncEachAppend;
  Options.WalPath.clear();
  R.WalAttempted = Durable;
  WalSalvage Salvage;
  bool WalFileExists = false;
  if (Durable) {
    WalFileExists = WriteAheadLog::exists(WalPath);
    if (WalFileExists)
      Salvage = WriteAheadLog::replayFile(WalPath);
  }

  // Base state: the snapshot rung, else the rebuild rung.
  Status SnapStatus = Status::ok();
  Expected<SnapshotPayload> Loaded = readSnapshotFile(Path, Options.Budget);
  if (!Loaded) {
    SnapStatus = Loaded.status();
  } else if (Loaded->Table) {
    SnapStatus = auditRestoredTable(*Loaded->H, *Loaded->Table,
                                    Options.RestoreAuditColumns,
                                    R.AuditColumnsChecked);
  }

  std::unique_ptr<LookupService> Svc;
  if (SnapStatus.isOk() && Loaded) {
    R.Rung = RestoreRung::Snapshot;
    R.Epoch = Loaded->Epoch;
    Svc = std::unique_ptr<LookupService>(
        new LookupService(RestoreTag{}, Loaded->Epoch, std::move(Loaded->H),
                          std::move(Loaded->Table), std::move(Options)));
    Svc->NumSnapshotRestores.fetch_add(1, std::memory_order_relaxed);
  } else {
    // The file exists but is unusable: move it aside so the evidence
    // survives the rebuild (and a crash loop cannot keep re-reading
    // it). A missing file simply fails the rename - nothing to
    // preserve.
    R.SnapshotStatus = SnapStatus;
    std::string Quarantine = Path + ".quarantined";
    if (std::rename(Path.c_str(), Quarantine.c_str()) == 0) {
      R.FileQuarantined = true;
      R.QuarantinePath = Quarantine;
    }

    if (!FallbackSource.isFinalized())
      return Status::error(ErrorCode::NotFinalized,
                           "snapshot unusable (" + SnapStatus.toString() +
                               ") and the fallback hierarchy is not finalized");
    R.Rung = RestoreRung::RebuildFromSource;
    R.Epoch = 1;
    Svc = std::make_unique<LookupService>(std::move(FallbackSource), Options);
    if (R.FileQuarantined)
      Svc->NumSnapshotQuarantines.fetch_add(1, std::memory_order_relaxed);
  }

  if (!Durable) {
    // Restore trace events carry the RestoreRung in the Rung byte.
    Svc->Obs.recordWriterEvent(TraceKind::Restore, R.Epoch,
                               observabilityNowNanos() - T0,
                               static_cast<uint8_t>(R.Rung));
    return Svc;
  }

  // The WAL rung: replay the log's committed transactions onto the
  // base state through the normal commit path. The log connects when
  // its contiguous epoch chain reaches past the base epoch; records at
  // or below it were compacted into the snapshot already and are
  // skipped, not lost.
  const uint64_t BaseEpoch = Svc->currentEpoch();
  bool WalUsable = false;

  if (!WalFileExists ||
      (!Salvage.HasBase && Salvage.Records.empty() && Salvage.Error.isOk())) {
    // No log, an empty file, or a create() torn before its base record
    // landed: nothing was ever durable in it. Start fresh, no loss.
  } else if (!Salvage.HasBase) {
    R.WalStatus = Salvage.Error;
    R.DataLoss = true; // unreadable from the first record: content unknown
  } else if (Salvage.BaseEpoch > BaseEpoch) {
    R.WalStatus = Status::error(
        ErrorCode::WalEpochSkew,
        "log begins at epoch " + std::to_string(Salvage.BaseEpoch) +
            ", beyond the recovered epoch " + std::to_string(BaseEpoch) +
            "; its history does not connect");
    R.DataLoss = true;
  } else if (Salvage.BaseEpoch == BaseEpoch &&
             Salvage.BaseFingerprint !=
                 hierarchyFingerprint(*Svc->snapshot()->H)) {
    R.WalStatus = Status::error(
        ErrorCode::WalCorrupt,
        "log base fingerprint does not match the recovered state at epoch " +
            std::to_string(BaseEpoch) + "; refusing to replay");
    R.DataLoss = !Salvage.Records.empty();
  } else {
    // Connected. Skip what the snapshot already covers; contiguity
    // guarantees the first kept record is exactly BaseEpoch + 1.
    size_t Skip = 0;
    while (Skip != Salvage.Records.size() &&
           Salvage.Records[Skip].Epoch <= BaseEpoch)
      ++Skip;
    R.WalRecordsSkipped = Skip;

    WalUsable = true;
    for (size_t I = Skip; I != Salvage.Records.size(); ++I) {
      WalRecord &Rec = Salvage.Records[I];
      Transaction Txn(Svc->currentEpoch());
      Txn.Ops = std::move(Rec.Ops);
      if (Status C = Svc->commit(Txn); !C.isOk()) {
        // The durable prefix before this record stands; the rest of
        // the log describes commits this state can no longer accept.
        R.WalStatus = Status::error(
            C.code(), "replaying logged epoch " + std::to_string(Rec.Epoch) +
                          ": " + C.message());
        R.DataLoss = true;
        WalUsable = false;
        break;
      }
      ++R.WalRecordsReplayed;
    }
    if (WalUsable && !Salvage.Error.isOk()) {
      // Clean prefix replayed, but the scan stopped early: whatever
      // followed the damage is gone.
      R.WalStatus = Salvage.Error;
      R.DataLoss = true;
      WalUsable = false;
    }
  }

  Svc->NumWalReplayedRecords.fetch_add(R.WalRecordsReplayed,
                                       std::memory_order_relaxed);
  if (R.WalRecordsReplayed != 0 && R.Rung == RestoreRung::Snapshot)
    R.Rung = RestoreRung::SnapshotAndWal;
  R.Epoch = Svc->currentEpoch();

  // Disposition on disk. Keep extending the existing log only when its
  // end epoch is exactly the recovered epoch (so the append chain
  // continues unbroken); a stale-but-clean log is superseded without
  // ceremony, an unusable one is quarantined as evidence.
  uint64_t LogEnd = Salvage.Records.empty()
                        ? Salvage.BaseEpoch
                        : Salvage.Records.back().Epoch;
  if (WalUsable && Salvage.HasBase && LogEnd == Svc->currentEpoch()) {
    Expected<WriteAheadLog> W =
        WriteAheadLog::openExisting(WalPath, Salvage, Sync);
    if (W)
      Svc->Wal = std::make_unique<WriteAheadLog>(W.takeValue());
    else {
      Svc->WalHealth = W.status();
      if (R.WalStatus.isOk())
        R.WalStatus = W.status();
    }
  } else {
    if (!R.WalStatus.isOk() && WalFileExists) {
      std::string Quarantine = WalPath + ".quarantined";
      if (std::rename(WalPath.c_str(), Quarantine.c_str()) == 0) {
        R.WalQuarantined = true;
        R.WalQuarantinePath = Quarantine;
        Svc->NumWalQuarantines.fetch_add(1, std::memory_order_relaxed);
      }
      // The quarantined log held the only durable copy of the replayed
      // prefix; persist a snapshot at the recovered epoch so that
      // prefix survives the next crash too. Best-effort: on failure
      // the state still serves, only re-crash durability suffers.
      if (R.WalRecordsReplayed != 0)
        (void)Svc->saveSnapshot(Path);
    }
    Expected<WriteAheadLog> W = WriteAheadLog::create(
        WalPath, Svc->currentEpoch(),
        hierarchyFingerprint(*Svc->snapshot()->H), Sync);
    if (W)
      Svc->Wal = std::make_unique<WriteAheadLog>(W.takeValue());
    else {
      Svc->WalHealth = W.status();
      if (R.WalStatus.isOk())
        R.WalStatus = W.status();
    }
  }
  Svc->Opts.WalPath = WalPath;
  Svc->Obs.recordWriterEvent(TraceKind::Restore, R.Epoch,
                             observabilityNowNanos() - T0,
                             static_cast<uint8_t>(R.Rung));
  return Svc;
}

Status LookupService::saveSnapshot(const std::string &Path) const {
  // The writer lock fences the save against racing commits so the log
  // compaction below cannot truncate a record appended after the
  // snapshot we wrote (write snapshot at epoch E, compact to base E,
  // all while E stays current).
  std::lock_guard<std::mutex> Writer(WriterMutex);
  const uint64_t T0 = observabilityNowNanos();
  std::shared_ptr<const Snapshot> Snap = snapshot();
  Status S = writeSnapshotFile(Path, *Snap);
  if (!S.isOk())
    return S;
  NumSnapshotSaves.fetch_add(1, std::memory_order_relaxed);
  Obs.recordWriterEvent(TraceKind::SnapshotSave, Snap->Epoch,
                        observabilityNowNanos() - T0);
  if (Wal) {
    // Window under test: the snapshot is durable but the log still
    // carries the records it covers. Recovery must skip them.
    crashPointHit("wal-reset");
    if (Wal->reset(Snap->Epoch, hierarchyFingerprint(*Snap->H)).isOk())
      NumWalResets.fetch_add(1, std::memory_order_relaxed);
    // A failed compaction is not a save failure: the old log's records
    // are all <= the snapshot epoch or still replayable after it, so
    // nothing durable was lost - restore skips the covered prefix.
  }
  return S;
}

LookupService::~LookupService() {
  stopBackgroundAudit();
  // Member destruction then drains the reclaimer's limbo list (declared
  // after Current, so it is destroyed first, while the pointees are
  // still reachable). The caller owns the usual precondition: no reader
  // thread is still inside a guard-pinned call on this service.
}

std::shared_ptr<const Snapshot> LookupService::snapshot() const {
  std::lock_guard<std::mutex> Lock(SnapMutex);
  return Current;
}

void LookupService::noteTableBuilt(const LookupTable *Table) {
  if (!Table)
    return;
  const LookupTable::BuildStats &B = Table->buildStats();
  NumColumnsDeduped.fetch_add(B.ColumnsDeduped, std::memory_order_relaxed);
  NumTableEntriesComputed.fetch_add(B.Tabulation.EntriesComputed,
                                    std::memory_order_relaxed);
  NumTableEntriesCopied.fetch_add(B.Tabulation.EntriesCopied,
                                  std::memory_order_relaxed);
}

void LookupService::adoptInitial(std::shared_ptr<const Snapshot> Snap) {
  // Construction only: no readers exist yet, so plain ordering suffices.
  CurrentEpoch.store(Snap->Epoch, std::memory_order_relaxed);
  CurrentPtr.store(Snap.get(), EpochReclaimer::pointerOrder());
  Current = std::move(Snap);
}

void LookupService::publish(std::shared_ptr<const Snapshot> Next) {
  // Callers hold WriterMutex, which serializes the epoch-reclaimer's
  // writer side (retire + reclaim) as well as the swap itself.
  const Snapshot *Raw = Next.get();
  std::shared_ptr<const Snapshot> Old;
  {
    std::lock_guard<std::mutex> Lock(SnapMutex);
    Old = std::move(Current);
    Current = std::move(Next);
  }
  CurrentEpoch.store(Raw->Epoch, std::memory_order_relaxed);
  // The EBR publication point: the store must precede the epoch bump
  // inside retire() (see EpochReclaimer.h's W1/W2/W3 ordering).
  CurrentPtr.store(Raw, EpochReclaimer::pointerOrder());
  Reclaimer.retire(std::static_pointer_cast<const void>(std::move(Old)));
}

Deadline LookupService::warmDeadline() const {
  return Opts.WarmBuildMillis > 0 ? Deadline::afterMillis(Opts.WarmBuildMillis)
                                  : Deadline::never();
}

//===----------------------------------------------------------------------===//
// Queries: the degradation ladder
//===----------------------------------------------------------------------===//

QueryAnswer LookupService::query(std::string_view Class,
                                 std::string_view Member,
                                 const Deadline &D) const {
  EpochReclaimer::ReadGuard Guard(Reclaimer);
  return queryOn(*currentRaw(), Class, Member, D);
}

namespace {

uint8_t traceFlagsOf(const QueryAnswer &A) {
  uint8_t Flags = 0;
  if (A.Approximate)
    Flags |= TfApproximate;
  if (A.DeadlineExpired)
    Flags |= TfDeadlineExpired;
  if (A.TableQuarantined)
    Flags |= TfTableQuarantined;
  if (!A.S.isOk())
    Flags |= TfUnknownContext;
  return Flags;
}

uint8_t traceFlagsOf(const ProbeAnswer &A) {
  uint8_t Flags = 0;
  if (A.Approximate)
    Flags |= TfApproximate;
  if (A.DeadlineExpired)
    Flags |= TfDeadlineExpired;
  if (A.TableQuarantined)
    Flags |= TfTableQuarantined;
  if (A.UnknownContext)
    Flags |= TfUnknownContext;
  return Flags;
}

} // namespace

void LookupService::finishQuery(QueryPath Path, uint64_t T0,
                                const QueryAnswer &A) const {
  if (T0)
    Obs.recordQuerySample(Path, A.Rung, T0, A.Epoch, traceFlagsOf(A));
  if (A.Rung != AnswerRung::Tabulated)
    Obs.noteRungDrop(Path, A.Rung, A.Epoch, A.DeadlineExpired);
}

QueryAnswer LookupService::queryOn(const Snapshot &Snap, std::string_view Class,
                                   std::string_view Member,
                                   const Deadline &D) const {
  ReadStats.add(RcQueries);
  const uint64_t T0 = Obs.sampleBegin();
  QueryAnswer A = answerResolved(Snap, Snap.H->findClass(Class), Class,
                                 Snap.H->findName(Member), D);
  finishQuery(QueryPath::String, T0, A);
  return A;
}

QueryAnswer LookupService::answerResolved(const Snapshot &Snap,
                                          ClassId Context,
                                          std::string_view ClassSpelling,
                                          Symbol Member,
                                          const Deadline &D) const {
  QueryAnswer Answer;
  Answer.Epoch = Snap.Epoch;
  Answer.TableQuarantined = Snap.quarantined();

  if (Context.rawValue() >= Snap.H->numClasses()) {
    // The one unanswerable shape: no rung can resolve a member in the
    // context of a class this epoch has never heard of. Constant time,
    // so it counts as the tabulated rung. A *valid-looking* id beyond
    // the epoch's range is the stale/forged-handle case the release-
    // safe bounds check exists for: same NotFound, plus an audit stat.
    if (Context.isValid())
      ReadStats.add(RcStaleContextRejects);
    ReadStats.add(RcUnknownContexts);
    ReadStats.add(RcRungTabulated);
    Answer.S = Status::error(ErrorCode::UnknownClass,
                             "unknown context class '" +
                                 std::string(ClassSpelling) + "' at epoch " +
                                 std::to_string(Snap.Epoch));
    Answer.Result = LookupResult::notFound();
    Answer.Rung = AnswerRung::Tabulated;
    return Answer;
  }

  if (!Member.isValid()) {
    // Name never interned anywhere in this epoch: NotFound, O(1).
    ReadStats.add(RcRungTabulated);
    Answer.Result = LookupResult::notFound();
    Answer.Rung = AnswerRung::Tabulated;
    return Answer;
  }

  // Rung 0: the epoch's warm table - a constant-time const read. The
  // checked find is belt-and-braces here (the bounds check above
  // already validated Context against the snapshot's hierarchy, and a
  // published table always spans it).
  if (Snap.warm()) {
    ReadStats.add(RcRungTabulated);
    bool StaleContext = false;
    Answer.Result =
        Snap.Table->findChecked(*Snap.H, Context, Member, &StaleContext);
    if (StaleContext)
      ReadStats.add(RcStaleContextRejects);
    Answer.Rung = AnswerRung::Tabulated;
    Answer.DeadlineExpired = D.expired();
    return Answer;
  }

  // Rung 1: a private Figure 8 engine, memoizing only this query's
  // down-closure, bounded by the caller's deadline. Skipped outright
  // when the deadline has already expired.
  if (!D.expired()) {
    DominanceLookupEngine Engine(*Snap.H,
                                 DominanceLookupEngine::Mode::LazyRecursive);
    Engine.setDeadline(&D);
    LookupResult R = Engine.lookup(Context, Member);
    if (!isBudgetDegraded(R.Status)) {
      ReadStats.add(RcRungFigure8);
      Answer.Result = std::move(R);
      Answer.Rung = AnswerRung::Figure8PerQuery;
      return Answer;
    }
  }

  // Rung 2: the floor. Instant-ish, never refuses, but approximate
  // (g++ 2.7.2's eager ambiguity reporting) - a late or approximate
  // answer beats none, so this rung answers even past the deadline,
  // flagged.
  GxxBfsEngine Floor(*Snap.H, Opts.Budget.MaxSubobjects);
  ReadStats.add(RcRungGxx);
  Answer.Result = Floor.lookup(Context, Member);
  Answer.Rung = AnswerRung::GxxApproximate;
  Answer.Approximate = true;
  Answer.DeadlineExpired = D.expired();
  return Answer;
}

//===----------------------------------------------------------------------===//
// The query fast lane: resolved handles, batches, probes
//===----------------------------------------------------------------------===//

void LookupService::resolveKeyOn(const Snapshot &Snap, QueryKey &Key) const {
  Key.Context = Snap.H->findClass(Key.ClassName);
  Key.Member = Snap.H->findName(Key.MemberName);
  Key.Epoch = Snap.Epoch;
}

QueryKey LookupService::resolve(std::string_view Class,
                                std::string_view Member) const {
  ReadStats.add(RcResolves);
  QueryKey Key;
  Key.ClassName.assign(Class);
  Key.MemberName.assign(Member);
  EpochReclaimer::ReadGuard Guard(Reclaimer);
  resolveKeyOn(*currentRaw(), Key);
  return Key;
}

QueryAnswer LookupService::query(QueryKey &Key, const Deadline &D) const {
  EpochReclaimer::ReadGuard Guard(Reclaimer);
  return queryOn(*currentRaw(), Key, D);
}

QueryAnswer LookupService::queryOn(const Snapshot &Snap, QueryKey &Key,
                                   const Deadline &D) const {
  ReadStats.add(RcQueries);
  const uint64_t T0 = Obs.sampleBegin();
  if (Key.Epoch != Snap.Epoch) {
    ReadStats.add(RcStaleKeyReresolves);
    resolveKeyOn(Snap, Key);
    Obs.noteStaleKey(Snap.Epoch);
  }
  QueryAnswer A =
      answerResolved(Snap, Key.Context, Key.ClassName, Key.Member, D);
  finishQuery(QueryPath::Key, T0, A);
  return A;
}

void LookupService::queryMany(std::span<QueryKey> Keys,
                              std::span<QueryAnswer> Answers,
                              const Deadline &D) const {
  // One guard pins one snapshot for the whole batch, so the windowed
  // prefetch+answer passes see a consistent epoch.
  EpochReclaimer::ReadGuard Guard(Reclaimer);
  queryManyOn(*currentRaw(), Keys, Answers, D);
}

void LookupService::queryManyOn(const Snapshot &Snap, std::span<QueryKey> Keys,
                                std::span<QueryAnswer> Answers,
                                const Deadline &D) const {
  assert(Keys.size() == Answers.size() &&
         "one answer slot per key in a batch");
  ReadStats.add(RcBatchQueries);
  ReadStats.add(RcQueries, Keys.size());
  const uint64_t T0 = Obs.sampleBegin();
  const bool Warm = Snap.warm();
  AnswerRung Worst = AnswerRung::Tabulated;

  // Window the batch: pass 1 refreshes stale keys and issues a software
  // prefetch for each key's compact entry, pass 2 answers them. By the
  // time pass 2 reads an entry, its cache line has been in flight for a
  // whole window - the batch pays max(misses), not sum(misses).
  constexpr size_t Window = 16;
  for (size_t Base = 0; Base < Keys.size(); Base += Window) {
    size_t End = std::min(Keys.size(), Base + Window);
    for (size_t I = Base; I != End; ++I) {
      QueryKey &Key = Keys[I];
      if (Key.Epoch != Snap.Epoch) {
        ReadStats.add(RcStaleKeyReresolves);
        resolveKeyOn(Snap, Key);
        Obs.noteStaleKey(Snap.Epoch);
      }
      if (Warm)
        Snap.Table->prefetchEntry(Key.Context, Key.Member);
    }
    for (size_t I = Base; I != End; ++I) {
      Answers[I] = answerResolved(Snap, Keys[I].Context, Keys[I].ClassName,
                                  Keys[I].Member, D);
      Worst = std::max(Worst, Answers[I].Rung);
    }
  }
  if (T0 && !Keys.empty())
    Obs.recordBatchSample(Worst, T0, Snap.Epoch, Keys.size());
  if (Worst != AnswerRung::Tabulated)
    Obs.noteRungDrop(QueryPath::Batch, Worst, Snap.Epoch, D.expired());
}

ProbeAnswer LookupService::probe(QueryKey &Key, const Deadline &D) const {
  EpochReclaimer::ReadGuard Guard(Reclaimer);
  return probeOn(*currentRaw(), Key, D);
}

ProbeAnswer LookupService::probeOn(const Snapshot &Snap, QueryKey &Key,
                                   const Deadline &D) const {
  ReadStats.add(RcProbes);
  const uint64_t T0 = Obs.sampleBegin();
  if (Key.Epoch != Snap.Epoch) {
    ReadStats.add(RcStaleKeyReresolves);
    resolveKeyOn(Snap, Key);
    Obs.noteStaleKey(Snap.Epoch);
  }
  ProbeAnswer A = probeResolved(Snap, Key, D);
  if (T0)
    Obs.recordQuerySample(QueryPath::Probe, A.Rung, T0, A.Epoch,
                          traceFlagsOf(A));
  if (A.Rung != AnswerRung::Tabulated)
    Obs.noteRungDrop(QueryPath::Probe, A.Rung, A.Epoch, A.DeadlineExpired);
  return A;
}

ProbeAnswer LookupService::probeResolved(const Snapshot &Snap,
                                         const QueryKey &Key,
                                         const Deadline &D) const {
  ProbeAnswer A;
  A.Epoch = Snap.Epoch;
  A.TableQuarantined = Snap.quarantined();

  if (Key.Context.rawValue() >= Snap.H->numClasses()) {
    if (Key.Context.isValid())
      ReadStats.add(RcStaleContextRejects);
    ReadStats.add(RcUnknownContexts);
    ReadStats.add(RcRungTabulated);
    A.UnknownContext = true;
    return A;
  }
  if (!Key.Member.isValid()) {
    ReadStats.add(RcRungTabulated);
    return A;
  }

  // The fast lane proper: one compact-entry read, no heap.
  if (Snap.warm()) {
    ReadStats.add(RcRungTabulated);
    LookupTable::Probe P = Snap.Table->probe(Key.Context, Key.Member);
    if (P.StaleContext)
      ReadStats.add(RcStaleContextRejects);
    A.Status = P.Status;
    A.DefiningClass = P.DefiningClass;
    A.Access = P.Access;
    A.SharedStatic = P.SharedStatic;
    A.DeadlineExpired = D.expired();
    return A;
  }

  // Cold or quarantined snapshot: descend the materializing ladder
  // (allocation is unavoidable there - the per-query engines build
  // witness state) and compress to the POD shape.
  QueryAnswer Full =
      answerResolved(Snap, Key.Context, Key.ClassName, Key.Member, D);
  A.Status = Full.Result.Status;
  A.DefiningClass = Full.Result.DefiningClass;
  A.Access = Full.Result.EffectiveAccess.value_or(AccessSpec::Public);
  A.SharedStatic = Full.Result.SharedStatic;
  A.Rung = Full.Rung;
  A.Approximate = Full.Approximate;
  A.DeadlineExpired = Full.DeadlineExpired;
  return A;
}

//===----------------------------------------------------------------------===//
// Transactions
//===----------------------------------------------------------------------===//

Transaction LookupService::beginTxn() const {
  return Transaction(currentEpoch());
}

Status LookupService::commit(const Transaction &Txn) {
  std::lock_guard<std::mutex> Writer(WriterMutex);
  const uint64_t T0 = observabilityNowNanos();
  // Every exit traces: rejects as CommitReject (epoch = the epoch that
  // refused them), publishes as Commit (epoch = the new epoch, and the
  // duration feeds the commit latency histogram).
  auto TraceReject = [&](uint64_t Epoch) {
    Obs.recordWriterEvent(TraceKind::CommitReject, Epoch,
                          observabilityNowNanos() - T0, /*Rung=*/0,
                          TfRejected);
  };

  std::shared_ptr<const Snapshot> Base = snapshot();
  if (Base->Epoch != Txn.baseEpoch()) {
    NumCommitConflicts.fetch_add(1, std::memory_order_relaxed);
    TraceReject(Base->Epoch);
    return Status::error(
        ErrorCode::TransactionConflict,
        "transaction began at epoch " + std::to_string(Txn.baseEpoch()) +
            " but the service is at epoch " + std::to_string(Base->Epoch));
  }

  Expected<Hierarchy> Edited = applyEditScript(*Base->H, Txn.ops(), Opts.Budget);
  if (!Edited) {
    NumCommitRejects.fetch_add(1, std::memory_order_relaxed);
    TraceReject(Base->Epoch);
    return Edited.status();
  }

  // Durable mode: append-then-publish. The record reaches the log (and
  // in sync mode, the platter) before any reader can observe the new
  // epoch; an append failure rolls the whole commit back, exactly like
  // a validation failure. Only *validated* scripts are logged, so
  // recovery replays them through the same engine without re-hitting
  // rejections.
  if (!Opts.WalPath.empty()) {
    if (!Wal) {
      NumCommitRejects.fetch_add(1, std::memory_order_relaxed);
      TraceReject(Base->Epoch);
      return WalHealth.isOk()
                 ? Status::error(ErrorCode::WalIoError,
                                 "durable mode with no open log")
                 : WalHealth;
    }
    if (Status W = Wal->append(Base->Epoch + 1, Txn.ops()); !W.isOk()) {
      NumCommitRejects.fetch_add(1, std::memory_order_relaxed);
      TraceReject(Base->Epoch);
      return W;
    }
    NumWalAppends.fetch_add(1, std::memory_order_relaxed);
    NumWalBytesAppended.store(Wal->bytesAppended(),
                              std::memory_order_relaxed);
    // The durable-but-unpublished window: a kill here must recover the
    // transaction even though the caller never saw commit() return.
    crashPointHit("wal-publish");
  }

  auto Next = std::make_shared<Snapshot>();
  Next->Epoch = Base->Epoch + 1;
  Next->H = std::make_shared<const Hierarchy>(Edited.takeValue());
  if (Opts.WarmOnCommit) {
    Deadline BuildDeadline = warmDeadline();

    // Fast path: the predecessor epoch is warm and trustworthy and the
    // script kept class ids stable, so the new table re-tabulates only
    // the edit's impact set and aliases every other column.
    if (Opts.IncrementalRewarm && Base->warm()) {
      ImpactSet Impact = computeImpactSet(*Base->H, *Next->H, Txn.ops());
      if (!Impact.FullRebuild) {
        Next->Table =
            LookupTable::rewarm(*Next->H, *Base->H, *Base->Table,
                                Impact.MemberNames, BuildDeadline,
                                Opts.WarmThreads);
        if (Next->Table) {
          const LookupTable::BuildStats &B = Next->Table->buildStats();
          NumIncrementalRewarms.fetch_add(1, std::memory_order_relaxed);
          NumColumnsShared.fetch_add(B.ColumnsShared,
                                     std::memory_order_relaxed);
          NumColumnsRetabulated.fetch_add(B.ColumnsBuilt,
                                          std::memory_order_relaxed);
          noteTableBuilt(Next->Table.get());
        }
      }
    }

    // Full build: first epoch shape (cold/quarantined predecessor),
    // RemoveClass scripts, or a rewarm that missed its deadline (the
    // remaining budget may still cover a from-scratch parallel build).
    if (!Next->Table) {
      Next->Table =
          LookupTable::build(*Next->H, BuildDeadline, Opts.WarmThreads);
      noteTableBuilt(Next->Table.get());
    }
  }
  publish(std::move(Next));
  NumCommits.fetch_add(1, std::memory_order_relaxed);
  Obs.recordWriterEvent(TraceKind::Commit, Base->Epoch + 1,
                        observabilityNowNanos() - T0);
  return Status::ok();
}

void LookupService::abort(const Transaction &Txn) {
  (void)Txn;
  NumAbortedTxns.fetch_add(1, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Table lifecycle
//===----------------------------------------------------------------------===//

Status LookupService::warmCurrent(const Deadline &D) {
  std::lock_guard<std::mutex> Writer(WriterMutex);
  const uint64_t T0 = observabilityNowNanos();

  std::shared_ptr<const Snapshot> Base = snapshot();
  if (Base->warm())
    return Status::ok();

  auto Table = LookupTable::build(*Base->H, D, Opts.WarmThreads);
  noteTableBuilt(Table.get());
  if (!Table)
    return Status::error(ErrorCode::DeadlineExceeded,
                         "table build missed its deadline at epoch " +
                             std::to_string(Base->Epoch) +
                             "; epoch stays cold");

  auto Next = std::make_shared<Snapshot>();
  Next->Epoch = Base->Epoch;
  Next->H = Base->H;
  Next->Table = std::move(Table);
  Next->RebuiltByAudit = Base->RebuiltByAudit;
  if (Base->quarantined())
    NumTableRebuilds.fetch_add(1, std::memory_order_relaxed);
  publish(std::move(Next));
  Obs.recordWriterEvent(TraceKind::Warm, Base->Epoch,
                        observabilityNowNanos() - T0);
  return Status::ok();
}

Status LookupService::tableHealth() const {
  std::shared_ptr<const Snapshot> Snap = snapshot();
  if (Snap->quarantined())
    return Status::error(ErrorCode::TableQuarantined,
                         "epoch " + std::to_string(Snap->Epoch) +
                             " table is quarantined pending rebuild");
  if (!Snap->Table)
    return Status::error(ErrorCode::InvalidArgument,
                         "epoch " + std::to_string(Snap->Epoch) +
                             " table is cold");
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Self-audit
//===----------------------------------------------------------------------===//

AuditReport LookupService::auditNow() {
  // Hold the writer lock for the whole pass: the audited snapshot is
  // then guaranteed to still be current when a mismatch forces the
  // quarantine + rebuild, and audits serialize with commits (readers
  // are never blocked - they keep serving the pinned snapshot).
  std::lock_guard<std::mutex> Writer(WriterMutex);
  const uint64_t T0 = observabilityNowNanos();

  std::shared_ptr<const Snapshot> Snap = snapshot();
  AuditReport Report;
  Report.Epoch = Snap->Epoch;
  Report.TableWasWarm = Snap->warm();

  // Layer 1: engine vs engine, the repository's central correctness
  // argument, run against the live hierarchy. Budget-degraded pairs are
  // skips, not failures (the fault injector lands here in tests).
  if (Opts.AuditEngineCheck) {
    DifferentialReport Engines = runDifferentialCheck(*Snap->H, Opts.Budget);
    Report.EnginePairsChecked = Engines.PairsChecked;
    Report.PairsSkipped += Engines.PairsSkipped;
    for (const std::string &M : Engines.Mismatches)
      Report.Mismatches.push_back("engine: " + M);
  }

  // Layer 2: cached table vs a fresh Figure 8 engine on sampled pairs -
  // the check that catches a corrupted or stale cache, which layer 1
  // cannot see (it never consults the table).
  bool TableBad = false;
  if (Report.TableWasWarm) {
    const Hierarchy &H = *Snap->H;
    DominanceLookupEngine Fresh(H, DominanceLookupEngine::Mode::LazyRecursive);
    const std::vector<Symbol> &Members = H.allMemberNames();
    uint64_t TotalPairs =
        static_cast<uint64_t>(H.numClasses()) * Members.size();

    auto CheckPair = [&](ClassId C, Symbol M) {
      LookupResult Cached = Snap->Table->find(H, C, M);
      LookupResult Live = Fresh.lookup(C, M);
      std::string CachedKey = renderLookupForComparison(H, Cached);
      std::string LiveKey = renderLookupForComparison(H, Live);
      ++Report.PairsSampled;
      if (CachedKey != LiveKey) {
        Report.Mismatches.push_back(
            "table: " + std::string(H.className(C)) + "::" +
            std::string(H.spelling(M)) + ": cached table says '" + CachedKey +
            "' but figure8 says '" + LiveKey + "'");
        TableBad = true;
      }
    };

    if (TotalPairs <= Opts.AuditSampleLimit || Opts.AuditSampleLimit == 0) {
      for (uint32_t Idx = 0; Idx != H.numClasses(); ++Idx)
        for (Symbol M : Members)
          CheckPair(ClassId(Idx), M);
    } else {
      // Deterministic sample keyed by the epoch: repeated audits of one
      // epoch re-check the same pairs, different epochs rotate coverage.
      Rng Sampler(0x5eed5eedULL ^ Snap->Epoch);
      for (uint64_t N = 0; N != Opts.AuditSampleLimit; ++N) {
        ClassId C(static_cast<uint32_t>(Sampler.nextBelow(H.numClasses())));
        Symbol M = Members[Sampler.nextBelow(Members.size())];
        CheckPair(C, M);
      }
    }
  }

  // A bad table is quarantined immediately (readers drop to the
  // per-query rungs) and replaced at the same epoch: the hierarchy
  // content did not change, only the cache was rebuilt.
  if (TableBad) {
    Snap->quarantine();
    NumQuarantines.fetch_add(1, std::memory_order_relaxed);
    Report.QuarantinedTable = true;
    // Quarantines bypass the anomaly rate limiter: they are rare and
    // operators must never miss one.
    Obs.noteQuarantine(Snap->Epoch, Report.Mismatches.empty()
                                        ? std::string("table audit mismatch")
                                        : Report.Mismatches.front());
    Obs.recordWriterEvent(TraceKind::Quarantine, Snap->Epoch,
                          observabilityNowNanos() - T0, /*Rung=*/0,
                          TfTableQuarantined);

    auto Next = std::make_shared<Snapshot>();
    Next->Epoch = Snap->Epoch;
    Next->H = Snap->H;
    Next->Table = LookupTable::build(*Snap->H, warmDeadline(),
                                     Opts.WarmThreads);
    noteTableBuilt(Next->Table.get());
    Next->RebuiltByAudit = true;
    publish(std::move(Next));
    NumTableRebuilds.fetch_add(1, std::memory_order_relaxed);
  }

  NumAudits.fetch_add(1, std::memory_order_relaxed);
  NumAuditMismatches.fetch_add(Report.Mismatches.size(),
                               std::memory_order_relaxed);
  Obs.recordWriterEvent(TraceKind::Audit, Snap->Epoch,
                        observabilityNowNanos() - T0);
  return Report;
}

void LookupService::startBackgroundAudit(int64_t IntervalMillis) {
  std::lock_guard<std::mutex> Lock(AuditThreadMutex);
  if (AuditThread.joinable())
    return;
  AuditStopRequested = false;
  AuditThread = std::thread([this, IntervalMillis] {
    std::unique_lock<std::mutex> Lock(AuditThreadMutex);
    while (!AuditStopRequested) {
      if (AuditCv.wait_for(Lock, std::chrono::milliseconds(IntervalMillis),
                           [this] { return AuditStopRequested; }))
        break;
      Lock.unlock();
      auditNow();
      Lock.lock();
    }
  });
}

void LookupService::stopBackgroundAudit() {
  std::thread Worker;
  {
    std::lock_guard<std::mutex> Lock(AuditThreadMutex);
    AuditStopRequested = true;
    Worker = std::move(AuditThread);
  }
  AuditCv.notify_all();
  if (Worker.joinable())
    Worker.join();
}

//===----------------------------------------------------------------------===//
// Observability and test hooks
//===----------------------------------------------------------------------===//

ServiceStats LookupService::stats() const {
  ServiceStats S;
  S.Commits = NumCommits.load(std::memory_order_relaxed);
  S.CommitRejects = NumCommitRejects.load(std::memory_order_relaxed);
  S.CommitConflicts = NumCommitConflicts.load(std::memory_order_relaxed);
  S.AbortedTxns = NumAbortedTxns.load(std::memory_order_relaxed);
  S.Queries = ReadStats.total(RcQueries);
  S.RungAnswers[0] = ReadStats.total(RcRungTabulated);
  S.RungAnswers[1] = ReadStats.total(RcRungFigure8);
  S.RungAnswers[2] = ReadStats.total(RcRungGxx);
  S.UnknownContexts = ReadStats.total(RcUnknownContexts);
  S.Resolves = ReadStats.total(RcResolves);
  S.Probes = ReadStats.total(RcProbes);
  S.BatchQueries = ReadStats.total(RcBatchQueries);
  S.StaleKeyReresolves = ReadStats.total(RcStaleKeyReresolves);
  S.StaleContextRejects = ReadStats.total(RcStaleContextRejects);
  S.Audits = NumAudits.load(std::memory_order_relaxed);
  S.AuditMismatches = NumAuditMismatches.load(std::memory_order_relaxed);
  S.Quarantines = NumQuarantines.load(std::memory_order_relaxed);
  S.TableRebuilds = NumTableRebuilds.load(std::memory_order_relaxed);
  S.IncrementalRewarms = NumIncrementalRewarms.load(std::memory_order_relaxed);
  S.ColumnsShared = NumColumnsShared.load(std::memory_order_relaxed);
  S.ColumnsRetabulated =
      NumColumnsRetabulated.load(std::memory_order_relaxed);
  S.ColumnsDeduped = NumColumnsDeduped.load(std::memory_order_relaxed);
  S.TableEntriesComputed =
      NumTableEntriesComputed.load(std::memory_order_relaxed);
  S.TableEntriesCopied = NumTableEntriesCopied.load(std::memory_order_relaxed);
  S.SnapshotSaves = NumSnapshotSaves.load(std::memory_order_relaxed);
  S.SnapshotRestores = NumSnapshotRestores.load(std::memory_order_relaxed);
  S.SnapshotQuarantines =
      NumSnapshotQuarantines.load(std::memory_order_relaxed);
  S.WalAppends = NumWalAppends.load(std::memory_order_relaxed);
  S.WalBytesAppended = NumWalBytesAppended.load(std::memory_order_relaxed);
  S.WalResets = NumWalResets.load(std::memory_order_relaxed);
  S.WalReplayedRecords =
      NumWalReplayedRecords.load(std::memory_order_relaxed);
  S.WalQuarantines = NumWalQuarantines.load(std::memory_order_relaxed);
  S.SnapshotsRetired = Reclaimer.retiredTotal();
  S.SnapshotsReclaimed = Reclaimer.reclaimedTotal();
  S.SnapshotLimboDepth = Reclaimer.limboDepth();
  S.EpochPinOverflows = Reclaimer.overflowTotal();
  S.LatencySamples = Obs.latencySamplesTotal();
  S.TraceEventsRecorded = Obs.trace().recordedTotal();
  S.TraceEventsOverwritten = Obs.trace().overwrittenTotal();
  S.AnomaliesLogged = Obs.anomalies().loggedTotal();
  S.AnomaliesSuppressed = Obs.anomalies().suppressedTotal();
  std::shared_ptr<const Snapshot> Snap = snapshot();
  S.HierarchyHeapBytes = Snap->H->heapBytes();
  if (Snap->Table)
    S.TableHeapBytes = Snap->Table->heapBytes();
  return S;
}

bool LookupService::corruptTableEntryForTesting(std::string_view Class,
                                                std::string_view Member) {
  std::lock_guard<std::mutex> Writer(WriterMutex);

  std::shared_ptr<const Snapshot> Snap = snapshot();
  if (!Snap->warm())
    return false;
  ClassId Context = Snap->H->findClass(Class);
  Symbol MemberSym = Snap->H->findName(Member);
  if (!Context.isValid() || !MemberSym.isValid())
    return false;
  auto Corrupted =
      Snap->Table->cloneWithCorruptedEntry(*Snap->H, Context, MemberSym);
  if (!Corrupted)
    return false;

  auto Next = std::make_shared<Snapshot>();
  Next->Epoch = Snap->Epoch;
  Next->H = Snap->H;
  Next->Table = std::move(Corrupted);
  Next->RebuiltByAudit = Snap->RebuiltByAudit;
  publish(std::move(Next));
  return true;
}
