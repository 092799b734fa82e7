//===- memlook/service/LookupService.h - Long-lived service -----*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived, concurrency-safe front end over the lookup engines:
/// the production regime the ROADMAP points at, where the hierarchy
/// mutates over time, readers run concurrently with writers, and every
/// query must answer within a deadline even when the cached table is
/// cold, stale, or corrupted.
///
/// Four mechanisms, layered on the immutable-snapshot core:
///
///  1. **Versioned snapshots** (Snapshot.h): every committed state is an
///     epoch-numbered Hierarchy + lazily tabulated LookupTable behind
///     shared_ptr. Readers pin a snapshot and never block writers.
///  2. **Transactional edits** (Transaction.h): beginTxn() records an
///     edit script; commit() replays it onto a copy, validates, and
///     either publishes epoch+1 or rolls back completely with a Status
///     (TransactionConflict when another commit won the epoch race).
///  3. **Deadlines**: queries carry a Deadline (wall clock and/or a
///     cancellation flag). Answers come from an explicit degradation
///     ladder - warm table, then a per-query Figure 8 engine bounded by
///     the deadline, then the g++-style BFS as the
///     approximate-but-instant floor - and every answer records which
///     rung produced it. No query is dropped: the floor rung answers
///     even after the deadline (flagged), because a late approximate
///     answer beats none.
///  4. **Self-audit**: auditNow() (or the background audit thread)
///     differentially checks live snapshots - engine vs engine via
///     DifferentialCheck, and cached table vs a fresh engine on sampled
///     pairs. A mismatch quarantines the table, forces a rebuild, and
///     surfaces a structured AuditReport.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_SERVICE_LOOKUPSERVICE_H
#define MEMLOOK_SERVICE_LOOKUPSERVICE_H

#include "memlook/service/Observability.h"
#include "memlook/service/Snapshot.h"
#include "memlook/service/Transaction.h"
#include "memlook/support/Deadline.h"
#include "memlook/support/EpochReclaimer.h"
#include "memlook/support/ResourceBudget.h"
#include "memlook/support/ShardedCounters.h"
#include "memlook/support/Status.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace memlook {
namespace service {

class WriteAheadLog;

/// The rung of the degradation ladder that produced an answer.
enum class AnswerRung : uint8_t {
  /// The epoch's warm LookupTable: O(1), exact.
  Tabulated = 0,
  /// A per-query lazy-recursive Figure 8 engine under the query's
  /// deadline: exact, bounded work.
  Figure8PerQuery = 1,
  /// The g++ 2.7.2 BFS floor: instant, but approximate (it reports
  /// some unambiguous lookups as ambiguous - Figure 9) and so flagged.
  GxxApproximate = 2,
};

/// Returns "tabulated" / "figure8-per-query" / "gxx-approximate".
const char *answerRungLabel(AnswerRung Rung);

/// One answered query. The ladder guarantees an answer: Result is
/// always meaningful, with Approximate / DeadlineExpired qualifying it.
struct QueryAnswer {
  /// Ok, or UnknownClass when the context class does not exist at this
  /// epoch (the one query shape no rung can answer).
  Status S;
  LookupResult Result;
  /// Which rung answered.
  AnswerRung Rung = AnswerRung::Tabulated;
  /// The epoch the answer reflects.
  uint64_t Epoch = 0;
  /// True when the answer came from the approximate floor rung and may
  /// over-report ambiguity (never wrong-class, never silently partial).
  bool Approximate = false;
  /// True when the answer was produced after the query's deadline had
  /// already expired (the floor rung answers anyway).
  bool DeadlineExpired = false;
  /// True when the epoch's table existed but was quarantined, so the
  /// tabulated rung was skipped.
  bool TableQuarantined = false;
};

/// A resolved query handle: both names interned once at resolve() time,
/// so repeated queries for the same (class, member) pair skip every
/// string hash on the hot path. The key is stamped with the epoch it
/// was resolved against, and query()/queryMany()/probe() transparently
/// re-resolve a key whose epoch no longer matches the snapshot (the
/// spellings are retained for exactly that), so a key minted once stays
/// correct across any number of commits.
///
/// Keys are plain caller-owned values; re-resolution mutates the key in
/// place, so give each thread its own copy rather than sharing one key
/// mutably. An invalid Context/Member simply records that the name did
/// not exist at Epoch - querying such a key is legal and answers
/// UnknownClass / NotFound like the string path would.
struct QueryKey {
  std::string ClassName;
  std::string MemberName;
  /// The epoch Context and Member were resolved at; 0 = never resolved.
  uint64_t Epoch = 0;
  /// The context class at Epoch (invalid: no such class then).
  ClassId Context;
  /// The member name's symbol at Epoch (invalid: interned nowhere then).
  Symbol Member;
};

/// The allocation-free answer of probe(): the "is it unique, and what
/// is it" classification without materializing a LookupResult (whose
/// witness path and candidate vectors are heap-backed). Plain POD all
/// the way down - a warm probe touches one compact column entry and
/// never allocates. DefiningClass / Access / SharedStatic are
/// meaningful only when Status is Unambiguous, and mirror the full
/// query's DefiningClass / EffectiveAccess / SharedStatic exactly.
struct ProbeAnswer {
  LookupStatus Status = LookupStatus::NotFound;
  /// Unambiguous only: ldc of the dominant definition.
  ClassId DefiningClass;
  /// Unambiguous only: access composed along the witness path.
  AccessSpec Access = AccessSpec::Public;
  /// Unambiguous only: the Definition 17(2) static-merge applied.
  bool SharedStatic = false;
  /// Which rung answered (the cold-snapshot fallback descends the same
  /// ladder as query()).
  AnswerRung Rung = AnswerRung::Tabulated;
  /// The epoch the answer reflects.
  uint64_t Epoch = 0;
  /// The key's context class does not exist at this epoch (the POD
  /// stand-in for QueryAnswer's UnknownClass status). Status is
  /// NotFound.
  bool UnknownContext = false;
  bool Approximate = false;
  bool DeadlineExpired = false;
  bool TableQuarantined = false;
};

/// The rung of the recovery ladder that produced a restored service's
/// initial state (LookupService::restore()). The ladder descends
/// snapshot+WAL replay -> snapshot only -> full rebuild; RestoreReport
/// carries a per-rung Status explaining every rung that was passed
/// over, not just the final outcome.
enum class RestoreRung : uint8_t {
  /// The snapshot file alone: loaded, structurally validated,
  /// checksum-clean, and spot-audited against a live kernel. In durable
  /// mode this rung means the write-ahead log held nothing newer (or
  /// could not be used - WalStatus says which).
  Snapshot = 0,
  /// The fallback: full tabulation from the caller's source hierarchy,
  /// because no usable snapshot existed (missing, corrupt, or failed
  /// the restore audit - SnapshotStatus says which). Durable
  /// transactions logged against the pristine source state are still
  /// replayed on top when the log connects to it.
  RebuildFromSource = 1,
  /// The top rung: the snapshot loaded clean *and* committed
  /// transactions the log preserved past it were replayed through the
  /// live transaction engine, recovering epochs no snapshot ever held.
  SnapshotAndWal = 2,
};

/// Returns "snapshot" / "rebuild-from-source" / "snapshot+wal".
const char *restoreRungLabel(RestoreRung Rung);

/// Structured outcome of one LookupService::restore() call.
struct RestoreReport {
  RestoreRung Rung = RestoreRung::RebuildFromSource;
  /// Ok when the snapshot rung served; otherwise why it was passed
  /// over (SnapshotIoError / SnapshotVersionMismatch /
  /// SnapshotChecksumMismatch / SnapshotMalformed / BudgetExceeded /
  /// TableQuarantined when the restore audit caught a wrong answer).
  Status SnapshotStatus;
  /// Epoch the restored service starts at.
  uint64_t Epoch = 0;
  /// Member columns the restore audit recomputed and compared.
  uint64_t AuditColumnsChecked = 0;
  /// True when a bad snapshot file was moved aside for post-mortem.
  bool FileQuarantined = false;
  /// Where it was moved (Path + ".quarantined"), when FileQuarantined.
  std::string QuarantinePath;

  /// True when the restore ran in durable mode (Options.WalPath set)
  /// and the fields below are meaningful.
  bool WalAttempted = false;
  /// Ok when the log was fully absorbed (replayed, already covered by
  /// the snapshot, or legitimately absent); otherwise why the WAL rung
  /// stopped early (WalIoError / WalCorrupt / WalEpochSkew, or the
  /// commit error a record's replay hit).
  Status WalStatus;
  /// Logged transactions replayed through the transaction engine.
  uint64_t WalRecordsReplayed = 0;
  /// Logged transactions skipped as already covered by the snapshot's
  /// epoch (a crash between snapshot write and log compaction leaves
  /// these behind; they are expected, not data loss).
  uint64_t WalRecordsSkipped = 0;
  /// True when durable history provably could not be reapplied: a
  /// corrupt log interior, a broken epoch chain, a fingerprint
  /// mismatch, or a record whose replay failed. A torn tail is NOT
  /// data loss - the interrupted append never reported success.
  bool DataLoss = false;
  /// True when an unusable log was moved aside for post-mortem.
  bool WalQuarantined = false;
  /// Where it was moved (WalPath + ".quarantined"), when quarantined.
  std::string WalQuarantinePath;

  /// One-line structured diagnostic, e.g.
  /// "restore: rung=snapshot+wal epoch=9, 8 columns audited, 3 wal
  /// records replayed".
  std::string toString() const;
};

/// Service tuning knobs.
struct ServiceOptions {
  /// Construction-side caps for transactions (classes/edges/members)
  /// and the budget handed to audit reference engines - including the
  /// deterministic fault injector, which propagates into per-query
  /// Figure 8 work (FaultAfterChecks entries) so every ladder rung is
  /// reachable in tests.
  ResourceBudget Budget;
  /// Build the new epoch's table synchronously inside commit(). When
  /// false, epochs start cold and warm via warmCurrent().
  bool WarmOnCommit = true;
  /// Wall-clock cap in milliseconds for each in-commit table build
  /// (0 = unbounded). An over-deadline build leaves the epoch cold
  /// rather than stalling the writer.
  int64_t WarmBuildMillis = 0;
  /// Worker threads for table builds and rewarms (0 = pick from
  /// hardware concurrency, 1 = serial). Columns are independent, so
  /// builds scale across member names (ParallelTabulator).
  uint32_t WarmThreads = 0;
  /// Rewarm incrementally on commit: re-tabulate only the edit's impact
  /// set and structurally share every other column with the predecessor
  /// epoch's table. Falls back to a full build when the predecessor is
  /// cold/quarantined or the script removed a class.
  bool IncrementalRewarm = true;
  /// Max (class, member) pairs the table-integrity audit samples per
  /// auditNow() (the full table is swept when it is smaller).
  uint64_t AuditSampleLimit = 256;
  /// Also run the engine-vs-engine DifferentialCheck in every audit.
  /// Exact but O(full table); disable for huge hierarchies.
  bool AuditEngineCheck = true;
  /// Member columns restore() recomputes with a live kernel and
  /// compares against the loaded table before trusting a snapshot
  /// (0 disables the audit; the whole table is audited when it has
  /// fewer columns). Structural validation already proved the table
  /// *well-formed*; this samples that it is also *right*.
  uint32_t RestoreAuditColumns = 8;
  /// Durable mode: path of the write-ahead log. When set, commit()
  /// appends the transaction to the log (and syncs it, see
  /// WalSyncEachAppend) *before* publishing, saveSnapshot() compacts
  /// the log back to the snapshot's epoch, and restore() replays
  /// logged transactions newer than the snapshot. Empty = commits are
  /// durable only up to the last saveSnapshot(). A directly
  /// constructed service starts a fresh log (truncating any file at
  /// the path - a fresh service is a fresh history); restore() is the
  /// path that preserves one.
  std::string WalPath;
  /// fdatasync the log on every commit append. True survives power
  /// loss; false survives process death only (the page cache outlives
  /// the process) and commits measurably faster.
  bool WalSyncEachAppend = true;
  /// Observability layer knobs: latency sampling period, trace-ring
  /// and anomaly-log capacities, rate limits (see Observability.h).
  ObservabilityOptions Observability;
};

/// Monotone operation counters (all reads are racy-by-design totals).
struct ServiceStats {
  uint64_t Commits = 0;          ///< transactions published
  uint64_t CommitRejects = 0;    ///< commits rolled back by validation
  uint64_t CommitConflicts = 0;  ///< commits rolled back by epoch race
  uint64_t AbortedTxns = 0;      ///< explicit abort() calls
  uint64_t Queries = 0; ///< queries answered (string, key, and batch keys)
  uint64_t RungAnswers[3] = {0, 0, 0}; ///< answers per AnswerRung
  uint64_t UnknownContexts = 0;  ///< queries naming no class (still answered)
  uint64_t Resolves = 0;         ///< resolve() calls (QueryKeys minted)
  uint64_t Probes = 0;           ///< probe()/probeOn() calls
  uint64_t BatchQueries = 0;     ///< queryMany() batches (keys count as Queries)
  /// Keys transparently re-resolved because a commit outran their epoch.
  uint64_t StaleKeyReresolves = 0;
  /// Audit stat: context ids that were *valid-looking but out of the
  /// epoch's range* (stale or forged), degraded to NotFound by the
  /// release-safe checked find instead of undefined behavior.
  uint64_t StaleContextRejects = 0;
  uint64_t Audits = 0;           ///< audit passes completed
  uint64_t AuditMismatches = 0;  ///< total mismatch lines across audits
  uint64_t Quarantines = 0;      ///< tables quarantined
  uint64_t TableRebuilds = 0;    ///< tables rebuilt after quarantine
  uint64_t IncrementalRewarms = 0; ///< commits warmed by column sharing
  uint64_t ColumnsShared = 0;      ///< columns aliased across epochs
  uint64_t ColumnsRetabulated = 0; ///< columns rebuilt by rewarms
  /// Column pointers unified by structural dedup across all table
  /// builds and rewarms (byte-identical columns stored once).
  uint64_t ColumnsDeduped = 0;
  /// Figure 8 entries computed across all table builds and rewarms (the
  /// sum of BuildStats::Tabulation.EntriesComputed): a count of the
  /// tabulation work that does not depend on host speed.
  uint64_t TableEntriesComputed = 0;
  /// Entries incremental rewarms carried forward from the predecessor
  /// epoch instead of computing (the sum of
  /// BuildStats::Tabulation.EntriesCopied). With TableEntriesComputed it
  /// splits a rewarm into computed and copied rows.
  uint64_t TableEntriesCopied = 0;
  /// Exact heap bytes of the *current* snapshot's table (0 when cold) -
  /// a gauge sampled at stats() time, not a monotone counter.
  uint64_t TableHeapBytes = 0;
  /// Heap bytes of the *current* snapshot's hierarchy (class records,
  /// names, topological order, virtual-base closure) - a gauge sampled
  /// at stats() time.
  uint64_t HierarchyHeapBytes = 0;
  uint64_t SnapshotSaves = 0;    ///< saveSnapshot() calls that hit disk
  uint64_t SnapshotRestores = 0; ///< restores served from the snapshot rung
  uint64_t SnapshotQuarantines = 0; ///< snapshot files moved aside as bad
  uint64_t WalAppends = 0;       ///< commit records appended to the log
  uint64_t WalBytesAppended = 0; ///< bytes those appends wrote
  uint64_t WalResets = 0;        ///< log compactions (saveSnapshot)
  uint64_t WalReplayedRecords = 0; ///< logged txns replayed by restore
  uint64_t WalQuarantines = 0;   ///< log files moved aside as bad
  /// Superseded snapshots handed to the epoch reclaimer at publish.
  uint64_t SnapshotsRetired = 0;
  /// Retired snapshots whose limbo reference was dropped (every pinned
  /// reader had advanced past their retire epoch).
  uint64_t SnapshotsReclaimed = 0;
  /// Retired snapshots still awaiting reclamation - a gauge sampled at
  /// stats() time, not a monotone counter. Bounded by reader progress:
  /// it grows only while some reader guard stays pinned across commits.
  uint64_t SnapshotLimboDepth = 0;
  /// Reader pins that overflowed the per-thread slot table onto the
  /// shared fallback counter (> EpochReclaimer::NumSlots concurrently
  /// registered reader threads; correct but blocks reclamation).
  uint64_t EpochPinOverflows = 0;
  /// Operations clocked into the latency histograms (the 1-in-
  /// SamplePeriod draws; equals the sum of all histogram counts).
  uint64_t LatencySamples = 0;
  /// Events written to the trace ring (sampled queries plus every
  /// writer-side event).
  uint64_t TraceEventsRecorded = 0;
  /// Trace events lost to ring wrap-around (recorded minus retained).
  uint64_t TraceEventsOverwritten = 0;
  /// Anomaly records retained by the anomaly log.
  uint64_t AnomaliesLogged = 0;
  /// Anomalies dropped by the log's per-second rate limiter.
  uint64_t AnomaliesSuppressed = 0;
};

/// Structured outcome of one self-audit pass.
struct AuditReport {
  uint64_t Epoch = 0;
  /// Table-vs-engine pairs compared (0 when the epoch was cold).
  uint64_t PairsSampled = 0;
  /// Engine-vs-engine pairs compared by DifferentialCheck.
  uint64_t EnginePairsChecked = 0;
  /// Pairs a budget-degraded reference engine could not afford.
  uint64_t PairsSkipped = 0;
  bool TableWasWarm = false;
  /// True when this audit quarantined the table and forced a rebuild.
  bool QuarantinedTable = false;
  /// Human-readable description of each disagreement.
  std::vector<std::string> Mismatches;

  bool passed() const { return Mismatches.empty(); }

  /// One-line structured diagnostic, e.g.
  /// "audit epoch 7: 256 sampled, 0 skipped, 2 mismatches, QUARANTINED".
  std::string toString() const;
};

/// The long-lived, concurrency-safe lookup front end. Thread-safety
/// contract: query()/queryOn()/snapshot()/stats() may be called from
/// any number of threads concurrently with each other and with
/// commit()/abort()/auditNow(); writers serialize internally. The hot
/// entry points (query()/probe()/queryMany()/resolve()/currentEpoch())
/// are lock-free: they pin the published snapshot through an
/// epoch-reclamation ReadGuard (support/EpochReclaimer.h) - no mutex,
/// no shared refcount - so readers never block writers and writers
/// never block readers; see docs/SERVICE.md "Concurrency contract".
class LookupService {
public:
  /// Takes ownership of a finalized hierarchy as epoch 1. Asserts on an
  /// unfinalized hierarchy (trusted path); services ingesting untrusted
  /// hierarchies use create().
  explicit LookupService(Hierarchy Initial,
                         ServiceOptions Options = ServiceOptions());

  /// Recoverable twin: NotFinalized instead of the constructor assert.
  static Expected<std::unique_ptr<LookupService>>
  create(Hierarchy Initial, ServiceOptions Options = ServiceOptions());

  //===--------------------------------------------------------------------===
  // Durable snapshots (SnapshotFile.h)
  //===--------------------------------------------------------------------===

  /// Cold-starts a service down the recovery ladder:
  ///
  ///  1. **snapshot+wal rung** (durable mode): everything rung 2 does,
  ///     plus replay of the write-ahead log's committed transactions
  ///     newer than the snapshot through the normal commit path, so
  ///     the recovered table's rewarm/dedup invariants are
  ///     re-established, not deserialized. A torn final append is
  ///     silently truncated; a log with a corrupt interior or broken
  ///     epoch chain is quarantined after its clean prefix is
  ///     salvaged, and the report flags DataLoss;
  ///  2. **snapshot rung**: read + validate the file at \p Path (size
  ///     caps, checksums, structural validation), then recompute
  ///     RestoreAuditColumns member columns with a live kernel and
  ///     require byte-for-byte agreement with the loaded table;
  ///  3. **rebuild rung**: on any snapshot failure, quarantine the file
  ///     (rename to \p Path + ".quarantined", preserving the evidence)
  ///     and tabulate from \p FallbackSource as epoch 1. Durable
  ///     transactions logged against that pristine state (base epoch 1,
  ///     matching hierarchy fingerprint) are still replayed on top.
  ///
  /// \p Report (optional) records which rung served and why. The only
  /// overall failure is an unusable fallback: NotFinalized when the
  /// snapshot rung did not serve and \p FallbackSource is not
  /// finalized. A warm service restored from a snapshot answers
  /// identically to one rebuilt from source - the persistence tests
  /// hold exactly that comparison.
  static Expected<std::unique_ptr<LookupService>>
  restore(const std::string &Path, Hierarchy FallbackSource,
          ServiceOptions Options = ServiceOptions(),
          RestoreReport *Report = nullptr);

  /// Atomically writes the current snapshot (epoch, hierarchy, and the
  /// table when warm - a quarantined table is never persisted) to
  /// \p Path via temp-file + fsync + rename. In durable mode a
  /// successful write then compacts the write-ahead log to a single
  /// base record at the saved epoch; a failed compaction is reported
  /// through stats only, never as a save failure - the old log still
  /// covers every epoch past the snapshot, so durability is unharmed.
  Status saveSnapshot(const std::string &Path) const;

  ~LookupService();

  LookupService(const LookupService &) = delete;
  LookupService &operator=(const LookupService &) = delete;

  //===--------------------------------------------------------------------===
  // Snapshots and queries
  //===--------------------------------------------------------------------===

  /// Pins the current snapshot with a shared_ptr: one pointer copy under
  /// a brief lock. The returned snapshot never changes; run any number
  /// of queryOn() calls against it for a consistent multi-query view.
  /// This is the slow-path / external-pinning API - the hot entry points
  /// (query(), probe(), queryMany(), resolve()) pin lock-free through
  /// the epoch reclaimer instead and never touch SnapMutex.
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Epoch of the current snapshot: a single relaxed atomic read,
  /// updated at publish (hot in stale-key re-resolution checks).
  uint64_t currentEpoch() const {
    return CurrentEpoch.load(std::memory_order_relaxed);
  }

  /// Resolves \p Member in the context of \p Class on the current
  /// snapshot, degrading along the ladder as \p D demands.
  QueryAnswer query(std::string_view Class, std::string_view Member,
                    const Deadline &D = Deadline::never()) const;

  /// Same, against an explicitly pinned snapshot.
  QueryAnswer queryOn(const Snapshot &Snap, std::string_view Class,
                      std::string_view Member,
                      const Deadline &D = Deadline::never()) const;

  //===--------------------------------------------------------------------===
  // The query fast lane: resolved handles, batches, probes
  //===--------------------------------------------------------------------===

  /// Interns both names once against the current snapshot and returns a
  /// reusable handle for the fast-lane entry points below. Unknown
  /// names are recorded as invalid ids, not errors - the key still
  /// queries (and re-resolves itself if a later epoch introduces them).
  QueryKey resolve(std::string_view Class, std::string_view Member) const;

  /// Resolved-handle query: identical answers to the string overload,
  /// with zero string hashing while \p Key's epoch matches the current
  /// snapshot. A stale key (a commit happened since it was resolved) is
  /// transparently re-resolved in place first.
  QueryAnswer query(QueryKey &Key, const Deadline &D = Deadline::never()) const;

  /// Same, against an explicitly pinned snapshot.
  QueryAnswer queryOn(const Snapshot &Snap, QueryKey &Key,
                      const Deadline &D = Deadline::never()) const;

  /// Batch query: answers Keys[I] into Answers[I]. Pins the snapshot
  /// once for the whole batch (one lock + shared_ptr copy amortized
  /// over N keys) and software-prefetches the column entries a window
  /// ahead, so the per-key cache misses overlap instead of serializing.
  /// \p Answers must be exactly Keys.size() long.
  void queryMany(std::span<QueryKey> Keys, std::span<QueryAnswer> Answers,
                 const Deadline &D = Deadline::never()) const;

  /// Same, against an explicitly pinned snapshot.
  void queryManyOn(const Snapshot &Snap, std::span<QueryKey> Keys,
                   std::span<QueryAnswer> Answers,
                   const Deadline &D = Deadline::never()) const;

  /// The allocation-free rung: classification + target member straight
  /// from the 24-byte compact entry, no witness materialization. On a
  /// warm snapshot this reads one column entry and touches no heap; on
  /// a cold or quarantined one it descends the same ladder as query()
  /// (which allocates internally) and compresses the result. Stale and
  /// even forged context ids degrade to NotFound + the
  /// StaleContextRejects audit stat - never undefined behavior.
  ProbeAnswer probe(QueryKey &Key, const Deadline &D = Deadline::never()) const;

  /// Same, against an explicitly pinned snapshot.
  ProbeAnswer probeOn(const Snapshot &Snap, QueryKey &Key,
                      const Deadline &D = Deadline::never()) const;

  //===--------------------------------------------------------------------===
  // Transactional edits
  //===--------------------------------------------------------------------===

  /// Starts an edit script against the current epoch.
  Transaction beginTxn() const;

  /// Atomically applies \p Txn: validates the edited hierarchy and
  /// either publishes epoch+1 (ok) or changes nothing and returns why -
  /// TransactionConflict on an epoch race, UnknownClass /
  /// DuplicateClass / DuplicateBase / InheritanceCycle /
  /// InvalidUsingTarget / BudgetExceeded / InvalidArgument from
  /// replay+validation. After a failed commit every lookup answer is
  /// bit-identical to before the transaction began.
  Status commit(const Transaction &Txn);

  /// Explicitly discards \p Txn (bookkeeping only; a dropped
  /// Transaction rolls back just as completely).
  void abort(const Transaction &Txn);

  //===--------------------------------------------------------------------===
  // Table lifecycle
  //===--------------------------------------------------------------------===

  /// Builds (or rebuilds, if quarantined) the current epoch's table.
  /// Ok if the epoch ends warm; DeadlineExceeded when \p D expired
  /// mid-build (the epoch stays cold and keeps serving per-query).
  Status warmCurrent(const Deadline &D = Deadline::never());

  //===--------------------------------------------------------------------===
  // Self-audit
  //===--------------------------------------------------------------------===

  /// Runs one audit pass against the live snapshot: DifferentialCheck
  /// across engines (when AuditEngineCheck) plus a sampled comparison
  /// of the cached table against a fresh Figure 8 engine. On mismatch:
  /// quarantines the table, publishes a rebuilt snapshot at the same
  /// epoch, and reports QuarantinedTable.
  AuditReport auditNow();

  /// Starts a background thread auditing every \p IntervalMillis until
  /// stopBackgroundAudit() or destruction. No-op if already running.
  void startBackgroundAudit(int64_t IntervalMillis);

  /// Stops the background audit thread, joining it.
  void stopBackgroundAudit();

  //===--------------------------------------------------------------------===
  // Observability and test hooks
  //===--------------------------------------------------------------------===

  ServiceStats stats() const;

  /// Prometheus-style text exposition: every catalog metric
  /// (serviceMetricCatalog()) plus the non-empty latency histograms
  /// with cumulative 'le' buckets. See docs/OBSERVABILITY.md.
  std::string metricsText() const;

  /// The same data as a JSON document: stats keyed by ServiceStats
  /// field name, histograms as percentile summaries (p50/p90/p99/p999)
  /// rather than bucket lists.
  std::string metricsJson() const;

  /// Copies out the trace ring's stable records, oldest first.
  /// Non-destructive and lock-free against concurrent readers and the
  /// writer - see TraceRing::drain().
  std::vector<TraceEvent> drainTrace() const;

  /// The anomaly log's retained records, oldest first.
  std::vector<AnomalyRecord> recentAnomalies() const;

  /// Merged latency histogram for one query path (all rungs), or one
  /// (path, rung) cell. Monotone snapshots: diffSince() an earlier one
  /// to window a measurement (the bench harness does).
  LatencyHistogram latencySnapshot(QueryPath Path) const;
  LatencyHistogram latencySnapshot(QueryPath Path, AnswerRung Rung) const;

  /// Commit durations (validate + WAL append + warm + publish).
  LatencyHistogram commitLatencySnapshot() const;

  const ServiceOptions &options() const { return Opts; }

  /// Health of the current snapshot's cache through the Status channel:
  /// ok when warm, TableQuarantined when quarantined, NotFinalized
  /// never (snapshots are always finalized), InvalidArgument when cold.
  Status tableHealth() const;

  /// Test-and-demo hook: republishes the current snapshot with one
  /// table answer deliberately corrupted, simulating the cache damage
  /// the self-audit exists to catch. False when the epoch is cold or
  /// the names are unknown.
  bool corruptTableEntryForTesting(std::string_view Class,
                                   std::string_view Member);

private:
  /// Restore-rung constructor: adopts an already-loaded epoch (possibly
  /// > 1) instead of tabulating from scratch. The table may be null
  /// (cold snapshot file); WarmOnCommit then builds it here.
  struct RestoreTag {};
  LookupService(RestoreTag, uint64_t Epoch,
                std::shared_ptr<const Hierarchy> H,
                std::shared_ptr<const LookupTable> Table,
                ServiceOptions Options);

  void publish(std::shared_ptr<const Snapshot> Next);

  /// The table build deadline commit() uses (WarmBuildMillis).
  Deadline warmDeadline() const;

  /// (Re-)resolves \p Key's ids against \p Snap and restamps its epoch.
  void resolveKeyOn(const Snapshot &Snap, QueryKey &Key) const;

  /// The degradation ladder after name resolution - shared by the
  /// string-keyed and resolved-handle paths. \p ClassSpelling is only
  /// read on the unknown-context error path.
  QueryAnswer answerResolved(const Snapshot &Snap, ClassId Context,
                             std::string_view ClassSpelling, Symbol Member,
                             const Deadline &D) const;

  /// probeOn() after key refresh: the original probe body, split out
  /// so the sampled-latency wrapper has one exit to clock.
  ProbeAnswer probeResolved(const Snapshot &Snap, const QueryKey &Key,
                            const Deadline &D) const;

  /// Post-answer observability for the single-key paths: closes the
  /// latency sample opened by Obs.sampleBegin() (when T0 != 0) and
  /// logs a rung-drop anomaly for non-tabulated answers.
  void finishQuery(QueryPath Path, uint64_t T0, const QueryAnswer &A) const;

  ServiceOptions Opts;

  /// The observability instruments (Observability.h): latency
  /// histograms, trace ring, anomaly log. Mutable because recording
  /// from the const read paths is logically const - same contract as
  /// ReadStats below.
  mutable ObservabilityCenter Obs{Opts.Observability};

  /// Guards Current only; held for pointer copies, never across work.
  /// Only the slow-path snapshot() API and publish() touch it - the hot
  /// read paths go through CurrentPtr + Reclaimer below.
  mutable std::mutex SnapMutex;
  std::shared_ptr<const Snapshot> Current;

  /// Lock-free publication point for the hot read paths. publish()
  /// stores here (with EpochReclaimer::pointerOrder()) after swapping
  /// Current; guard-pinned readers load it and dereference raw. The
  /// pointee is kept alive by Current / external snapshot() holders /
  /// the reclaimer's limbo list - never by the reader.
  std::atomic<const Snapshot *> CurrentPtr{nullptr};

  /// currentEpoch()'s backing store, updated at publish.
  std::atomic<uint64_t> CurrentEpoch{0};

  /// Epoch-based reclamation domain for guard-pinned readers. publish()
  /// retires the superseded snapshot here (type-erased shared_ptr, so
  /// external pins stay safe); the writer-side retire/reclaim calls are
  /// already serialized by WriterMutex. Destroyed before Current, which
  /// is the order we want: the drain happens while the final snapshot
  /// is still alive.
  EpochReclaimer Reclaimer;

  /// Loads the published snapshot for a guard-pinned read. Only valid
  /// while an EpochReclaimer::ReadGuard on Reclaimer is live.
  const Snapshot *currentRaw() const {
    return CurrentPtr.load(EpochReclaimer::pointerOrder());
  }

  /// Constructor helper: installs the first snapshot (no readers yet,
  /// nothing to retire).
  void adoptInitial(std::shared_ptr<const Snapshot> Snap);

  /// Adds a freshly built, rewarmed or loaded table's build counters
  /// (dedup, entries computed) to the service totals; null is a no-op.
  void noteTableBuilt(const LookupTable *Table);

  /// Serializes writers (commit, warm, audit-rebuild, corrupt-hook,
  /// snapshot save + log compaction). Mutable because saveSnapshot()
  /// is logically const but must fence the log against racing commits.
  mutable std::mutex WriterMutex;

  /// Durable mode (Opts.WalPath non-empty): the open log, guarded by
  /// WriterMutex. Null with WalPath set means the log could not be
  /// opened - WalHealth says why, and commit() refuses rather than
  /// silently dropping durability.
  std::unique_ptr<WriteAheadLog> Wal;
  Status WalHealth;

  // Monotone write-side stats counters (relaxed; totals, not
  // synchronization). These are bumped under WriterMutex or on rare
  // paths, so single atomics are fine.
  mutable std::atomic<uint64_t> NumCommits{0}, NumCommitRejects{0},
      NumCommitConflicts{0}, NumAbortedTxns{0}, NumAudits{0},
      NumAuditMismatches{0}, NumQuarantines{0}, NumTableRebuilds{0},
      NumIncrementalRewarms{0}, NumColumnsShared{0}, NumColumnsRetabulated{0},
      NumColumnsDeduped{0}, NumTableEntriesComputed{0},
      NumTableEntriesCopied{0}, NumSnapshotSaves{0},
      NumSnapshotRestores{0}, NumSnapshotQuarantines{0}, NumWalAppends{0},
      NumWalBytesAppended{0}, NumWalResets{0}, NumWalReplayedRecords{0},
      NumWalQuarantines{0};

  /// Read-side counters, bumped on every query by every reader thread -
  /// sharded so counting does not ping-pong cache lines between
  /// readers. stats() sums the shards (eventually consistent).
  enum ReadCounter : size_t {
    RcQueries = 0,
    RcRungTabulated,
    RcRungFigure8,
    RcRungGxx,
    RcUnknownContexts,
    RcResolves,
    RcProbes,
    RcBatchQueries,
    RcStaleKeyReresolves,
    RcStaleContextRejects,
    RcNumReadCounters
  };
  mutable ShardedCounters<RcNumReadCounters> ReadStats;

  // Background audit thread state.
  std::mutex AuditThreadMutex;
  std::condition_variable AuditCv;
  std::thread AuditThread;
  bool AuditStopRequested = false;
};

} // namespace service
} // namespace memlook

#endif // MEMLOOK_SERVICE_LOOKUPSERVICE_H
