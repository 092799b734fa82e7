//===- Observability.cpp - Service observability ------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/service/Observability.h"

#include "memlook/service/LookupService.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string_view>

using namespace memlook;
using namespace memlook::service;

const char *memlook::service::queryPathLabel(QueryPath Path) {
  switch (Path) {
  case QueryPath::String:
    return "string";
  case QueryPath::Key:
    return "key";
  case QueryPath::Probe:
    return "probe";
  case QueryPath::Batch:
    return "batch";
  }
  return "unknown";
}

const char *memlook::service::traceKindLabel(TraceKind Kind) {
  switch (Kind) {
  case TraceKind::Query:
    return "query";
  case TraceKind::Probe:
    return "probe";
  case TraceKind::Batch:
    return "batch";
  case TraceKind::Commit:
    return "commit";
  case TraceKind::CommitReject:
    return "commit-reject";
  case TraceKind::Restore:
    return "restore";
  case TraceKind::Warm:
    return "warm";
  case TraceKind::Audit:
    return "audit";
  case TraceKind::Quarantine:
    return "quarantine";
  case TraceKind::SnapshotSave:
    return "snapshot-save";
  }
  return "unknown";
}

const char *memlook::service::anomalyKindLabel(AnomalyKind Kind) {
  switch (Kind) {
  case AnomalyKind::RungDrop:
    return "rung-drop";
  case AnomalyKind::StaleKeyReresolve:
    return "stale-key-reresolve";
  case AnomalyKind::SlowQuery:
    return "slow-query";
  case AnomalyKind::Quarantine:
    return "quarantine";
  }
  return "unknown";
}

namespace {

const char *rungFieldLabel(TraceKind Kind, uint8_t Rung) {
  if (Kind == TraceKind::Restore)
    return restoreRungLabel(static_cast<RestoreRung>(Rung));
  return answerRungLabel(static_cast<AnswerRung>(Rung));
}

void appendFlags(std::string &Out, uint8_t Flags) {
  if (!Flags)
    return;
  Out += " [";
  bool First = true;
  auto Add = [&](uint8_t Bit, const char *Name) {
    if (!(Flags & Bit))
      return;
    if (!First)
      Out += ",";
    Out += Name;
    First = false;
  };
  Add(TfApproximate, "approximate");
  Add(TfDeadlineExpired, "deadline-expired");
  Add(TfTableQuarantined, "table-quarantined");
  Add(TfStaleKey, "stale-key");
  Add(TfUnknownContext, "unknown-context");
  Add(TfRejected, "rejected");
  Out += "]";
}

} // namespace

std::string TraceEvent::toString() const {
  std::string Out = traceKindLabel(Kind);
  Out += " epoch=" + std::to_string(Epoch);
  switch (Kind) {
  case TraceKind::Query:
  case TraceKind::Probe:
  case TraceKind::Batch:
  case TraceKind::Restore:
    Out += std::string(" rung=") + rungFieldLabel(Kind, Rung);
    break;
  default:
    break;
  }
  Out += " " + std::to_string(DurationNanos) + "ns";
  appendFlags(Out, Flags);
  return Out;
}

std::string AnomalyRecord::toString() const {
  std::string Out = anomalyKindLabel(Kind);
  Out += " epoch=" + std::to_string(Epoch);
  if (Kind == AnomalyKind::RungDrop || Kind == AnomalyKind::SlowQuery)
    Out += std::string(" rung=") +
           answerRungLabel(static_cast<AnswerRung>(Rung));
  if (DurationNanos)
    Out += " " + std::to_string(DurationNanos) + "ns";
  if (!Detail.empty())
    Out += ": " + Detail;
  return Out;
}

//===----------------------------------------------------------------------===//
// TraceRing
//===----------------------------------------------------------------------===//

TraceRing::TraceRing(uint32_t CapacityPerShard)
    : Capacity(std::bit_ceil(std::max<uint32_t>(CapacityPerShard, 8))) {
  for (Shard &S : Shards)
    S.Entries = std::make_unique<Entry[]>(Capacity);
}

size_t TraceRing::shardIndex() {
  static std::atomic<uint32_t> NextShard{0};
  thread_local uint32_t Assigned =
      NextShard.fetch_add(1, std::memory_order_relaxed);
  return Assigned & (NumShards - 1);
}

void TraceRing::record(const TraceEvent &E) {
  Shard &S = Shards[shardIndex()];
  uint64_t Slot = S.Head.fetch_add(1, std::memory_order_relaxed);
  Entry &Slotted = S.Entries[Slot & (Capacity - 1)];

  constexpr uint64_t MaxDuration = (uint64_t(1) << 40) - 1;
  uint64_t Packed = uint64_t(static_cast<uint8_t>(E.Kind)) |
                    (uint64_t(E.Rung) << 8) | (uint64_t(E.Flags) << 16) |
                    (std::min(E.DurationNanos, MaxDuration) << 24);

  // Per-entry seqlock: odd while the payload words are in flight. The
  // payload words are relaxed atomics, so a racing drain() reads
  // well-formed words and the version check tells it whether they
  // belong to one publication. (Two writers can collide on an entry
  // only after lapping a whole shard ring; the drain-side check then
  // drops at most that one blended record.)
  uint64_t V = Slotted.Ver.load(std::memory_order_relaxed);
  Slotted.Ver.store(V + 1, std::memory_order_release);
  Slotted.Packed.store(Packed, std::memory_order_relaxed);
  Slotted.Epoch.store(E.Epoch, std::memory_order_relaxed);
  Slotted.When.store(E.WhenNanos, std::memory_order_relaxed);
  Slotted.Ver.store(V + 2, std::memory_order_release);
}

std::vector<TraceEvent> TraceRing::drain() const {
  std::vector<TraceEvent> Out;
  Out.reserve(NumShards * 8);
  for (const Shard &S : Shards) {
    uint64_t Head = S.Head.load(std::memory_order_acquire);
    uint64_t Kept = std::min<uint64_t>(Head, Capacity);
    for (uint64_t I = 0; I != Kept; ++I) {
      const Entry &E = S.Entries[I];
      uint64_t V1 = E.Ver.load(std::memory_order_acquire);
      if (V1 == 0 || (V1 & 1))
        continue; // never written, or mid-write
      uint64_t Packed = E.Packed.load(std::memory_order_relaxed);
      uint64_t Epoch = E.Epoch.load(std::memory_order_relaxed);
      uint64_t When = E.When.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (E.Ver.load(std::memory_order_relaxed) != V1)
        continue; // overwritten while we read
      TraceEvent Ev;
      Ev.Kind = static_cast<TraceKind>(Packed & 0xff);
      Ev.Rung = static_cast<uint8_t>((Packed >> 8) & 0xff);
      Ev.Flags = static_cast<uint8_t>((Packed >> 16) & 0xff);
      Ev.DurationNanos = Packed >> 24;
      Ev.Epoch = Epoch;
      Ev.WhenNanos = When;
      Out.push_back(Ev);
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              return A.WhenNanos < B.WhenNanos;
            });
  return Out;
}

uint64_t TraceRing::recordedTotal() const {
  uint64_t N = 0;
  for (const Shard &S : Shards)
    N += S.Head.load(std::memory_order_relaxed);
  return N;
}

uint64_t TraceRing::overwrittenTotal() const {
  uint64_t N = 0;
  for (const Shard &S : Shards) {
    uint64_t Head = S.Head.load(std::memory_order_relaxed);
    if (Head > Capacity)
      N += Head - Capacity;
  }
  return N;
}

//===----------------------------------------------------------------------===//
// AnomalyLog
//===----------------------------------------------------------------------===//

AnomalyLog::AnomalyLog(uint32_t Capacity, uint32_t RatePerSecond)
    : Capacity(std::max<uint32_t>(Capacity, 1)),
      RatePerSecond(std::max<uint32_t>(RatePerSecond, 1)),
      Tokens(this->RatePerSecond) {}

bool AnomalyLog::tryAcquireToken() {
  // Cheap rejection first: a storm of anomalies must cost relaxed
  // atomics, never the clock-and-mutex path below per event.
  if (Tokens.load(std::memory_order_relaxed) > 0 &&
      Tokens.fetch_sub(1, std::memory_order_relaxed) > 0)
    return true;
  // Bucket looks dry: refill at second granularity. One racing thread
  // wins the CAS and takes the first token of the new second.
  uint64_t Second = observabilityNowNanos() / 1'000'000'000;
  uint64_t Last = LastRefillSecond.load(std::memory_order_relaxed);
  if (Second != Last && LastRefillSecond.compare_exchange_strong(
                            Last, Second, std::memory_order_relaxed)) {
    Tokens.store(int64_t(RatePerSecond) - 1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool AnomalyLog::note(AnomalyKind Kind, uint64_t Epoch, uint8_t Rung,
                      uint64_t DurationNanos, std::string Detail, bool Force) {
  if (!Force && !tryAcquireToken()) {
    NumSuppressed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  AnomalyRecord R;
  R.Kind = Kind;
  R.Epoch = Epoch;
  R.Rung = Rung;
  R.DurationNanos = DurationNanos;
  R.WhenNanos = observabilityNowNanos();
  R.Detail = std::move(Detail);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Ring.size() < Capacity) {
      Ring.push_back(std::move(R));
    } else {
      Ring[Next] = std::move(R);
      Next = (Next + 1) % Capacity;
    }
  }
  NumLogged.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<AnomalyRecord> AnomalyLog::recent() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<AnomalyRecord> Out;
  Out.reserve(Ring.size());
  // Oldest first: the ring wraps at Next once full.
  for (size_t I = 0; I != Ring.size(); ++I)
    Out.push_back(Ring[(Next + I) % Ring.size()]);
  return Out;
}

//===----------------------------------------------------------------------===//
// ObservabilityCenter
//===----------------------------------------------------------------------===//

ObservabilityCenter::ObservabilityCenter(const ObservabilityOptions &O)
    : Opts(O),
      SampleMask(O.SamplePeriod == 0 ? ~uint64_t(0)
                                     : uint64_t(std::bit_ceil(std::max<
                                           uint32_t>(O.SamplePeriod, 1))) -
                                           1),
      Ring(O.TraceShardCapacity),
      Anomalies(O.AnomalyCapacity, O.AnomalyRatePerSecond) {}

void ObservabilityCenter::recordQuerySample(QueryPath Path, AnswerRung Rung,
                                            uint64_t T0, uint64_t Epoch,
                                            uint8_t Flags) {
  uint64_t Now = observabilityNowNanos();
  uint64_t Duration = Now - T0;
  PathLatency[static_cast<size_t>(Path)][static_cast<size_t>(Rung)].record(
      Duration);

  TraceEvent E;
  E.Kind = Path == QueryPath::Probe ? TraceKind::Probe : TraceKind::Query;
  E.Rung = static_cast<uint8_t>(Rung);
  E.Flags = Flags;
  E.Epoch = Epoch;
  E.DurationNanos = Duration;
  E.WhenNanos = Now;
  Ring.record(E);

  if (Opts.SlowQueryNanos && Duration >= Opts.SlowQueryNanos)
    Anomalies.note(AnomalyKind::SlowQuery, Epoch,
                   static_cast<uint8_t>(Rung), Duration,
                   std::string(queryPathLabel(Path)) + " path");
}

void ObservabilityCenter::recordBatchSample(AnswerRung WorstRung, uint64_t T0,
                                            uint64_t Epoch, size_t NumKeys) {
  uint64_t Now = observabilityNowNanos();
  uint64_t Duration = Now - T0;
  PathLatency[static_cast<size_t>(QueryPath::Batch)]
             [static_cast<size_t>(WorstRung)]
                 .record(Duration);

  TraceEvent E;
  E.Kind = TraceKind::Batch;
  E.Rung = static_cast<uint8_t>(WorstRung);
  E.Epoch = Epoch;
  E.DurationNanos = Duration;
  E.WhenNanos = Now;
  Ring.record(E);

  if (Opts.SlowQueryNanos && NumKeys &&
      Duration / NumKeys >= Opts.SlowQueryNanos)
    Anomalies.note(AnomalyKind::SlowQuery, Epoch,
                   static_cast<uint8_t>(WorstRung), Duration,
                   "batch of " + std::to_string(NumKeys) + " keys");
}

void ObservabilityCenter::recordWriterEvent(TraceKind Kind, uint64_t Epoch,
                                            uint64_t DurationNanos,
                                            uint8_t Rung, uint8_t Flags) {
  if (Kind == TraceKind::Commit)
    CommitNanos.record(DurationNanos);
  TraceEvent E;
  E.Kind = Kind;
  E.Rung = Rung;
  E.Flags = Flags;
  E.Epoch = Epoch;
  E.DurationNanos = DurationNanos;
  E.WhenNanos = observabilityNowNanos();
  Ring.record(E);
}

void ObservabilityCenter::noteRungDrop(QueryPath Path, AnswerRung Rung,
                                       uint64_t Epoch, bool DeadlineExpired) {
  Anomalies.note(AnomalyKind::RungDrop, Epoch, static_cast<uint8_t>(Rung), 0,
                 std::string(queryPathLabel(Path)) + " path answered by " +
                     answerRungLabel(Rung) +
                     (DeadlineExpired ? " past its deadline" : ""));
}

void ObservabilityCenter::noteStaleKey(uint64_t Epoch) {
  Anomalies.note(AnomalyKind::StaleKeyReresolve, Epoch, 0, 0, std::string());
}

void ObservabilityCenter::noteQuarantine(uint64_t Epoch, std::string Detail) {
  Anomalies.note(AnomalyKind::Quarantine, Epoch, 0, 0, std::move(Detail),
                 /*Force=*/true);
}

LatencyHistogram ObservabilityCenter::latency(QueryPath Path,
                                              AnswerRung Rung) const {
  return PathLatency[static_cast<size_t>(Path)][static_cast<size_t>(Rung)]
      .snapshot();
}

LatencyHistogram ObservabilityCenter::latencyMerged(QueryPath Path) const {
  LatencyHistogram Out;
  for (size_t R = 0; R != 3; ++R)
    Out.merge(PathLatency[static_cast<size_t>(Path)][R].snapshot());
  return Out;
}

LatencyHistogram ObservabilityCenter::commitLatency() const {
  return CommitNanos.snapshot();
}

uint64_t ObservabilityCenter::latencySamplesTotal() const {
  uint64_t N = 0;
  for (size_t P = 0; P != NumQueryPaths; ++P)
    for (size_t R = 0; R != 3; ++R)
      N += PathLatency[P][R].countTotal();
  return N;
}

//===----------------------------------------------------------------------===//
// The metric catalog
//===----------------------------------------------------------------------===//

namespace {

// One macro per scalar stat keeps the Prometheus name, the ServiceStats
// field, and the help line in one row - the shape check_docs.py parses.
#define COUNTER(Prom, Field, Help)                                            \
  MetricDesc {                                                                \
    Prom, #Field, MetricDesc::Kind::Counter, Help,                            \
        [](const ServiceStats &S) -> uint64_t { return S.Field; }             \
  }
#define GAUGE(Prom, Field, Help)                                              \
  MetricDesc {                                                                \
    Prom, #Field, MetricDesc::Kind::Gauge, Help,                              \
        [](const ServiceStats &S) -> uint64_t { return S.Field; }             \
  }
// RungAnswers is an array indexed by AnswerRung; each labeled series
// reads one element.
#define RUNG_COUNTER(Prom, Idx, Help)                                         \
  MetricDesc {                                                                \
    Prom, "RungAnswers", MetricDesc::Kind::Counter, Help,                     \
        [](const ServiceStats &S) -> uint64_t { return S.RungAnswers[Idx]; }  \
  }

const MetricDesc Catalog[] = {
    COUNTER("memlook_commits_total", Commits, "Transactions published."),
    COUNTER("memlook_commit_rejects_total", CommitRejects,
            "Commits rolled back by validation or a WAL append failure."),
    COUNTER("memlook_commit_conflicts_total", CommitConflicts,
            "Commits rolled back by an epoch race."),
    COUNTER("memlook_aborted_txns_total", AbortedTxns,
            "Explicit abort() calls."),
    COUNTER("memlook_queries_total", Queries,
            "Queries answered (string, key, and batch keys)."),
    RUNG_COUNTER("memlook_rung_answers_total{rung=\"tabulated\"}", 0,
                 "Answers served per degradation-ladder rung."),
    RUNG_COUNTER("memlook_rung_answers_total{rung=\"figure8-per-query\"}", 1,
                 "Answers served per degradation-ladder rung."),
    RUNG_COUNTER("memlook_rung_answers_total{rung=\"gxx-approximate\"}", 2,
                 "Answers served per degradation-ladder rung."),
    COUNTER("memlook_unknown_contexts_total", UnknownContexts,
            "Queries naming no class at their epoch (still answered)."),
    COUNTER("memlook_resolves_total", Resolves,
            "resolve() calls (QueryKeys minted)."),
    COUNTER("memlook_probes_total", Probes, "probe()/probeOn() calls."),
    COUNTER("memlook_batch_queries_total", BatchQueries,
            "queryMany() batches (their keys count as queries)."),
    COUNTER("memlook_stale_key_reresolves_total", StaleKeyReresolves,
            "Keys transparently re-resolved after a commit outran them."),
    COUNTER("memlook_stale_context_rejects_total", StaleContextRejects,
            "Valid-looking context ids out of the epoch's range, degraded "
            "to NotFound."),
    COUNTER("memlook_audits_total", Audits, "Audit passes completed."),
    COUNTER("memlook_audit_mismatches_total", AuditMismatches,
            "Total mismatch lines across audits."),
    COUNTER("memlook_quarantines_total", Quarantines, "Tables quarantined."),
    COUNTER("memlook_table_rebuilds_total", TableRebuilds,
            "Tables rebuilt after quarantine."),
    COUNTER("memlook_incremental_rewarms_total", IncrementalRewarms,
            "Commits warmed by column sharing."),
    COUNTER("memlook_columns_shared_total", ColumnsShared,
            "Columns aliased across epochs by incremental rewarms."),
    COUNTER("memlook_columns_retabulated_total", ColumnsRetabulated,
            "Columns rebuilt by rewarms."),
    COUNTER("memlook_columns_deduped_total", ColumnsDeduped,
            "Column pointers unified by structural dedup."),
    COUNTER("memlook_table_entries_computed_total", TableEntriesComputed,
            "Figure 8 entries computed by table builds and rewarms."),
    COUNTER("memlook_table_entries_copied_total", TableEntriesCopied,
            "Figure 8 entries rewarms copied from the predecessor epoch."),
    GAUGE("memlook_table_heap_bytes", TableHeapBytes,
          "Heap bytes of the current snapshot's table (0 when cold)."),
    GAUGE("memlook_hierarchy_heap_bytes", HierarchyHeapBytes,
          "Heap bytes of the current snapshot's hierarchy."),
    COUNTER("memlook_snapshot_saves_total", SnapshotSaves,
            "saveSnapshot() calls that hit disk."),
    COUNTER("memlook_snapshot_restores_total", SnapshotRestores,
            "Restores served from the snapshot rung."),
    COUNTER("memlook_snapshot_quarantines_total", SnapshotQuarantines,
            "Snapshot files moved aside as bad."),
    COUNTER("memlook_wal_appends_total", WalAppends,
            "Commit records appended to the write-ahead log."),
    COUNTER("memlook_wal_bytes_appended_total", WalBytesAppended,
            "Bytes those appends wrote."),
    COUNTER("memlook_wal_resets_total", WalResets,
            "Log compactions (saveSnapshot)."),
    COUNTER("memlook_wal_replayed_records_total", WalReplayedRecords,
            "Logged transactions replayed by restore."),
    COUNTER("memlook_wal_quarantines_total", WalQuarantines,
            "Log files moved aside as bad."),
    COUNTER("memlook_snapshots_retired_total", SnapshotsRetired,
            "Superseded snapshots handed to the epoch reclaimer."),
    COUNTER("memlook_snapshots_reclaimed_total", SnapshotsReclaimed,
            "Retired snapshots whose limbo reference was dropped."),
    GAUGE("memlook_snapshot_limbo_depth", SnapshotLimboDepth,
          "Retired snapshots still awaiting reclamation."),
    COUNTER("memlook_epoch_pin_overflows_total", EpochPinOverflows,
            "Reader pins that overflowed onto the shared fallback counter."),
    COUNTER("memlook_latency_samples_total", LatencySamples,
            "Operations clocked into the latency histograms."),
    COUNTER("memlook_trace_events_recorded_total", TraceEventsRecorded,
            "Events written to the trace ring."),
    COUNTER("memlook_trace_events_overwritten_total", TraceEventsOverwritten,
            "Trace events lost to ring wrap-around."),
    COUNTER("memlook_anomalies_logged_total", AnomaliesLogged,
            "Anomaly records retained by the anomaly log."),
    COUNTER("memlook_anomalies_suppressed_total", AnomaliesSuppressed,
            "Anomalies dropped by the rate limiter."),
};

#undef COUNTER
#undef GAUGE
#undef RUNG_COUNTER

/// Splits "name{labels}" into its name for HELP/TYPE coalescing.
std::string_view promBaseName(const char *PromName) {
  std::string_view Name(PromName);
  if (size_t Brace = Name.find('{'); Brace != std::string_view::npos)
    Name = Name.substr(0, Brace);
  return Name;
}

void appendJsonString(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

std::string formatDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.1f", V);
  return Buf;
}

/// Samples at or below \p Bound (bucket-boundary-aligned cumulative
/// count for the Prometheus 'le' rendering).
uint64_t cumulativeBelow(const LatencyHistogram &H, uint64_t Bound) {
  uint64_t N = 0;
  uint32_t FirstAbove = LatencyHistogram::bucketOf(Bound);
  for (uint32_t I = 0; I != FirstAbove; ++I)
    N += H.bucketCount(I);
  return N;
}

struct NamedHistogram {
  const char *Metric; ///< "memlook_query_latency_nanos" or commit twin
  std::string Labels; ///< "path=\"probe\",rung=\"tabulated\"" or empty
  LatencyHistogram H;
};

/// Every non-empty histogram the service holds, catalog order.
std::vector<NamedHistogram> collectHistograms(const LookupService &Svc) {
  std::vector<NamedHistogram> Out;
  for (size_t P = 0; P != NumQueryPaths; ++P) {
    for (size_t R = 0; R != 3; ++R) {
      QueryPath Path = static_cast<QueryPath>(P);
      AnswerRung Rung = static_cast<AnswerRung>(R);
      LatencyHistogram H = Svc.latencySnapshot(Path, Rung);
      if (H.count() == 0)
        continue;
      Out.push_back({"memlook_query_latency_nanos",
                     std::string("path=\"") + queryPathLabel(Path) +
                         "\",rung=\"" + answerRungLabel(Rung) + "\"",
                     H});
    }
  }
  if (LatencyHistogram C = Svc.commitLatencySnapshot(); C.count() != 0)
    Out.push_back({"memlook_commit_latency_nanos", std::string(), C});
  return Out;
}

/// The 'le' ladder for one histogram: powers of 4 from 16 up past the
/// largest recorded value - coarse enough to keep the exposition
/// short, fine enough that a scrape sees the distribution's shape (the
/// full 12.5%-resolution data stays queryable via metricsJson()'s
/// percentiles).
std::vector<uint64_t> leBoundaries(const LatencyHistogram &H) {
  std::vector<uint64_t> Out;
  uint64_t Top = std::max<uint64_t>(H.maxSeen(), 16);
  for (uint64_t Le = 16; Le / 4 <= Top; Le *= 4) {
    Out.push_back(Le);
    if (Le > (uint64_t(1) << 40))
      break;
  }
  return Out;
}

} // namespace

std::span<const MetricDesc> memlook::service::serviceMetricCatalog() {
  return Catalog;
}

//===----------------------------------------------------------------------===//
// LookupService exposition (lives here to keep LookupService.cpp about
// the lookup machinery, not string formatting)
//===----------------------------------------------------------------------===//

std::string LookupService::metricsText() const {
  ServiceStats S = stats();
  std::string Out;
  Out.reserve(8192);

  std::string_view PrevName;
  for (const MetricDesc &M : serviceMetricCatalog()) {
    std::string_view Base = promBaseName(M.PromName);
    if (Base != PrevName) {
      Out += "# HELP ";
      Out += Base;
      Out += " ";
      Out += M.Help;
      Out += "\n# TYPE ";
      Out += Base;
      Out += M.K == MetricDesc::Kind::Gauge ? " gauge\n" : " counter\n";
      PrevName = Base;
    }
    Out += M.PromName;
    Out += " ";
    Out += std::to_string(M.Get(S));
    Out += "\n";
  }

  Out += "# HELP memlook_epoch Current published epoch.\n"
         "# TYPE memlook_epoch gauge\n"
         "memlook_epoch " +
         std::to_string(currentEpoch()) + "\n";

  std::string_view PrevHist;
  for (const NamedHistogram &NH : collectHistograms(*this)) {
    std::string LabelPrefix =
        NH.Labels.empty() ? std::string("{") : "{" + NH.Labels + ",";
    std::string BareLabels = NH.Labels.empty() ? "" : "{" + NH.Labels + "}";
    if (std::string_view(NH.Metric) != PrevHist) {
      Out += std::string("# HELP ") + NH.Metric +
             " Sampled latency distribution (nanoseconds).\n# TYPE " +
             NH.Metric + " histogram\n";
      PrevHist = NH.Metric;
    }
    for (uint64_t Le : leBoundaries(NH.H))
      Out += NH.Metric + ("_bucket" + LabelPrefix) + "le=\"" +
             std::to_string(Le) + "\"} " +
             std::to_string(cumulativeBelow(NH.H, Le)) + "\n";
    Out += NH.Metric + ("_bucket" + LabelPrefix) + "le=\"+Inf\"} " +
           std::to_string(NH.H.count()) + "\n";
    Out += NH.Metric + ("_sum" + BareLabels) + " " +
           std::to_string(NH.H.sum()) + "\n";
    Out += NH.Metric + ("_count" + BareLabels) + " " +
           std::to_string(NH.H.count()) + "\n";
  }
  return Out;
}

std::string LookupService::metricsJson() const {
  ServiceStats S = stats();
  std::string Out;
  Out.reserve(8192);
  Out += "{\n  \"epoch\": " + std::to_string(currentEpoch()) +
         ",\n  \"stats\": {";

  bool First = true;
  bool RungsEmitted = false;
  for (const MetricDesc &M : serviceMetricCatalog()) {
    if (std::string_view(M.StatField) == "RungAnswers") {
      if (RungsEmitted)
        continue;
      RungsEmitted = true;
      Out += First ? "\n    " : ",\n    ";
      Out += "\"RungAnswers\": [" + std::to_string(S.RungAnswers[0]) + ", " +
             std::to_string(S.RungAnswers[1]) + ", " +
             std::to_string(S.RungAnswers[2]) + "]";
    } else {
      Out += First ? "\n    " : ",\n    ";
      appendJsonString(Out, M.StatField);
      Out += ": " + std::to_string(M.Get(S));
    }
    First = false;
  }
  Out += "\n  },\n  \"histograms\": [";

  First = true;
  for (const NamedHistogram &NH : collectHistograms(*this)) {
    Out += First ? "\n    {" : ",\n    {";
    First = false;
    Out += "\"metric\": ";
    appendJsonString(Out, NH.Metric);
    if (!NH.Labels.empty()) {
      // Labels arrive as path="probe",rung="tabulated" - re-split them
      // into proper JSON fields.
      size_t Comma = NH.Labels.find(',');
      auto Emit = [&](std::string_view One) {
        size_t Eq = One.find('=');
        Out += ", ";
        appendJsonString(Out, One.substr(0, Eq));
        Out += ": ";
        Out += One.substr(Eq + 1);
      };
      Emit(std::string_view(NH.Labels).substr(0, Comma));
      Emit(std::string_view(NH.Labels).substr(Comma + 1));
    }
    Out += ", \"count\": " + std::to_string(NH.H.count());
    Out += ", \"sum\": " + std::to_string(NH.H.sum());
    Out += ", \"mean\": " + formatDouble(NH.H.mean());
    Out += ", \"p50\": " + formatDouble(NH.H.percentile(50));
    Out += ", \"p90\": " + formatDouble(NH.H.percentile(90));
    Out += ", \"p99\": " + formatDouble(NH.H.percentile(99));
    Out += ", \"p999\": " + formatDouble(NH.H.percentile(99.9));
    Out += ", \"max\": " + std::to_string(NH.H.maxSeen());
    Out += "}";
  }
  Out += "\n  ],\n  \"trace\": {\"recorded\": " +
         std::to_string(S.TraceEventsRecorded) +
         ", \"overwritten\": " + std::to_string(S.TraceEventsOverwritten) +
         "},\n  \"anomalies\": {\"logged\": " +
         std::to_string(S.AnomaliesLogged) +
         ", \"suppressed\": " + std::to_string(S.AnomaliesSuppressed) +
         "}\n}\n";
  return Out;
}

std::vector<TraceEvent> LookupService::drainTrace() const {
  return Obs.trace().drain();
}

std::vector<AnomalyRecord> LookupService::recentAnomalies() const {
  return Obs.anomalies().recent();
}

LatencyHistogram LookupService::latencySnapshot(QueryPath Path) const {
  return Obs.latencyMerged(Path);
}

LatencyHistogram LookupService::latencySnapshot(QueryPath Path,
                                                AnswerRung Rung) const {
  return Obs.latency(Path, Rung);
}

LatencyHistogram LookupService::commitLatencySnapshot() const {
  return Obs.commitLatency();
}
