//===- perfbench/harness/LayerProbe.cpp - Per-layer timings ---------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// The traced run's per-layer numbers. Each metric times a public call
/// into one module, or reads a public counter, on the workload's own
/// input, from outside the library: frontend (parseProgram), chg
/// (HierarchyBuilder finalize), core (ParallelTabulator, the compact
/// table), the service read path, the service write path (the commit's
/// phases replayed one by one) and persistence (snapshot load, restore).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "memlook/chg/HierarchyBuilder.h"
#include "memlook/core/ParallelTabulator.h"
#include "memlook/frontend/Parser.h"
#include "memlook/service/SnapshotFile.h"
#include "memlook/service/WriteAheadLog.h"

#include <cstdio>
#include <cstdlib>
#include <type_traits>

using namespace memlook;
using namespace memlook::service;
using namespace perfbench;

namespace {

/// Scripts the commit probe replays phase by phase.
constexpr size_t ProbeCommits = 24;
/// Reads per pass of the read-path timings.
constexpr size_t ProbeReads = 1 << 16;

[[noreturn]] void die(const std::string &Why) {
  std::fprintf(stderr, "perfbench: layer probe: %s\n", Why.c_str());
  std::exit(2);
}

/// Runs \p Fn \p Reps times, each call inside a span called \p Name,
/// and returns the last result. Each result is destroyed after its span
/// closes: tearing a result down is not part of the call.
template <typename FnT>
std::invoke_result_t<FnT &> timed(SpanLog *Log, const char *Name, int Reps,
                                  FnT Fn) {
  for (int I = 1; I < Reps; ++I) {
    ScopedSpan S(Log, Name, NoParent, uint64_t(I));
    auto Result = Fn();
    S.close();
  }
  ScopedSpan S(Log, Name, NoParent, 0);
  auto Result = Fn();
  S.close();
  return Result;
}

/// Keeps read results observable so the timed loops are not elided.
volatile uint64_t Sink = 0;

} // namespace

ExactCounts perfbench::runLayerProbe(const Inputs &In, Tracer &T, RunResult &R,
                                     const std::string &WorkDir,
                                     bool TimeLayers) {
  ExactCounts Counts;
  // The dump mode needs only the exact counts: one repetition, no log.
  SpanLog *Log = TimeLayers ? T.newLog() : nullptr;
  const int Reps = !TimeLayers ? 1 : In.Kind == WorkloadKind::ColdDense ? 5 : 3;
  const uint32_t Threads = In.Options.WarmThreads;
  ServiceOptions Opts = In.Options;
  const bool Durable = In.Kind == WorkloadKind::EditChurn;
  if (Durable)
    Opts.WalPath = WorkDir + "/probe.wal";

  // frontend: parseProgram over the workload's text.
  std::optional<ParsedProgram> P = timed(Log, "frontend.parse", Reps, [&] {
    DiagnosticEngine Diags;
    return parseProgram(In.Text, Diags);
  });
  if (!P)
    die("the generated .mlk text did not parse");
  Hierarchy &H = P->H;

  // chg: copy and finalize (topological order and both closures).
  timed(Log, "chg.finalize", Reps,
        [&] { return HierarchyBuilder::fromHierarchy(H).build(); });

  // core: the Figure 8 kernel over every column, parallel and serial.
  ParallelTabulator::Stats Kernel =
      timed(Log, "core.tabulate", Reps, [&] {
        return ParallelTabulator::tabulateAll(H, Deadline::never(), Threads);
      }).TabulationStats;
  Counts.EntriesComputed = Kernel.EntriesComputed;
  Counts.DominanceTests = Kernel.DominanceTests;
  Counts.BlueElementsMoved = Kernel.BlueElementsMoved;
  if (TimeLayers)
    timed(Log, "core.tabulate_serial", Reps, [&] {
      return ParallelTabulator::tabulateAll(H, Deadline::never(), 1);
    });

  // service: LookupTable::build is tabulation plus assembly (dedup and
  // the member index).
  std::shared_ptr<const LookupTable> Table =
      timed(Log, "service.table_build", Reps,
            [&] { return LookupTable::build(H, Deadline::never(), Threads); });
  double TableMb = double(Table->heapBytes()) / 1e6;
  double Deduped = Table->buildStats().ColumnsDeduped;
  Table.reset();

  LookupService Svc(std::move(H), Opts);

  // Read path: the same keys through the table and the service.
  if (TimeLayers) {
    std::vector<KeyText> Keys;
    if (In.Readers.empty()) {
      while (Keys.size() < ProbeReads)
        Keys.insert(Keys.end(), In.QueryList.begin(), In.QueryList.end());
    } else {
      const ReadStream &S = In.Readers.front();
      for (size_t I = 0; I != ProbeReads; ++I)
        Keys.push_back(
            S.Slots[ReadStream::slotOf(S.Entries[I % S.Entries.size()])]);
    }
    std::vector<QueryKey> Resolved(Keys.size());
    std::vector<double> ResolveNs, TableProbeNs, TableFindNs, ProbeNs,
        QueryKeyNs, QueryStringNs;
    auto perRead = [&](std::vector<double> &Out, const char *Name, auto Fn) {
      ScopedSpan S(Log, Name, NoParent, Out.size());
      uint64_t T0 = nowNs();
      uint64_t Acc = 0;
      for (size_t I = 0; I != Keys.size(); ++I)
        Acc += Fn(I);
      Out.push_back(double(nowNs() - T0) / double(Keys.size()));
      Sink = Sink + Acc;
    };
    for (int Pass = 0; Pass != 3; ++Pass) {
      perRead(ResolveNs, "service.resolve", [&](size_t I) {
        Resolved[I] = Svc.resolve(Keys[I].Class, Keys[I].Member);
        return uint64_t(Resolved[I].Context.rawValue());
      });
      std::shared_ptr<const Snapshot> Snap = Svc.snapshot();
      const LookupTable &Tbl = *Snap->Table;
      perRead(TableProbeNs, "table.probe", [&](size_t I) {
        return uint64_t(
            Tbl.probe(Resolved[I].Context, Resolved[I].Member).Status);
      });
      perRead(TableFindNs, "table.find", [&](size_t I) {
        return uint64_t(
            Tbl.findChecked(*Snap->H, Resolved[I].Context, Resolved[I].Member)
                .Status);
      });
      perRead(ProbeNs, "service.probe", [&](size_t I) {
        return uint64_t(Svc.probe(Resolved[I]).Status);
      });
      perRead(QueryKeyNs, "service.query_key", [&](size_t I) {
        return uint64_t(Svc.query(Resolved[I]).Result.Status);
      });
      perRead(QueryStringNs, "service.query_string", [&](size_t I) {
        return uint64_t(Svc.query(Keys[I].Class, Keys[I].Member).Result.Status);
      });
    }
    R.add("table.probe_ns", median(TableProbeNs), "ns");
    R.add("table.find_ns", median(TableFindNs), "ns");
    R.add("service.probe_ns", median(ProbeNs), "ns");
    R.add("service.query_key_ns", median(QueryKeyNs), "ns");
    R.add("service.query_string_ns", median(QueryStringNs), "ns");
    R.add("service.resolve_ns", median(ResolveNs), "ns");
    R.add("service.read_overhead_ns", median(ProbeNs) - median(TableProbeNs),
          "ns");
  }

  // Write path: each script's phases through the public functions the
  // commit calls, then the commit itself.
  std::vector<double> RestMs;
  double RetabSum = 0;
  uint64_t ImpactedSum = 0, FullRebuilds = 0;
  Expected<WriteAheadLog> Spare = WriteAheadLog::create(
      WorkDir + "/spare.wal", Svc.currentEpoch(),
      hierarchyFingerprint(*Svc.snapshot()->H), /*SyncEachAppend=*/true);
  if (!Spare)
    die("cannot create the spare log: " + Spare.status().toString());
  uint64_t WalBytes0 = Spare->bytesAppended();
  size_t Commits = std::min(ProbeCommits, In.Edits.size());
  for (size_t I = 0; I != Commits; ++I) {
    const EditScript &Ops = In.Edits[I];
    std::shared_ptr<const Snapshot> Base = Svc.snapshot();
    uint64_t T0 = nowNs();
    Expected<Hierarchy> Next =
        Status::error(ErrorCode::InvalidArgument, "not applied");
    {
      ScopedSpan S(Log, "service.apply_edit", NoParent, I);
      Next = applyEditScript(*Base->H, Ops, Opts.Budget);
    }
    if (!Next)
      die("probe script " + std::to_string(I) + ": " +
          Next.status().toString());
    ImpactSet Impact;
    {
      ScopedSpan S(Log, "service.impact", NoParent, I);
      Impact = computeImpactSet(*Base->H, *Next, Ops);
    }
    ImpactedSum += Impact.ImpactedClasses;
    std::shared_ptr<const LookupTable> New;
    if (Impact.FullRebuild) {
      ScopedSpan S(Log, "service.full_rebuild", NoParent, I);
      New = LookupTable::build(*Next, Deadline::never(), Threads);
      ++FullRebuilds;
      RetabSum += 1.0;
    } else {
      ScopedSpan S(Log, "service.rewarm", NoParent, I);
      New = LookupTable::rewarm(*Next, *Base->H, *Base->Table,
                                Impact.MemberNames, Deadline::never(), Threads);
      RetabSum += double(New->buildStats().ColumnsBuilt) /
                  double(Next->allMemberNames().size());
    }
    uint64_t PhasesEnd = nowNs();
    New.reset(); // its teardown is no phase of the commit
    uint64_t WalT0 = nowNs();
    {
      ScopedSpan S(Log, "service.wal_append", NoParent, I);
      if (Status W = Spare->append(Spare->lastEpoch() + 1, Ops); !W.isOk())
        die("spare log append: " + W.toString());
    }
    // The commit appends to its log only in durable mode.
    double PhasesMs = double(PhasesEnd - T0) / 1e6 +
                      (Durable ? double(nowNs() - WalT0) / 1e6 : 0.0);
    Base.reset();
    Transaction Txn = makeTxn(Svc, Ops);
    uint64_t C0 = nowNs();
    Status S = Status::ok();
    {
      ScopedSpan Span(Log, "service.commit_probe", NoParent, I);
      S = Svc.commit(Txn);
    }
    if (!S.isOk())
      die("probe commit " + std::to_string(I) + ": " + S.toString());
    RestMs.push_back(msSince(C0) - PhasesMs);
  }
  Counts.RetabFraction = Commits ? RetabSum / double(Commits) : 0;
  Counts.WalBytesPerCommit =
      Commits ? double(Spare->bytesAppended() - WalBytes0) / double(Commits)
              : 0;

  if (TimeLayers) {
    // Persistence: the in-memory load, and restore from the file.
    auto Bytes = std::make_shared<const std::string>(
        serializeSnapshot(*Svc.snapshot()));
    Expected<SnapshotPayload> Loaded =
        timed(Log, "persist.deserialize", Reps, [&] {
          return deserializeSnapshot(Bytes, ResourceBudget::unlimited());
        });
    if (!Loaded)
      die("snapshot load: " + Loaded.status().toString());
    const std::string SnapPath = WorkDir + "/probe.snap";
    if (Status W = writeSnapshotFile(SnapPath, *Svc.snapshot()); !W.isOk())
      die("snapshot write: " + W.toString());
    ServiceOptions RestoreOpts = In.Options;
    RestoreReport Report;
    Expected<std::unique_ptr<LookupService>> Restored =
        timed(Log, "persist.restore_probe", Reps, [&] {
          return LookupService::restore(SnapPath, Hierarchy(), RestoreOpts,
                                        &Report);
        });
    if (!Restored || Report.Rung != RestoreRung::Snapshot)
      die("restore: " + Report.toString());

    double ParseMs = T.medianMs("frontend.parse");
    double TabMs = T.medianMs("core.tabulate");
    double SerialMs = T.medianMs("core.tabulate_serial");
    R.add("frontend.parse_ms", ParseMs, "ms");
    R.add("frontend.parse_mb_per_s",
          double(In.Text.size()) / 1e6 / (ParseMs / 1e3), "MB/s");
    R.add("chg.finalize_ms", T.medianMs("chg.finalize"), "ms");
    R.add("core.tabulate_ms", TabMs, "ms");
    R.add("core.tabulate_serial_ms", SerialMs, "ms");
    R.add("core.parallel_speedup", SerialMs / TabMs, "ratio");
    R.add("core.entries_computed", double(Counts.EntriesComputed), "count");
    R.add("core.dominance_tests", double(Counts.DominanceTests), "count");
    R.add("core.blue_elements_moved", double(Counts.BlueElementsMoved),
          "count");
    R.add("core.table_mb", TableMb, "MB");
    R.add("core.columns_deduped", Deduped, "count");
    R.add("service.table_assemble_ms",
          T.medianMs("service.table_build") - TabMs, "ms");
    R.add("service.commit_ms", T.medianMs("service.commit"), "ms");
    R.add("service.apply_edit_ms", T.medianMs("service.apply_edit"), "ms");
    R.add("service.impact_ms", T.medianMs("service.impact"), "ms");
    R.add("service.rewarm_ms", T.medianMs("service.rewarm"), "ms");
    R.add("service.full_rebuild_ms", T.medianMs("service.full_rebuild"), "ms");
    R.add("service.wal_append_ms", T.medianMs("service.wal_append"), "ms");
    R.add("service.commit_rest_ms", median(RestMs), "ms");
    R.add("service.retab_fraction", Counts.RetabFraction, "ratio");
    R.add("service.impacted_classes",
          Commits ? double(ImpactedSum) / double(Commits) : 0, "count");
    R.add("service.full_rebuilds", double(FullRebuilds), "count");
    R.add("service.wal_bytes_per_commit", Counts.WalBytesPerCommit, "B");
    double DeserMs = T.medianMs("persist.deserialize");
    R.add("persist.deserialize_ms", DeserMs, "ms");
    R.add("persist.snapshot_mb", double(Bytes->size()) / 1e6, "MB");
    R.add("persist.restore_rest_ms",
          T.medianMs("persist.restore_probe") - DeserMs, "ms");
  }
  return Counts;
}
