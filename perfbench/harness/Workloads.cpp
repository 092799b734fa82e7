//===- perfbench/harness/Workloads.cpp - The three workloads --------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// Every run has the same phases:
///
///  1. set-up: cold starts along both start paths - the snapshot file
///     through LookupService::restore, and `.mlk` text through
///     parseProgram into a LookupService - each answering the fixed
///     query list;
///  2. the body, closed loop for the run's seconds: readers on the
///     forest (read_zipf), a writer plus a reader (edit_churn), or more
///     cold starts of the dense DAG (cold_dense);
///  3. commits: edit_churn's come from its body; the other two commit a
///     fixed batch of the edit stream after the body. The final epoch is
///     then checked against the oracle on a sample of keys;
///  4. more cold starts, so that setup_s, cold_start_ms and restore_ms
///     sample both ends of the run rather than its first seconds only.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "memlook/frontend/Parser.h"
#include "memlook/support/Rng.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>

using namespace memlook;
using namespace memlook::service;
using namespace perfbench;

namespace {

/// Cold starts (each along both start paths) before the body and after
/// the commits.
constexpr int ColdStartsBefore = 4;
constexpr int ColdStartsAfter = 4;
/// Commits read_zipf and cold_dense make after their body.
constexpr size_t CommitBatch = 200;
/// Read latency is clocked on one read in this many.
constexpr uint64_t LatencySampleEvery = 64;
/// Read figures are taken per window of this many seconds and reported
/// as the median over the run's windows, so a burst of load from outside
/// the run moves a few windows, not the result.
constexpr double ReadWindowS = 0.5;
/// Sampled read spans a reader keeps; later samples are clocked but not
/// kept as spans, which bounds the trace file.
constexpr size_t MaxReadSpans = size_t(1) << 16;
/// Keys of the final-epoch check.
constexpr size_t FinalCheckKeys = 512;

void recordFailure(RunResult &R, const std::string &What,
                   const std::string &Why) {
  if (!Why.empty())
    R.fail(What + ": " + Why);
}

/// Answers the query list through query(string, string), checking every
/// answer. Clocks each query into \p LatNs when given.
void answerList(const LookupService &Svc, const Inputs &In,
                const std::vector<Expect> &Exp, RunResult &R,
                std::vector<uint32_t> *LatNs, uint64_t *FirstAnswerNs) {
  for (size_t I = 0; I != In.QueryList.size(); ++I) {
    const KeyText &K = In.QueryList[I];
    uint64_t T0 = nowNs();
    QueryAnswer A = Svc.query(K.Class, K.Member);
    uint64_t T1 = nowNs();
    if (LatNs)
      LatNs->push_back(uint32_t(std::min<uint64_t>(T1 - T0, UINT32_MAX)));
    if (I == 0 && FirstAnswerNs)
      *FirstAnswerNs = T1;
    recordFailure(R, "list " + K.Class + "::" + K.Member,
                  checkQuery(A, Exp[I]));
  }
  R.Attempted += In.QueryList.size();
}

/// `.mlk` text -> parseProgram -> LookupService -> the answered list.
struct ColdStart {
  std::unique_ptr<LookupService> Svc;
  double SetupS = 0;
  double TotalMs = 0;
};

ColdStart coldStartFromText(const Inputs &In, const ServiceOptions &Opts,
                            const std::vector<Expect> &Exp, RunResult &R,
                            SpanLog *Log, uint64_t Op,
                            std::vector<uint32_t> *LatNs) {
  ColdStart C;
  ScopedSpan Whole(Log, "cold_start.text", NoParent, Op);
  uint64_t T0 = nowNs();
  DiagnosticEngine Diags;
  std::optional<ParsedProgram> P;
  {
    ScopedSpan S(Log, "frontend.parse", Whole.index(), Op);
    P = parseProgram(In.Text, Diags);
  }
  ++R.Attempted;
  if (!P) {
    R.fail("the generated .mlk text did not parse");
    return C;
  }
  {
    ScopedSpan S(Log, "service.construct", Whole.index(), Op);
    C.Svc = std::make_unique<LookupService>(std::move(P->H), Opts);
  }
  uint64_t First = 0;
  {
    ScopedSpan S(Log, "read.list", Whole.index(), Op);
    answerList(*C.Svc, In, Exp, R, LatNs, &First);
  }
  C.SetupS = double(First - T0) / 1e9;
  C.TotalMs = msSince(T0);
  return C;
}

/// Snapshot file -> LookupService::restore -> the answered list.
double coldStartFromSnapshot(const Inputs &In, const std::string &SnapPath,
                             const ServiceOptions &Opts,
                             const std::vector<Expect> &Exp, RunResult &R,
                             SpanLog *Log, uint64_t Op,
                             std::vector<uint32_t> *LatNs) {
  ScopedSpan Whole(Log, "cold_start.snapshot", NoParent, Op);
  uint64_t T0 = nowNs();
  RestoreReport Report;
  Expected<std::unique_ptr<LookupService>> Svc =
      Status::error(ErrorCode::InvalidArgument, "not restored");
  {
    ScopedSpan S(Log, "persist.restore", Whole.index(), Op);
    Svc = LookupService::restore(SnapPath, Hierarchy(), Opts, &Report);
  }
  ++R.Attempted;
  if (!Svc || Report.Rung != RestoreRung::Snapshot) {
    R.fail("restore did not serve from the snapshot: " + Report.toString());
    return msSince(T0);
  }
  {
    ScopedSpan S(Log, "read.list", Whole.index(), Op);
    answerList(**Svc, In, Exp, R, LatNs, nullptr);
  }
  double Ms = msSince(T0);
  Whole.close();
  Svc->reset(); // teardown is not part of the cold start
  return Ms;
}

const char *const ReadSpanName[] = {"read.probe", "read.query_key",
                                    "read.query_string"};

/// One closed-loop reader over its stream.
struct Reader {
  const ReadStream *Stream = nullptr;
  /// One per distinct key of the stream: the reader's own handle (the
  /// service re-resolves it in place after commits) and its answer.
  struct Slot {
    QueryKey Key;
    Expect Exp;
  };
  std::vector<Slot> Slots;
  /// When the read window opened.
  uint64_t WindowStartNs = 0;
  /// Reads completed in each ReadWindowS window.
  std::vector<uint64_t> WindowOps;
  /// Sampled read latencies, with the window each ended in.
  struct Latency {
    uint32_t Ns;
    uint32_t Window;
  };
  std::vector<Latency> Samples;
  uint64_t Ops = 0;
  RunResult Failures;
  SpanLog *Log = nullptr;

  void run(const LookupService &Svc, const std::atomic<bool> &Stop) {
    const std::vector<uint32_t> &Entries = Stream->Entries;
    size_t I = 0;
    while (!Stop.load(std::memory_order_relaxed)) {
      for (int Batch = 0; Batch != 256; ++Batch, ++Ops) {
        uint32_t Entry = Entries[I];
        if (++I == Entries.size())
          I = 0;
        Slot &S = Slots[ReadStream::slotOf(Entry)];
        ReadOp Op = ReadStream::opOf(Entry);
        bool Sample = Ops % LatencySampleEvery == 0;
        uint64_t T0 = Sample ? nowNs() : 0;
        std::string Why;
        if (Op == ReadOp::Probe) {
          ProbeAnswer A = Svc.probe(S.Key);
          if (Sample)
            sample(Op, T0);
          Why = checkProbe(A, S.Exp);
        } else {
          QueryAnswer A = Op == ReadOp::QueryKey
                              ? Svc.query(S.Key)
                              : Svc.query(S.Key.ClassName, S.Key.MemberName);
          if (Sample)
            sample(Op, T0);
          Why = checkQuery(A, S.Exp);
        }
        if (!Why.empty())
          Failures.fail(std::string(ReadSpanName[int(Op)]) + " " +
                        S.Key.ClassName + "::" + S.Key.MemberName + ": " + Why);
      }
      size_t W = windowOf(nowNs());
      if (W >= WindowOps.size())
        WindowOps.resize(W + 1);
      WindowOps[W] += 256;
    }
  }

  size_t windowOf(uint64_t Ns) const {
    return size_t(double(Ns - WindowStartNs) / (ReadWindowS * 1e9));
  }

  void sample(ReadOp Op, uint64_t T0) {
    uint64_t T1 = nowNs();
    uint32_t Ns = uint32_t(std::min<uint64_t>(T1 - T0, UINT32_MAX));
    Samples.push_back(Latency{Ns, uint32_t(windowOf(T1))});
    if (Log && Log->Spans.size() < MaxReadSpans)
      Log->Spans.push_back(Span{ReadSpanName[int(Op)], NoParent, Ops, T0, T1});
  }
};

/// Commits \p Count scripts of the edit stream from its head, or until
/// \p DeadlineNs passes (0 = no deadline). Returns how many it committed.
size_t commitScripts(LookupService &Svc, const Inputs &In, size_t Count,
                     uint64_t DeadlineNs, std::vector<double> &CommitMs,
                     RunResult &R, SpanLog *Log, uint64_t &LimboMax) {
  size_t Next = 0;
  while (Next != In.Edits.size() && Next != Count &&
         (DeadlineNs == 0 || nowNs() < DeadlineNs)) {
    Transaction Txn = makeTxn(Svc, In.Edits[Next]);
    uint64_t T0 = nowNs();
    Status S = Status::ok();
    {
      ScopedSpan Span(Log, "service.commit", NoParent, Next);
      S = Svc.commit(Txn);
    }
    CommitMs.push_back(msSince(T0));
    ++R.Attempted;
    if (!S.isOk())
      R.fail("commit " + std::to_string(Next) + ": " + S.toString());
    if (Log)
      LimboMax = std::max(LimboMax, Svc.stats().SnapshotLimboDepth);
    ++Next;
  }
  return Next;
}

/// Checks the service's final epoch against the oracle over a rebuilt
/// copy of the edited hierarchy, on keys the edits touched plus random
/// original keys.
void checkFinalEpoch(const LookupService &Svc, const Inputs &In,
                     size_t Committed, RunResult &R) {
  Rng Pick(In.Seed ^ 0x5eed);
  std::vector<KeyText> Keys;
  const Hierarchy &Source = In.Source.H;
  const std::vector<Symbol> &Members = Source.allMemberNames();
  auto anyMember = [&] {
    return std::string(
        Source.spelling(Members[Pick.nextBelow(Members.size())]));
  };
  while (Committed != 0 && Keys.size() < FinalCheckKeys / 2) {
    for (const Transaction::Op &Op : In.Edits[Pick.nextBelow(Committed)]) {
      std::string Member = Op.Member.empty() ? anyMember() : Op.Member;
      Keys.push_back(KeyText{Op.Class, Member});
      if (!Op.Target.empty())
        Keys.push_back(KeyText{Op.Target, Member});
    }
  }
  while (Keys.size() < FinalCheckKeys)
    Keys.push_back(KeyText{std::string(Source.className(ClassId(
                               uint32_t(Pick.nextBelow(Source.numClasses()))))),
                           anyMember()});

  std::shared_ptr<const Snapshot> Final = Svc.snapshot();
  Hierarchy Edited = replayEdits(Source, In.Edits, Committed);
  std::vector<Expect> Exp = oracleAnswers(Edited, *Final->H, Keys);
  for (size_t I = 0; I != Keys.size(); ++I)
    recordFailure(R, "final epoch " + Keys[I].Class + "::" + Keys[I].Member,
                  checkQuery(Svc.queryOn(*Final, Keys[I].Class, Keys[I].Member),
                             Exp[I]));
  R.Attempted += Keys.size();
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the peak
/// read at the end covers the workload and not input generation.
bool resetPeakRss() {
  std::ofstream Out("/proc/self/clear_refs");
  Out << "5";
  Out.flush();
  return bool(Out);
}

/// VmHWM in megabytes, or 0 when unreadable.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

} // namespace

RunResult perfbench::runWorkload(const Inputs &In, double Seconds, Tracer &T,
                                 const std::string &WorkDir) {
  RunResult R;
  uint64_t Start = nowNs();
  SpanLog *Log = T.newLog();
  const bool Forest = In.Kind != WorkloadKind::ColdDense;
  ServiceOptions Opts = In.Options;
  if (In.Kind == WorkloadKind::EditChurn) {
    Opts.WalPath = WorkDir + "/commits.wal";
    Opts.WalSyncEachAppend = true;
  }
  ServiceOptions RestoreOpts = In.Options; // restores start non-durable
  const std::string SnapPath = WorkDir + "/input.snap";

  // Untimed preparation: the snapshot file both start paths share, and
  // the oracle's answers mapped into the served hierarchy's ids.
  std::vector<Expect> ListExp;
  std::vector<Reader> Readers(In.Readers.size());
  {
    DiagnosticEngine Diags;
    std::optional<ParsedProgram> P = parseProgram(In.Text, Diags);
    if (!P) {
      R.fail("the generated .mlk text did not parse");
      return R;
    }
    LookupService Svc(std::move(P->H), RestoreOpts);
    if (Status S = Svc.saveSnapshot(SnapPath); !S.isOk()) {
      R.fail("cannot save the input snapshot: " + S.toString());
      return R;
    }
    std::shared_ptr<const Snapshot> Served = Svc.snapshot();
    ListExp = oracleAnswers(In.Source.H, *Served->H, In.QueryList);
    for (size_t I = 0; I != Readers.size(); ++I) {
      Readers[I].Stream = &In.Readers[I];
      std::vector<Expect> Exp =
          oracleAnswers(In.Source.H, *Served->H, In.Readers[I].Slots);
      Readers[I].Slots.resize(Exp.size());
      for (size_t J = 0; J != Exp.size(); ++J)
        Readers[I].Slots[J].Exp = Exp[J];
    }
  }
  bool PeakReset = resetPeakRss();
  uint64_t PhaseT0 = nowNs();
  std::string Phases = "prep " + std::to_string(msSince(Start) / 1e3);
  auto endPhase = [&](const char *Name) {
    Phases += std::string(", ") + Name + " " +
              std::to_string(msSince(PhaseT0) / 1e3);
    PhaseT0 = nowNs();
  };

  // Phase 1: set-up.
  std::vector<double> SetupS, ColdMs, RestoreMs;
  std::vector<uint32_t> ListLatNs;
  std::vector<uint32_t> *ListLat = Forest ? nullptr : &ListLatNs;
  std::unique_ptr<LookupService> Svc;
  uint64_t OpId = 0;
  auto oneColdStart = [&] {
    Svc.reset(); // one service alive at a time
    RestoreMs.push_back(coldStartFromSnapshot(In, SnapPath, RestoreOpts,
                                              ListExp, R, Log, OpId++,
                                              ListLat));
    ColdStart C = coldStartFromText(In, Opts, ListExp, R, Log, OpId++, ListLat);
    SetupS.push_back(C.SetupS);
    ColdMs.push_back(C.TotalMs);
    Svc = std::move(C.Svc);
  };
  for (int Rep = 0; Rep != ColdStartsBefore; ++Rep)
    oneColdStart();
  endPhase("set-up");

  // Phase 2: the body.
  std::vector<double> CommitMs;
  uint64_t LimboMax = 0;
  size_t Committed = 0;
  uint64_t Reads = 0;
  if (Forest && Svc) {
    for (Reader &Rd : Readers) {
      Rd.Log = T.newLog();
      for (size_t J = 0; J != Rd.Slots.size(); ++J)
        Rd.Slots[J].Key = Svc->resolve(Rd.Stream->Slots[J].Class,
                                       Rd.Stream->Slots[J].Member);
      Rd.Samples.reserve(size_t(Seconds * 2e5));
      Rd.WindowOps.assign(size_t(Seconds / ReadWindowS) + 2, 0);
    }
  }
  ServiceStats Before = Svc ? Svc->stats() : ServiceStats();
  if (Forest && Svc) {
    std::atomic<bool> Stop{false};
    std::vector<std::thread> Threads;
    uint64_t T0 = nowNs();
    for (Reader &Rd : Readers) {
      Rd.WindowStartNs = T0;
      Threads.emplace_back([&Rd, &Svc, &Stop] { Rd.run(*Svc, Stop); });
    }
    uint64_t Deadline = T0 + uint64_t(Seconds * 1e9);
    if (In.Kind == WorkloadKind::EditChurn)
      Committed = commitScripts(*Svc, In, In.Edits.size(), Deadline, CommitMs,
                                R, Log, LimboMax);
    while (nowNs() < Deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Stop.store(true, std::memory_order_relaxed);
    for (std::thread &Th : Threads)
      Th.join();
    for (Reader &Rd : Readers) {
      Reads += Rd.Ops;
      R.Failed += Rd.Failures.Failed;
      for (std::string &Note : Rd.Failures.FailureNotes)
        if (R.FailureNotes.size() < 8)
          R.FailureNotes.push_back(std::move(Note));
    }
    R.Attempted += Reads;
  } else if (!Forest) {
    uint64_t Deadline = nowNs() + uint64_t(Seconds * 1e9);
    while (Svc && nowNs() < Deadline)
      oneColdStart();
    // The service counters below cover the last service only.
    if (Svc)
      Before = Svc->stats();
  }
  endPhase("body");
  if (!Svc)
    return R; // the text did not parse: already failed

  // Phase 3: commit figures, then the final-epoch check.
  if (In.Kind != WorkloadKind::EditChurn)
    Committed = commitScripts(*Svc, In, CommitBatch, 0, CommitMs, R, Log,
                              LimboMax);
  endPhase("commits");
  checkFinalEpoch(*Svc, In, Committed, R);
  ServiceStats After = Svc->stats();
  endPhase("final check");

  // Phase 4: cold starts at the far end of the run.
  for (int Rep = 0; Rep != ColdStartsAfter; ++Rep)
    oneColdStart();
  Svc.reset();
  endPhase("cold starts");

  double ReadQps, P50, P99;
  if (Forest) {
    // Medians over the windows that lie wholly inside the body.
    size_t Windows = std::max<size_t>(1, size_t(Seconds / ReadWindowS));
    std::vector<double> WindowQps(Windows, 0.0), WindowP50, WindowP99;
    std::vector<std::vector<double>> WindowLat(Windows);
    for (const Reader &Rd : Readers) {
      for (size_t W = 0; W != Windows; ++W)
        WindowQps[W] += double(Rd.WindowOps[W]) / ReadWindowS;
      for (const Reader::Latency &L : Rd.Samples)
        if (L.Window < Windows)
          WindowLat[L.Window].push_back(L.Ns);
    }
    for (const std::vector<double> &Lat : WindowLat) {
      WindowP50.push_back(quantile(Lat, 0.50));
      WindowP99.push_back(quantile(Lat, 0.99));
    }
    ReadQps = median(WindowQps);
    P50 = median(WindowP50);
    P99 = median(WindowP99);
  } else {
    uint64_t ListNs = 0;
    for (uint32_t Ns : ListLatNs)
      ListNs += Ns;
    Reads = ListLatNs.size();
    std::vector<double> Lat(ListLatNs.begin(), ListLatNs.end());
    ReadQps = double(Reads) / (double(ListNs) / 1e9);
    P50 = quantile(Lat, 0.50);
    P99 = quantile(Lat, 0.99);
  }

  R.add("setup_s", median(SetupS), "s");
  R.add("peak_rss_mb", peakRssMb(), "MB");
  R.add("commit_p50_ms", quantile(CommitMs, 0.50), "ms");
  R.add("commit_p95_ms", quantile(CommitMs, 0.95), "ms");
  R.add("cold_start_ms", median(ColdMs), "ms");
  if (T.enabled()) {
    // End-to-end in kind, but too host-sensitive for a bound: reported
    // with the traced run's per-layer figures.
    R.add("read_qps", ReadQps, "ops/s");
    R.add("read_p50_ns", P50, "ns");
    R.add("read_p99_ns", P99, "ns");
    R.add("restore_ms", median(RestoreMs), "ms");
  }
  uint64_t Ambiguous = 0;
  for (const Expect &E : ListExp)
    Ambiguous += E.Status == LookupStatus::Ambiguous;
  std::fprintf(stderr,
               "perfbench: %zu cold starts, %llu reads, %zu commits, %.0f%% "
               "of the query list ambiguous, peak RSS mark %s; seconds: %s\n",
               ColdMs.size(), (unsigned long long)Reads, CommitMs.size(),
               100.0 * double(Ambiguous) / double(ListExp.size()),
               PeakReset ? "reset after input generation"
                         : "not resettable (whole process)",
               Phases.c_str());

  if (T.enabled()) {
    // Read-path counters over the body, the commits and the final check.
    uint64_t Answers = 0;
    uint64_t Tabulated = After.RungAnswers[0] - Before.RungAnswers[0];
    for (int Rung = 0; Rung != 3; ++Rung)
      Answers += After.RungAnswers[Rung] - Before.RungAnswers[Rung];
    uint64_t ReadsOnSvc =
        (After.Queries - Before.Queries) + (After.Probes - Before.Probes);
    R.add("service.tabulated_share",
          Answers ? double(Tabulated) / double(Answers) : 1.0, "ratio");
    R.add("service.stale_reresolves_per_kop",
          ReadsOnSvc ? double(After.StaleKeyReresolves -
                              Before.StaleKeyReresolves) /
                           (double(ReadsOnSvc) / 1000.0)
                     : 0.0,
          "1/kop");
    R.add("service.limbo_depth_max", double(LimboMax), "count");
    R.add("service.reclaimed_frac",
          After.SnapshotsRetired ? double(After.SnapshotsReclaimed) /
                                       double(After.SnapshotsRetired)
                                 : 1.0,
          "ratio");
    runLayerProbe(In, T, R, WorkDir, /*TimeLayers=*/true);
  }
  return R;
}
