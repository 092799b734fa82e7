//===- perfbench/harness/Bench.h - End-to-end benchmark harness -*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark program: clocks, the in-memory span
/// tracer, the seeded workload inputs, the independent answer oracle and
/// the result record the program prints as JSON.
///
/// The benchmark only ever calls the library's public API. Everything the
/// program under test receives is generated here from the seed: `.mlk`
/// text, name spellings and edit scripts.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "memlook/core/LookupResult.h"
#include "memlook/service/LookupService.h"
#include "memlook/service/Transaction.h"
#include "memlook/workload/Generators.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using memlook::Hierarchy;
using memlook::LookupStatus;
using memlook::service::LookupService;
using memlook::service::ServiceOptions;
using memlook::service::Transaction;

using EditScript = std::vector<Transaction::Op>;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double msSince(uint64_t T0) { return double(nowNs() - T0) / 1e6; }

/// Median of \p Xs (0 for an empty sample); sorts a copy.
double median(std::vector<double> Xs);

/// The \p Q quantile (0..1) of \p Xs by nearest rank; sorts a copy.
double quantile(std::vector<double> Xs, double Q);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

constexpr uint32_t NoParent = UINT32_MAX;

/// One timed call into a layer. Parent indexes the same log; Op ties the
/// spans of one operation (a read, a commit, a cold start) together.
struct Span {
  const char *Name = nullptr;
  uint32_t Parent = NoParent;
  uint64_t Op = 0;
  uint64_t Start = 0;
  uint64_t End = 0;
};

/// The spans of one thread. Only its owning thread appends.
struct SpanLog {
  std::vector<Span> Spans;
};

/// Keeps every span in memory and writes them out when the run ends.
/// A disabled tracer hands out null logs, which every span helper
/// treats as "do not record".
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// A fresh log for one thread, or null when tracing is off.
  SpanLog *newLog();

  /// Durations in milliseconds of every span called \p Name.
  std::vector<double> durationsMs(std::string_view Name) const;

  /// Median duration of \p Name's spans, in milliseconds.
  double medianMs(std::string_view Name) const {
    return median(durationsMs(Name));
  }

  /// Writes one JSON object per span. False when the file cannot be
  /// written.
  bool writeJsonLines(const std::string &Path) const;

private:
  bool Enabled;
  mutable std::mutex LogsMutex;
  std::vector<std::unique_ptr<SpanLog>> Logs;
};

/// Records a span from construction to destruction (or close()).
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name, uint32_t Parent = NoParent,
             uint64_t Op = 0)
      : Log(Log) {
    if (!Log)
      return;
    Index = static_cast<uint32_t>(Log->Spans.size());
    Log->Spans.push_back(Span{Name, Parent, Op, nowNs(), 0});
  }
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  void close() {
    if (Log && Log->Spans[Index].End == 0)
      Log->Spans[Index].End = nowNs();
  }
  uint32_t index() const { return Log ? Index : NoParent; }

private:
  SpanLog *Log;
  uint32_t Index = NoParent;
};

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one run reports: operation counts, failures and metrics.
struct RunResult {
  uint64_t Attempted = 0;
  /// Wrong answers, approximate or late answers, and failed commits or
  /// restores.
  uint64_t Failed = 0;
  /// The first few failures, for the error stream.
  std::vector<std::string> FailureNotes;
  std::vector<Metric> Metrics;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back(Metric{std::move(Name), Value, std::move(Unit)});
  }
  void fail(std::string Note) {
    ++Failed;
    if (FailureNotes.size() < 8)
      FailureNotes.push_back(std::move(Note));
  }
};

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

enum class WorkloadKind { ReadZipf, EditChurn, ColdDense };

/// Parses "read_zipf" / "edit_churn" / "cold_dense"; false otherwise.
bool parseWorkloadKind(std::string_view Name, WorkloadKind &Out);

/// A (class, member) query by spelling.
struct KeyText {
  std::string Class;
  std::string Member;
};

/// The three read entry points of the service, in the read mix.
enum class ReadOp : uint8_t { Probe = 0, QueryKey = 1, QueryString = 2 };

/// One reader's closed-loop stream. Each entry packs the entry point in
/// its top two bits and a slot index below; a slot is one distinct key.
struct ReadStream {
  std::vector<uint32_t> Entries;
  std::vector<KeyText> Slots;

  static ReadOp opOf(uint32_t Entry) { return ReadOp(Entry >> 30); }
  static uint32_t slotOf(uint32_t Entry) { return Entry & 0x3fffffffu; }
};

/// Everything a run hands to the program, generated from the seed.
struct Inputs {
  WorkloadKind Kind = WorkloadKind::ReadZipf;
  uint64_t Seed = 0;
  /// The generator's hierarchy: the oracle's input. The program never
  /// sees it; it gets Text.
  memlook::Workload Source;
  /// The `.mlk` program text the service is started from.
  std::string Text;
  /// One stream per reader thread (empty for cold_dense).
  std::vector<ReadStream> Readers;
  /// The fixed string query list every cold start answers.
  std::vector<KeyText> QueryList;
  /// The seeded edit stream: edit_churn commits from its head for as
  /// long as the run lasts; the other workloads commit a fixed batch.
  std::vector<EditScript> Edits;
  /// Service configuration for this workload.
  ServiceOptions Options;
};

Inputs makeInputs(WorkloadKind Kind, uint64_t Seed);

/// The stable text form of an edit stream: one line per script, each op
/// its space-separated fields followed by `;`.
std::string renderEdits(const std::vector<EditScript> &Edits);

/// A transaction on \p Svc's current epoch holding \p Ops.
Transaction makeTxn(const LookupService &Svc, const EditScript &Ops);

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

/// The expected answer to one key.
struct Expect {
  LookupStatus Status = LookupStatus::NotFound;
  /// Unambiguous only: the defining class as an id of the served
  /// hierarchy.
  uint32_t DefClass = UINT32_MAX;
  bool SharedStatic = false;
  /// The key names no class: the service answers UnknownClass.
  bool UnknownClass = false;
};

/// Answers \p Keys over \p Source with the Section 4 explicit-path
/// propagation engine (killing on), which shares no code with Figure 8.
/// Defining classes are mapped by name into \p Served's ids.
std::vector<Expect> oracleAnswers(const Hierarchy &Source,
                                  const Hierarchy &Served,
                                  const std::vector<KeyText> &Keys);

/// Rebuilds \p Source with the first \p Count scripts of \p Edits applied,
/// through the benchmark's own edit model and the Hierarchy construction
/// API - not through the service's edit replay.
Hierarchy replayEdits(const Hierarchy &Source,
                      const std::vector<EditScript> &Edits, size_t Count);

/// Checks one probe / query answer against \p E; empty when correct,
/// else why not.
std::string checkProbe(const memlook::service::ProbeAnswer &A, const Expect &E);
std::string checkQuery(const memlook::service::QueryAnswer &A, const Expect &E);

//===----------------------------------------------------------------------===//
// Runs
//===----------------------------------------------------------------------===//

/// Runs \p In's workload for \p Seconds: set-up, the measured body and
/// the commit figures. \p WorkDir receives work files (snapshot,
/// write-ahead logs). With tracing on, also runs the layer probe.
RunResult runWorkload(const Inputs &In, double Seconds, Tracer &T,
                      const std::string &WorkDir);

/// The exact, schedule-independent counts the determinism check pins.
struct ExactCounts {
  uint64_t EntriesComputed = 0;
  uint64_t DominanceTests = 0;
  uint64_t BlueElementsMoved = 0;
  double RetabFraction = 0;
  double WalBytesPerCommit = 0;
};

/// The layer probe: times each layer's public calls on \p In's input,
/// from outside, and adds the per-layer metrics to \p R. Starts from a
/// fresh service so its counts depend on the seed alone.
ExactCounts runLayerProbe(const Inputs &In, Tracer &T, RunResult &R,
                          const std::string &WorkDir, bool TimeLayers);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
