//===- perfbench/harness/main.cpp - Benchmark program entry point ---------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \code
///   memlook_perfbench --workload read_zipf|edit_churn|cold_dense
///                     --seed N --seconds S --trace 0|1
///                     [--work-dir DIR] [--trace-out FILE]
///   memlook_perfbench --workload W --seed N --dump-inputs DIR
/// \endcode
///
/// Prints one JSON line: correct, attempted, failed and the metrics, each
/// with its unit. Exits 1 when any answer or commit failed, 2 on a usage
/// or set-up error. --dump-inputs writes the generated inputs and the
/// exact counts instead of running, for the determinism check.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unistd.h>

using namespace perfbench;

double perfbench::quantile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return 0;
  size_t Rank = size_t(std::ceil(Q * double(Xs.size())));
  Rank = std::clamp<size_t>(Rank, 1, Xs.size()) - 1;
  std::nth_element(Xs.begin(), Xs.begin() + ptrdiff_t(Rank), Xs.end());
  return Xs[Rank];
}

double perfbench::median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : (Xs[N / 2 - 1] + Xs[N / 2]) / 2;
}

SpanLog *Tracer::newLog() {
  if (!Enabled)
    return nullptr;
  std::lock_guard<std::mutex> Lock(LogsMutex);
  Logs.push_back(std::make_unique<SpanLog>());
  return Logs.back().get();
}

std::vector<double> Tracer::durationsMs(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(LogsMutex);
  std::vector<double> Out;
  for (const auto &Log : Logs)
    for (const Span &S : Log->Spans)
      if (S.End != 0 && Name == S.Name)
        Out.push_back(double(S.End - S.Start) / 1e6);
  return Out;
}

bool Tracer::writeJsonLines(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(LogsMutex);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t L = 0; L != Logs.size(); ++L)
    for (const Span &S : Logs[L]->Spans)
      std::fprintf(F,
                   "{\"log\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"parent\":%lld,\"op\":%llu}\n",
                   L, S.Name, (unsigned long long)S.Start,
                   (unsigned long long)S.End,
                   S.Parent == NoParent ? -1LL : (long long)S.Parent,
                   (unsigned long long)S.Op);
  return std::fclose(F) == 0;
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: memlook_perfbench --workload read_zipf|edit_churn|"
               "cold_dense --seed N [--seconds S] [--trace 0|1]\n"
               "                         [--work-dir DIR] [--trace-out FILE]"
               " [--dump-inputs DIR]\n");
  return 2;
}

bool parseUnsigned(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno || End == Text || *End || Text[0] == '-')
    return false;
  Out = V;
  return true;
}

bool writeFile(const std::filesystem::path &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Bytes;
  return bool(Out);
}

/// 64-bit FNV-1a over \p Bytes.
uint64_t fnv1a(const void *Bytes, size_t Size,
               uint64_t H = 0xcbf29ce484222325ULL) {
  const unsigned char *P = static_cast<const unsigned char *>(Bytes);
  for (size_t I = 0; I != Size; ++I)
    H = (H ^ P[I]) * 0x100000001b3ULL;
  return H;
}

/// Writes the generated inputs and the exact counts under \p Dir.
int dumpInputs(const Inputs &In, const std::filesystem::path &Dir,
               const std::string &WorkDir) {
  std::filesystem::create_directories(Dir);
  std::string Queries;
  for (const KeyText &K : In.QueryList)
    Queries += K.Class + "::" + K.Member + "\n";
  std::string Reads;
  for (const ReadStream &S : In.Readers) {
    uint64_t H = fnv1a(S.Entries.data(), S.Entries.size() * sizeof(uint32_t));
    for (const KeyText &K : S.Slots)
      H = fnv1a(K.Member.data(), K.Member.size(),
                fnv1a(K.Class.data(), K.Class.size() + 1, H));
    Reads += "entries=" + std::to_string(S.Entries.size()) +
             " slots=" + std::to_string(S.Slots.size()) +
             " fnv1a=" + std::to_string(H) + "\n";
  }
  Tracer Off(false);
  RunResult Unused;
  ExactCounts C = runLayerProbe(In, Off, Unused, WorkDir, /*TimeLayers=*/false);
  char Counts[512];
  std::snprintf(Counts, sizeof(Counts),
                "{\"core.entries_computed\": %llu, \"core.dominance_tests\": "
                "%llu, \"core.blue_elements_moved\": %llu, "
                "\"service.retab_fraction\": %.17g, "
                "\"service.wal_bytes_per_commit\": %.17g}\n",
                (unsigned long long)C.EntriesComputed,
                (unsigned long long)C.DominanceTests,
                (unsigned long long)C.BlueElementsMoved, C.RetabFraction,
                C.WalBytesPerCommit);
  bool Ok = writeFile(Dir / "input.mlk", In.Text) &&
            writeFile(Dir / "edits.txt", renderEdits(In.Edits)) &&
            writeFile(Dir / "queries.txt", Queries) &&
            writeFile(Dir / "reads.txt", Reads) &&
            writeFile(Dir / "counts.json", Counts);
  if (!Ok) {
    std::fprintf(stderr, "perfbench: cannot write under %s\n", Dir.c_str());
    return 2;
  }
  return 0;
}

void printResult(const RunResult &R) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed == 0 ? "true" : "false",
              (unsigned long long)R.Attempted, (unsigned long long)R.Failed);
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", M.Name.c_str(), V, M.Unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace

int main(int argc, char **argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: refusing to measure a non-optimized build\n");
  return 2;
#endif
  std::string WorkloadName, WorkDir, TraceOut, DumpDir;
  uint64_t Seed = 0, Seconds = 10, TraceFlag = 0;
  bool HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    if (I + 1 == argc)
      return usage();
    const char *Value = argv[++I];
    if (Arg == "--workload")
      WorkloadName = Value;
    else if (Arg == "--seed")
      HaveSeed = parseUnsigned(Value, Seed);
    else if (Arg == "--seconds") {
      if (!parseUnsigned(Value, Seconds) || Seconds == 0 || Seconds > 600)
        return usage();
    } else if (Arg == "--trace") {
      if (!parseUnsigned(Value, TraceFlag) || TraceFlag > 1)
        return usage();
    } else if (Arg == "--work-dir")
      WorkDir = Value;
    else if (Arg == "--trace-out")
      TraceOut = Value;
    else if (Arg == "--dump-inputs")
      DumpDir = Value;
    else
      return usage();
  }
  WorkloadKind Kind;
  if (!HaveSeed || !parseWorkloadKind(WorkloadName, Kind))
    return usage();
  if (WorkDir.empty())
    WorkDir = ".bench_build/work/" + WorkloadName + "-" +
              std::to_string(::getpid());
  std::error_code Ec;
  std::filesystem::create_directories(WorkDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", WorkDir.c_str());
    return 2;
  }

  uint64_t GenT0 = nowNs();
  Inputs In = makeInputs(Kind, Seed);
  size_t Slots = 0;
  for (const ReadStream &S : In.Readers)
    Slots += S.Slots.size();
  std::fprintf(stderr,
               "perfbench: inputs for %s seed %llu: %zu bytes of .mlk text, "
               "%zu read streams with %zu distinct keys, %zu edit scripts, "
               "generated in %.2f s\n",
               WorkloadName.c_str(), (unsigned long long)Seed, In.Text.size(),
               In.Readers.size(), Slots, In.Edits.size(), msSince(GenT0) / 1e3);
  int Rc;
  if (!DumpDir.empty()) {
    Rc = dumpInputs(In, DumpDir, WorkDir);
  } else {
    Tracer T(TraceFlag == 1);
    RunResult R = runWorkload(In, double(Seconds), T, WorkDir);
    if (T.enabled() && !TraceOut.empty() && !T.writeJsonLines(TraceOut))
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   TraceOut.c_str());
    for (const std::string &Note : R.FailureNotes)
      std::fprintf(stderr, "perfbench: FAILED %s\n", Note.c_str());
    printResult(R);
    Rc = R.Failed == 0 ? 0 : 1;
  }
  std::filesystem::remove_all(WorkDir, Ec);
  return Rc;
}
