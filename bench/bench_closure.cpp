//===- bench_closure.cpp - Experiment E18 (preprocessing cost) --------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
//
// Section 5: the constant-time virtual-base test needs a boolean matrix
// built "using a transitive closure-like algorithm ... O(|N| * (|N| +
// |E|))", which "a compiler requires ... in some form, and will have to
// compute it anyway". This benchmark measures Hierarchy::finalize() -
// validation, topological sort, and the virtual-base closure - across
// hierarchy shapes and sizes. The matrix has one column per class that is
// a virtual base (counter virtual_bases, K): a non-virtual chain has K = 0
// and finalizes in linear time and memory.
//
//===----------------------------------------------------------------------===//

#include "memlook/workload/Generators.h"

#include <benchmark/benchmark.h>

using namespace memlook;

namespace {

/// Rebuilds the hierarchy each iteration and times only finalize().
template <typename MakeFnT>
void runFinalize(benchmark::State &State, MakeFnT MakeUnfinalized) {
  uint32_t Classes = 0, Edges = 0, VirtualBases = 0;
  for (auto _ : State) {
    State.PauseTiming();
    Hierarchy H = MakeUnfinalized();
    State.ResumeTiming();
    DiagnosticEngine Diags;
    bool Ok = H.finalize(Diags);
    benchmark::DoNotOptimize(Ok);
    State.PauseTiming();
    Classes = H.numClasses();
    Edges = H.numEdges();
    VirtualBases = H.numVirtualBaseClasses();
    State.ResumeTiming();
  }
  State.counters["classes"] = Classes;
  State.counters["edges"] = Edges;
  State.counters["virtual_bases"] = VirtualBases;
  State.SetComplexityN(Classes);
}

Hierarchy unfinalizedChain(uint32_t Length) {
  Hierarchy H;
  ClassId Prev;
  for (uint32_t I = 0; I != Length; ++I) {
    ClassId Cur = H.createClass("C" + std::to_string(I));
    if (Prev.isValid())
      H.addBase(Cur, Prev);
    Prev = Cur;
  }
  return H;
}

Hierarchy unfinalizedDense(uint32_t Classes, uint32_t BasesPer) {
  // Every class inherits from BasesPer of its predecessors, half of the
  // edges virtual: the closure-heavy case.
  Hierarchy H;
  std::vector<ClassId> Ids;
  for (uint32_t I = 0; I != Classes; ++I) {
    ClassId Cur = H.createClass("K" + std::to_string(I));
    for (uint32_t B = 1; B <= BasesPer && B <= I; ++B)
      H.addBase(Cur, Ids[I - B],
                B % 2 ? InheritanceKind::NonVirtual
                      : InheritanceKind::Virtual);
    Ids.push_back(Cur);
  }
  return H;
}

void BM_FinalizeChain(benchmark::State &State) {
  uint32_t N = static_cast<uint32_t>(State.range(0));
  runFinalize(State, [N] { return unfinalizedChain(N); });
}
BENCHMARK(BM_FinalizeChain)
    ->RangeMultiplier(4)
    ->Range(64, 16384)
    ->Complexity();

void BM_FinalizeDense(benchmark::State &State) {
  uint32_t N = static_cast<uint32_t>(State.range(0));
  runFinalize(State, [N] { return unfinalizedDense(N, 4); });
}
BENCHMARK(BM_FinalizeDense)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity();

void BM_VirtualBaseQuery(benchmark::State &State) {
  // The payoff: after finalize, isVirtualBaseOf is a rank load and a
  // single bit test.
  Hierarchy H = unfinalizedDense(static_cast<uint32_t>(State.range(0)), 4);
  DiagnosticEngine Diags;
  bool Ok = H.finalize(Diags);
  benchmark::DoNotOptimize(Ok);
  ClassId Base(0), Derived(H.numClasses() - 1);
  for (auto _ : State)
    benchmark::DoNotOptimize(H.isVirtualBaseOf(Base, Derived));
}
BENCHMARK(BM_VirtualBaseQuery)->Arg(256)->Arg(4096);

} // namespace

BENCHMARK_MAIN();
