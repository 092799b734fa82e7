//===- memlook/support/TopologicalSort.h - DAG ordering ---------*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Kahn's-algorithm topological sort over adjacency lists of dense node
/// indices. The Figure 8 lookup algorithm visits classes so that every
/// base class is processed before its derived classes; this utility
/// produces that order and detects inheritance cycles.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_SUPPORT_TOPOLOGICALSORT_H
#define MEMLOOK_SUPPORT_TOPOLOGICALSORT_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

namespace memlook {

/// Result of a topological sort attempt.
struct TopologicalSortResult {
  /// Node indices in topological order (edge sources before targets).
  /// Empty when the graph is cyclic.
  std::vector<uint32_t> Order;

  /// True iff the graph was acyclic and Order is a valid ordering.
  bool IsAcyclic = false;

  /// When cyclic, one node that participates in a cycle (for diagnostics).
  std::optional<uint32_t> CycleWitness;
};

/// Topologically sorts the graph with \p NumNodes nodes, where
/// \p ForEachSuccessor(N, Visit) calls Visit(S) for every edge N -> S.
///
/// Ties are broken by node index so that the returned order is
/// deterministic; this keeps every downstream table and diagnostic stable
/// across runs.
template <typename ForEachSuccessorFn>
TopologicalSortResult topologicalSortBy(uint32_t NumNodes,
                                        ForEachSuccessorFn &&ForEachSuccessor) {
  TopologicalSortResult Result;
  std::vector<uint32_t> InDegree(NumNodes, 0);
  for (uint32_t N = 0; N != NumNodes; ++N)
    ForEachSuccessor(N, [&](uint32_t Succ) {
      assert(Succ < NumNodes && "edge target out of range");
      ++InDegree[Succ];
    });

  // A min-heap of ready nodes makes the order deterministic (smallest
  // index first among nodes whose predecessors are all emitted).
  std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<>> Ready;
  for (uint32_t N = 0; N != NumNodes; ++N)
    if (InDegree[N] == 0)
      Ready.push(N);

  Result.Order.reserve(NumNodes);
  while (!Ready.empty()) {
    uint32_t N = Ready.top();
    Ready.pop();
    Result.Order.push_back(N);
    ForEachSuccessor(N, [&](uint32_t Succ) {
      if (--InDegree[Succ] == 0)
        Ready.push(Succ);
    });
  }

  if (Result.Order.size() == NumNodes) {
    Result.IsAcyclic = true;
    return Result;
  }

  // Some node was never emitted: it sits on (or downstream of) a cycle.
  // Report the smallest node with a remaining in-degree as the witness.
  Result.Order.clear();
  for (uint32_t N = 0; N != NumNodes; ++N)
    if (InDegree[N] != 0) {
      Result.CycleWitness = N;
      break;
    }
  return Result;
}

/// The same sort over adjacency lists (Successors[N] are the targets of
/// edges out of N).
inline TopologicalSortResult
topologicalSort(uint32_t NumNodes,
                const std::vector<std::vector<uint32_t>> &Successors) {
  assert(Successors.size() == NumNodes && "adjacency list size mismatch");
  return topologicalSortBy(NumNodes, [&](uint32_t N, auto Visit) {
    for (uint32_t Succ : Successors[N])
      Visit(Succ);
  });
}

} // namespace memlook

#endif // MEMLOOK_SUPPORT_TOPOLOGICALSORT_H
