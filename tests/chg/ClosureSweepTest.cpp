//===- ClosureSweepTest.cpp -------------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// Bounded-exhaustive check of Hierarchy's closure queries. Every
/// hierarchy on five classes whose edges respect one fixed topological
/// order is built - each of the 10 ordered pairs unconnected, joined by
/// a non-virtual edge, or joined by a virtual edge: 3^10 = 59,049 graphs
/// - and isBaseOf, isVirtualBaseOf, basesOf, virtualBasesOf and
/// topoIndex are compared with facts read off a literal enumeration of
/// every CHG path.
///
/// The fixed order is a permutation of the class ids, not the identity,
/// so topological index and class id disagree and the topoIndex pruning
/// in isBaseOf is exercised.
///
//===----------------------------------------------------------------------===//

#include "memlook/chg/Hierarchy.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

using namespace memlook;

namespace {

constexpr uint32_t N = 5;
constexpr uint32_t NumPairs = N * (N - 1) / 2;
/// Topological position -> class id.
constexpr uint32_t Order[N] = {3, 0, 4, 1, 2};

/// Edge kinds by class id: 0 none, 1 non-virtual, 2 virtual.
using EdgeTable = uint8_t[N][N];

/// Facts about every ordered pair, from path enumeration alone.
struct PathFacts {
  bool Reach[N][N] = {};        // some nonempty path Base -> ... -> Derived
  bool VirtualReach[N][N] = {}; // some such path starts with a virtual edge
};

/// Walks every path leaving \p At (no visited set: all paths, not all
/// nodes), recording that \p Start reaches each node on it.
void walkAllPaths(const EdgeTable &Edges, uint32_t Start, uint32_t At,
                  bool FirstVirtual, PathFacts &Facts) {
  for (uint32_t Next = 0; Next != N; ++Next) {
    if (Edges[At][Next] == 0)
      continue;
    bool Virtual = At == Start ? Edges[At][Next] == 2 : FirstVirtual;
    Facts.Reach[Start][Next] = true;
    Facts.VirtualReach[Start][Next] |= Virtual;
    walkAllPaths(Edges, Start, Next, Virtual, Facts);
  }
}

/// Fills \p Edges with graph number \p Code (base-3 digits, one per
/// pair of topological positions).
void decode(uint32_t Code, EdgeTable &Edges) {
  for (uint32_t I = 0; I != N; ++I)
    for (uint32_t J = 0; J != N; ++J)
      Edges[I][J] = 0;
  for (uint32_t I = 0; I != N; ++I)
    for (uint32_t J = I + 1; J != N; ++J) {
      Edges[Order[I]][Order[J]] = static_cast<uint8_t>(Code % 3);
      Code /= 3;
    }
}

/// Compares \p H against \p Edges; returns a description of every
/// disagreement, or an empty string.
std::string checkGraph(const Hierarchy &H, const EdgeTable &Edges) {
  PathFacts Facts;
  for (uint32_t B = 0; B != N; ++B)
    walkAllPaths(Edges, B, B, false, Facts);

  std::ostringstream Err;
  const std::vector<ClassId> &Topo = H.topologicalOrder();
  if (Topo.size() != N)
    return "topological order has the wrong length";
  for (uint32_t P = 0; P != N; ++P)
    if (H.topoIndex(Topo[P]) != P)
      Err << "topoIndex(" << Topo[P].index() << ") != " << P << "; ";

  uint32_t VirtualBaseClasses = 0;
  for (uint32_t B = 0; B != N; ++B) {
    bool IsVirtualBase = false;
    for (uint32_t D = 0; D != N; ++D) {
      ClassId Base(B), Derived(D);
      if (Facts.Reach[B][D] && H.topoIndex(Base) >= H.topoIndex(Derived))
        Err << "base " << B << " not ordered before " << D << "; ";
      if (H.isBaseOf(Base, Derived) != Facts.Reach[B][D])
        Err << "isBaseOf(" << B << ", " << D << "); ";
      if (H.isVirtualBaseOf(Base, Derived) != Facts.VirtualReach[B][D])
        Err << "isVirtualBaseOf(" << B << ", " << D << "); ";
      IsVirtualBase |= Facts.VirtualReach[B][D];
    }
    VirtualBaseClasses += IsVirtualBase;
  }
  if (H.numVirtualBaseClasses() != VirtualBaseClasses)
    Err << "numVirtualBaseClasses " << H.numVirtualBaseClasses() << " != "
        << VirtualBaseClasses << "; ";

  for (uint32_t D = 0; D != N; ++D) {
    BitVector Bases = H.basesOf(ClassId(D));
    BitVector VirtualBases = H.virtualBasesOf(ClassId(D));
    if (Bases.size() != N || VirtualBases.size() != N)
      return "closure row has the wrong size";
    for (uint32_t B = 0; B != N; ++B) {
      if (Bases.test(B) != Facts.Reach[B][D])
        Err << "basesOf(" << D << ") at " << B << "; ";
      if (VirtualBases.test(B) != Facts.VirtualReach[B][D])
        Err << "virtualBasesOf(" << D << ") at " << B << "; ";
    }
  }
  return Err.str();
}

} // namespace

TEST(ClosureSweepTest, EveryFiveClassHierarchyMatchesPathEnumeration) {
  uint32_t NumGraphs = 1;
  for (uint32_t I = 0; I != NumPairs; ++I)
    NumGraphs *= 3;
  ASSERT_EQ(NumGraphs, 59049u);

  uint32_t Failures = 0;
  for (uint32_t Code = 0; Code != NumGraphs; ++Code) {
    EdgeTable Edges;
    decode(Code, Edges);

    Hierarchy H;
    for (uint32_t C = 0; C != N; ++C)
      H.createClass(std::string(1, static_cast<char>('A' + C)));
    for (uint32_t D = 0; D != N; ++D)
      for (uint32_t B = 0; B != N; ++B)
        if (Edges[B][D] != 0)
          H.addBase(ClassId(D), ClassId(B),
                    Edges[B][D] == 2 ? InheritanceKind::Virtual
                                     : InheritanceKind::NonVirtual);
    DiagnosticEngine Diags;
    ASSERT_TRUE(H.finalize(Diags)) << "graph " << Code;

    std::string Err = checkGraph(H, Edges);
    if (!Err.empty() && ++Failures <= 5)
      ADD_FAILURE() << "graph " << Code << ": " << Err;
  }
  EXPECT_EQ(Failures, 0u);
}
