//===- AnswerSweepTest.cpp ------------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// Bounded-exhaustive check of tabulated answers. Every hierarchy on
/// four classes whose edges respect one fixed topological order is built
/// - each of the 6 ordered pairs unconnected, joined by a non-virtual
/// edge, or joined by a virtual edge: 3^6 = 729 graphs - and combined
/// with each of the 15 non-empty sets of classes declaring one member
/// m, with m static and non-static: 21,870 cases.
///
/// In each case the sparse column ParallelTabulator builds must equal,
/// byte for byte, the dense column the Figure 8 kernel gives over every
/// class, and every row's answer must equal the Rossie-Friedman
/// subobject-graph definition (SubobjectLookupEngine).
///
/// The fixed order is a permutation of the class ids, so topological
/// index and class id disagree and a walk that followed ids instead of
/// the topological order would read uncomputed bases.
///
//===----------------------------------------------------------------------===//

#include "memlook/core/ParallelTabulator.h"
#include "memlook/core/SubobjectLookupEngine.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <string>

using namespace memlook;
using namespace memlook::testutil;

namespace {

constexpr uint32_t N = 4;
/// Topological position -> class id.
constexpr uint32_t Order[N] = {2, 0, 3, 1};

/// Builds graph number \p Code (base-3 digits, one per pair of
/// topological positions: 0 none, 1 non-virtual, 2 virtual) with m
/// declared in the classes of \p DeclMask.
Hierarchy buildCase(uint32_t Code, uint32_t DeclMask, bool Static) {
  Hierarchy H;
  for (uint32_t C = 0; C != N; ++C)
    H.createClass("K" + std::to_string(C));
  for (uint32_t I = 0; I != N; ++I)
    for (uint32_t J = I + 1; J != N; ++J) {
      uint32_t Kind = Code % 3;
      Code /= 3;
      if (Kind != 0)
        H.addBase(ClassId(Order[J]), ClassId(Order[I]),
                  Kind == 2 ? InheritanceKind::Virtual
                            : InheritanceKind::NonVirtual);
    }
  for (uint32_t C = 0; C != N; ++C)
    if (DeclMask & (1u << C))
      H.addMember(ClassId(C), "m", Static);
  DiagnosticEngine Diags;
  bool Finalized = H.finalize(Diags);
  EXPECT_TRUE(Finalized);
  return H;
}

TEST(AnswerSweepTest, SparseColumnsMatchDenseAndSubobjectDefinition) {
  uint32_t Cases = 0;
  for (uint32_t Code = 0; Code != 729; ++Code)
    for (uint32_t DeclMask = 1; DeclMask != 16; ++DeclMask)
      for (bool Static : {false, true}) {
        ++Cases;
        Hierarchy H = buildCase(Code, DeclMask, Static);
        std::string Tag = "graph " + std::to_string(Code) + " declarers " +
                          std::to_string(DeclMask) +
                          (Static ? " static" : "");
        Symbol M = H.findName("m");

        ParallelTabulator::Result R =
            ParallelTabulator::tabulateAll(H, Deadline::never(), 1);
        ASSERT_TRUE(R.Complete) << Tag;
        ASSERT_EQ(R.Columns.size(), 1u) << Tag;
        const ParallelTabulator::Column &Col = *R.Columns[0];

        CompactColumn Dense;
        Dense.reset(N);
        DominanceLookupEngine::Stats S;
        for (ClassId C : H.topologicalOrder())
          DominanceLookupEngine::computeEntry(H, Dense, C, M, S);
        ASSERT_TRUE(Col.Data == Dense) << Tag;

        SubobjectLookupEngine Reference(H);
        for (uint32_t C = 0; C != N; ++C)
          ASSERT_EQ(comparisonKey(H, Col.resultFor(H, ClassId(C))),
                    comparisonKey(H, Reference.lookup(ClassId(C), M)))
              << Tag << " at " << H.className(ClassId(C));
      }
  EXPECT_EQ(Cases, 21870u);
}

} // namespace
