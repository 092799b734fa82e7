//===- HierarchyMemoryTest.cpp ----------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// Pins the heap footprint of finalized hierarchies. A Hierarchy keeps no
/// N x N structure: the virtual-base matrix has one column per class that
/// is some class's virtual base, and nothing records transitive bases. So
/// a forest without virtual edges and a long chain both cost bytes linear
/// in classes plus edges. Two dense N x N bit matrices would cost 33.8 MB
/// on the forest and 625 MB on the chain, so the bounds catch any such
/// structure coming back.
///
//===----------------------------------------------------------------------===//

#include "memlook/workload/Generators.h"

#include <gtest/gtest.h>

using namespace memlook;

TEST(HierarchyMemoryTest, ForestStaysUnderEightMegabytes) {
  Workload W = makeModularForest(96, 3, 4, 6, 2);
  ASSERT_EQ(W.H.numClasses(), 11616u);
  EXPECT_EQ(W.H.numVirtualBaseClasses(), 0u);
  EXPECT_LT(W.H.heapBytes(), size_t(8) << 20);
}

TEST(HierarchyMemoryTest, DeepChainStaysUnderThirtyTwoMegabytes) {
  Workload W = makeChain(50000);
  ASSERT_EQ(W.H.numClasses(), 50000u);
  EXPECT_LT(W.H.heapBytes(), size_t(32) << 20);
}

TEST(HierarchyMemoryTest, VirtualMatrixHasOneColumnPerVirtualBase) {
  // A diamond stack with virtual edges: each Jk is the virtual base of
  // Lk+1 and Rk+1, and nothing else is.
  Workload W = makeVirtualDiamondStack(8);
  EXPECT_EQ(W.H.numVirtualBaseClasses(), 8u);
  EXPECT_GT(W.H.heapBytes(), 0u);
}
