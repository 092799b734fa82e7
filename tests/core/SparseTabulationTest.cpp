//===- SparseTabulationTest.cpp - Sparse walk + paged columns -------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// ParallelTabulator computes each column only on the down-closure of
/// the member's declarers and stores it in pages (CompactColumn.h). These
/// tests hold it to the dense definition: on every generator family,
/// each tabulated column must equal a column built here by running the
/// public Figure 8 kernel over every class in topological order - entry
/// for entry, pools included, with the same live pages. They also pin
/// the storage contract: every all-absent page is the one shared zero
/// page, copies own their pages, and the forest table stays small.
///
//===----------------------------------------------------------------------===//

#include "memlook/core/ParallelTabulator.h"
#include "memlook/service/Snapshot.h"
#include "memlook/workload/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace memlook;
using namespace memlook::service;
using namespace memlook::testutil;

namespace {

/// The dense reference: computeEntry over all of topologicalOrder() into
/// a fresh column.
CompactColumn denseColumn(const Hierarchy &H, Symbol Member,
                          DominanceLookupEngine::Stats &S) {
  CompactColumn Col;
  Col.reset(H.numClasses());
  for (ClassId C : H.topologicalOrder())
    DominanceLookupEngine::computeEntry(H, Col, C, Member, S);
  return Col;
}

/// \p H rebuilt with its class ids in reverse, so that class id order is
/// never a topological order and the walk must sort by topoIndex.
Hierarchy reversedIds(const Hierarchy &H) {
  uint32_t N = H.numClasses();
  auto Map = [N](ClassId C) { return ClassId(N - 1 - C.index()); };
  Hierarchy Out;
  for (uint32_t I = N; I-- != 0;)
    Out.createClass(H.className(ClassId(I)));
  for (uint32_t I = 0; I != N; ++I) {
    ClassId To = Map(ClassId(I));
    const Hierarchy::ClassInfo &Info = H.info(ClassId(I));
    for (const BaseSpecifier &Spec : Info.DirectBases)
      Out.addBase(To, Map(Spec.Base), Spec.Kind, Spec.Access);
    for (const MemberDecl &M : Info.Members) {
      if (M.isUsingDeclaration())
        Out.addUsingDeclaration(To, Map(M.UsingFrom), H.spelling(M.Name),
                                M.Access);
      else
        Out.addMember(To, H.spelling(M.Name), M.IsStatic, M.IsVirtual,
                      M.Access);
    }
  }
  DiagnosticEngine Diags;
  EXPECT_TRUE(Out.finalize(Diags));
  return Out;
}

template <typename T>
bool sameBytes(std::span<const T> A, std::span<const T> B) {
  return A.size() == B.size() &&
         (A.empty() || std::memcmp(A.data(), B.data(), A.size_bytes()) == 0);
}

/// Tabulates \p H and compares every column with its dense reference.
/// Also checks that the walk computed exactly the non-absent rows.
void expectSparseEqualsDense(const Hierarchy &H, const std::string &Tag) {
  ParallelTabulator::Result R =
      ParallelTabulator::tabulateAll(H, Deadline::never(), 2);
  ASSERT_TRUE(R.Complete) << Tag;

  DominanceLookupEngine::Stats DenseStats;
  uint64_t NonAbsent = 0;
  const std::vector<Symbol> &Members = H.allMemberNames();
  for (uint32_t MI = 0; MI != Members.size(); ++MI) {
    std::string Where = Tag + " member " + std::string(H.spelling(Members[MI]));
    const ParallelTabulator::Column &Col = *R.Columns[MI];
    const CompactColumn &Sparse = Col.Data;
    CompactColumn Dense = denseColumn(H, Members[MI], DenseStats);

    ASSERT_EQ(Sparse.size(), Dense.size()) << Where;
    EXPECT_EQ(Col.Computed.count(), Col.Computed.size()) << Where;
    for (uint32_t Row = 0; Row != Dense.size(); ++Row) {
      EXPECT_EQ(std::memcmp(&Sparse[Row], &Dense[Row], sizeof(CompactEntry)),
                0)
          << Where << " row " << Row;
      NonAbsent += Dense[Row].kind() != EntryKind::Absent;
    }
    EXPECT_TRUE(sameBytes(Sparse.rawRedPool(), Dense.rawRedPool())) << Where;
    EXPECT_TRUE(sameBytes(Sparse.rawBluePool(), Dense.rawBluePool())) << Where;
    ASSERT_EQ(Sparse.numPages(), Dense.numPages()) << Where;
    for (uint32_t P = 0; P != Dense.numPages(); ++P)
      EXPECT_EQ(Sparse.pageLive(P), Dense.pageLive(P))
          << Where << " page " << P;
    EXPECT_TRUE(Sparse == Dense) << Where;
    EXPECT_EQ(Col.StructuralHash, Dense.structuralHash()) << Where;
  }
  EXPECT_EQ(R.TabulationStats.EntriesComputed, NonAbsent) << Tag;
  EXPECT_EQ(R.TabulationStats.DominanceTests, DenseStats.DominanceTests)
      << Tag;
  EXPECT_EQ(R.TabulationStats.BlueElementsMoved,
            DenseStats.BlueElementsMoved)
      << Tag;
}

TEST(SparseTabulationTest, StructuredFamiliesMatchDenseReference) {
  expectSparseEqualsDense(makeFigure1(), "figure1");
  expectSparseEqualsDense(makeFigure2(), "figure2");
  expectSparseEqualsDense(makeFigure3(), "figure3");
  expectSparseEqualsDense(makeFigure9(), "figure9");
  expectSparseEqualsDense(makeModularForest(12, 3, 3, 4, 2).H, "modular");
  expectSparseEqualsDense(reversedIds(makeModularForest(12, 3, 3, 4, 2).H),
                          "modular, ids reversed");
  expectSparseEqualsDense(makeWideForest(5, 3, 3, 4).H, "wide");
  expectSparseEqualsDense(makeChain(300, 7).H, "chain");
  expectSparseEqualsDense(makeNonVirtualDiamondStack(5).H, "nv-diamonds");
  expectSparseEqualsDense(makeVirtualDiamondStack(6, true).H, "v-diamonds");
  expectSparseEqualsDense(makeGrid(9, 9).H, "grid");
  expectSparseEqualsDense(makeGrid(6, 6, /*Virtual=*/true).H, "v-grid");
  expectSparseEqualsDense(makeAmbiguityFan(12).H, "fan");
  expectSparseEqualsDense(makeIostreamLike().H, "iostream");
}

TEST(SparseTabulationTest, RandomHierarchiesMatchDenseReference) {
  // Virtual edges, statics (merged red sets fill the red pool),
  // using-declarations and restricted access, at sizes that span several
  // pages with a sparse declare rate so that zero pages occur.
  RandomHierarchyParams Params;
  Params.VirtualEdgeChance = 0.3;
  Params.StaticChance = 0.25;
  Params.RestrictedEdgeChance = 0.3;
  Params.UsingChance = 0.1;
  for (uint64_t Seed = 0; Seed != 120; ++Seed) {
    Params.NumClasses = Seed % 3 == 0 ? 260 : 24;
    Params.DeclareChance = Seed % 3 == 0 ? 0.01 : 0.3;
    Params.MemberPool = Seed % 3 == 0 ? 12 : 4;
    Workload W = makeRandomHierarchy(Params, Seed * 7919 + 3);
    std::string Tag = "random seed " + std::to_string(Seed);
    expectSparseEqualsDense(W.H, Tag);
    expectSparseEqualsDense(reversedIds(W.H), Tag + ", ids reversed");
  }
}

TEST(SparseTabulationTest, ForestAbsentPagesAliasTheZeroPage) {
  Workload W = makeModularForest(96, 3, 4, 6, 2);
  std::shared_ptr<const LookupTable> Table = LookupTable::build(W.H);
  ASSERT_NE(Table, nullptr);

  uint64_t ZeroPages = 0, LivePages = 0;
  for (const std::shared_ptr<const LookupTable::Column> &Col :
       Table->columns()) {
    const CompactColumn &Data = Col->Data;
    for (uint32_t P = 0; P != Data.numPages(); ++P) {
      std::span<const CompactEntry> Rows = Data.page(P);
      bool AllAbsent = true;
      for (const CompactEntry &E : Rows)
        AllAbsent &= E.kind() == EntryKind::Absent;
      EXPECT_EQ(Rows.data() == CompactColumn::zeroPage(), AllAbsent)
          << "page " << P;
      ++(AllAbsent ? ZeroPages : LivePages);
    }
  }
  // The forest's columns are almost all absent pages.
  EXPECT_GT(ZeroPages, 50 * LivePages);
}

TEST(SparseTabulationTest, ForestTableFitsInFiveMegabytes) {
  // 11,616 classes x 578 names: a dense table would be 161 MB of
  // entries before dedup.
  Workload W = makeModularForest(96, 3, 4, 6, 2);
  std::shared_ptr<const LookupTable> Table = LookupTable::build(W.H);
  ASSERT_NE(Table, nullptr);
  EXPECT_LT(Table->heapBytes(), uint64_t(5) << 20);
}

TEST(SparseTabulationTest, CopiesOwnTheirPages) {
  CompactColumn Original;
  Original.reset(200);
  const ClassId One[1] = {ClassId(3)};
  Original.setRed(Original.slot(5), ClassId(3), One, ClassId(3), ClassId(),
                  AccessSpec::Public, false);
  Original.setRed(Original.slot(150), ClassId(3), One, ClassId(3), ClassId(),
                  AccessSpec::Public, false);

  auto Copy = std::make_unique<CompactColumn>(Original);
  CompactColumn Assigned;
  Assigned = Original;
  for (const CompactColumn *C : {Copy.get(), &Assigned}) {
    EXPECT_TRUE(*C == Original);
    for (uint32_t P = 0; P != C->numPages(); ++P) {
      if (C->pageLive(P)) {
        EXPECT_NE(C->page(P).data(), Original.page(P).data()) << "page " << P;
      }
    }
  }
  EXPECT_EQ(Original.numPages(), 4u);
  EXPECT_FALSE(Original.pageLive(1));
  EXPECT_FALSE(Original.pageLive(3));

  Original.reset(0); // the copies must not read freed pages
  EXPECT_EQ((*Copy)[5].kind(), EntryKind::Red);
  EXPECT_EQ(Assigned[150].kind(), EntryKind::Red);
  EXPECT_EQ(Assigned[149].kind(), EntryKind::Absent);
}

TEST(SparseTabulationTest, LoadedDenseStorageMapsAbsentPagesToZeroPage) {
  std::vector<CompactEntry> Dense(130);
  Dense[70].KindAndFlags = static_cast<uint8_t>(EntryKind::Blue);
  Dense[70].PoolCount = 1;
  std::vector<BlueElement> Blues{{ClassId(1), ClassId(2)}};

  auto Arena = std::make_shared<std::vector<CompactEntry>>(Dense);
  CompactColumn Borrowed =
      CompactColumn::fromBorrowed(Arena, *Arena, {}, Blues);
  CompactColumn Owned = CompactColumn::fromRaw(Dense, {}, Blues);
  for (const CompactColumn *C : {&Borrowed, &Owned}) {
    ASSERT_EQ(C->size(), 130u);
    EXPECT_FALSE(C->pageLive(0));
    EXPECT_TRUE(C->pageLive(1));
    EXPECT_FALSE(C->pageLive(2));
    EXPECT_EQ(C->page(2).size(), 2u);
    EXPECT_EQ((*C)[70].kind(), EntryKind::Blue);
    EXPECT_EQ((*C)[129].kind(), EntryKind::Absent);
  }
  EXPECT_TRUE(Borrowed == Owned);
  EXPECT_EQ(Borrowed.structuralHash(), Owned.structuralHash());
  EXPECT_EQ(Borrowed.page(1).data(), Arena->data() + 64);
}

} // namespace
