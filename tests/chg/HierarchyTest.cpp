//===- HierarchyTest.cpp ---------------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/chg/Hierarchy.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace memlook;
using namespace memlook::testutil;

TEST(HierarchyTest, CreateAndFindClasses) {
  Hierarchy H;
  ClassId A = H.createClass("A");
  ClassId B = H.createClass("B");
  ASSERT_TRUE(A.isValid());
  ASSERT_TRUE(B.isValid());
  EXPECT_EQ(H.numClasses(), 2u);
  EXPECT_EQ(H.findClass("A"), A);
  EXPECT_EQ(H.findClass("B"), B);
  EXPECT_FALSE(H.findClass("C").isValid());
  EXPECT_EQ(H.className(A), "A");
}

TEST(HierarchyTest, DuplicateClassIsRejected) {
  Hierarchy H;
  DiagnosticEngine Diags;
  ASSERT_TRUE(H.createClass("A", SourceLoc(), &Diags).isValid());
  EXPECT_FALSE(H.createClass("A", SourceLoc(), &Diags).isValid());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(HierarchyTest, SelfInheritanceIsRejected) {
  Hierarchy H;
  DiagnosticEngine Diags;
  ClassId A = H.createClass("A");
  EXPECT_FALSE(H.addBase(A, A, InheritanceKind::NonVirtual,
                         AccessSpec::Public, SourceLoc(), &Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(HierarchyTest, DuplicateDirectBaseIsRejected) {
  // C++ [class.mi]: a class shall not be specified as a direct base
  // class more than once.
  Hierarchy H;
  DiagnosticEngine Diags;
  ClassId A = H.createClass("A");
  ClassId B = H.createClass("B");
  EXPECT_TRUE(H.addBase(B, A));
  EXPECT_FALSE(H.addBase(B, A, InheritanceKind::Virtual, AccessSpec::Public,
                         SourceLoc(), &Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(HierarchyTest, MemberRedeclarationFoldsWithWarning) {
  Hierarchy H;
  DiagnosticEngine Diags;
  ClassId A = H.createClass("A");
  H.addMember(A, "m");
  H.addMember(A, "m", /*IsStatic=*/true, false, AccessSpec::Public,
              SourceLoc(), &Diags);
  EXPECT_EQ(H.info(A).Members.size(), 1u);
  EXPECT_FALSE(H.info(A).Members.front().IsStatic) << "first decl wins";
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Diags.diagnostics().size(), 1u);
}

TEST(HierarchyTest, CycleFailsFinalize) {
  // Cycles cannot be written in C++ source (a base must be complete),
  // but the API must still reject them for robustness.
  Hierarchy H;
  ClassId A = H.createClass("A");
  ClassId B = H.createClass("B");
  ASSERT_TRUE(H.addBase(B, A)); // A -> B
  ASSERT_TRUE(H.addBase(A, B)); // B -> A: cycle
  DiagnosticEngine Diags;
  EXPECT_FALSE(H.finalize(Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(HierarchyTest, TopologicalOrderRespectsEdges) {
  Hierarchy H = makeFigure3();
  const std::vector<ClassId> &Order = H.topologicalOrder();
  ASSERT_EQ(Order.size(), H.numClasses());
  std::vector<uint32_t> Pos(H.numClasses());
  for (uint32_t I = 0; I != Order.size(); ++I)
    Pos[Order[I].index()] = I;
  for (uint32_t D = 0; D != H.numClasses(); ++D)
    for (const BaseSpecifier &Spec : H.info(ClassId(D)).DirectBases)
      EXPECT_LT(Pos[Spec.Base.index()], Pos[D]);
}

TEST(HierarchyTest, BaseClosureOnFigure3) {
  Hierarchy H = makeFigure3();
  ClassId A = H.findClass("A"), B = H.findClass("B"), C = H.findClass("C"),
          D = H.findClass("D"), E = H.findClass("E"), F = H.findClass("F"),
          G = H.findClass("G"), HH = H.findClass("H");

  EXPECT_TRUE(H.isBaseOf(A, HH));
  EXPECT_TRUE(H.isBaseOf(A, D));
  EXPECT_TRUE(H.isBaseOf(B, D));
  EXPECT_TRUE(H.isBaseOf(E, F));
  EXPECT_TRUE(H.isBaseOf(E, HH));
  EXPECT_FALSE(H.isBaseOf(E, G));
  EXPECT_FALSE(H.isBaseOf(HH, A)) << "base-of is directional";
  EXPECT_FALSE(H.isBaseOf(A, A)) << "base-of is proper (nonempty path)";
  EXPECT_FALSE(H.isBaseOf(B, C)) << "siblings are unrelated";
  EXPECT_TRUE(H.isBaseOf(D, F));
  EXPECT_TRUE(H.isBaseOf(D, G));
}

TEST(HierarchyTest, VirtualBaseClosureOnFigure3) {
  // X is a virtual base of Y iff some X->...->Y path *starts* with a
  // virtual edge (Section 2). In Figure 3 only D -> F and D -> G are
  // virtual.
  Hierarchy H = makeFigure3();
  ClassId A = H.findClass("A"), D = H.findClass("D"), F = H.findClass("F"),
          G = H.findClass("G"), HH = H.findClass("H");

  EXPECT_TRUE(H.isVirtualBaseOf(D, F));
  EXPECT_TRUE(H.isVirtualBaseOf(D, G));
  EXPECT_TRUE(H.isVirtualBaseOf(D, HH)) << "virtual-ness persists upward";
  EXPECT_FALSE(H.isVirtualBaseOf(A, HH))
      << "paths from A start with non-virtual edges";
  EXPECT_FALSE(H.isVirtualBaseOf(F, HH));
  EXPECT_FALSE(H.isVirtualBaseOf(G, HH));
}

TEST(HierarchyTest, VirtualBaseRequiresFirstEdgeVirtual) {
  // B -> C virtual, A -> B non-virtual: B is a virtual base of C but A
  // is NOT (the A -> B -> C path starts with a non-virtual edge).
  HierarchyBuilder Builder;
  Builder.addClass("A");
  Builder.addClass("B").withBase("A");
  Builder.addClass("C").withVirtualBase("B");
  Hierarchy H = std::move(Builder).build();
  EXPECT_TRUE(H.isVirtualBaseOf(H.findClass("B"), H.findClass("C")));
  EXPECT_FALSE(H.isVirtualBaseOf(H.findClass("A"), H.findClass("C")));
  EXPECT_TRUE(H.isBaseOf(H.findClass("A"), H.findClass("C")));
}

TEST(HierarchyTest, EdgeKindAndAccess) {
  Hierarchy H = makeFigure3();
  ClassId D = H.findClass("D"), F = H.findClass("F"), E = H.findClass("E"),
          A = H.findClass("A");

  ASSERT_TRUE(H.edgeKind(D, F).has_value());
  EXPECT_EQ(*H.edgeKind(D, F), InheritanceKind::Virtual);
  ASSERT_TRUE(H.edgeKind(E, F).has_value());
  EXPECT_EQ(*H.edgeKind(E, F), InheritanceKind::NonVirtual);
  EXPECT_FALSE(H.edgeKind(A, F).has_value()) << "no direct edge";
  EXPECT_EQ(*H.edgeAccess(D, F), AccessSpec::Public);
}

TEST(HierarchyTest, MemberQueries) {
  Hierarchy H = makeFigure3();
  ClassId A = H.findClass("A"), G = H.findClass("G");
  Symbol Foo = H.findName("foo");
  Symbol Bar = H.findName("bar");
  ASSERT_TRUE(Foo.isValid());
  ASSERT_TRUE(Bar.isValid());

  EXPECT_TRUE(H.declaresMember(A, Foo));
  EXPECT_FALSE(H.declaresMember(A, Bar));
  EXPECT_TRUE(H.declaresMember(G, Foo));
  EXPECT_TRUE(H.declaresMember(G, Bar));
  EXPECT_EQ(H.allMemberNames().size(), 2u);
  EXPECT_EQ(H.numMemberDecls(), 5u);
}

TEST(HierarchyTest, EdgeCountMatches) {
  Hierarchy H = makeFigure3();
  EXPECT_EQ(H.numEdges(), 9u);
}

TEST(HierarchyTest, AccessRestriction) {
  EXPECT_EQ(restrictAccess(AccessSpec::Public, AccessSpec::Public),
            AccessSpec::Public);
  EXPECT_EQ(restrictAccess(AccessSpec::Public, AccessSpec::Private),
            AccessSpec::Private);
  EXPECT_EQ(restrictAccess(AccessSpec::Protected, AccessSpec::Public),
            AccessSpec::Protected);
  EXPECT_EQ(restrictAccess(AccessSpec::Private, AccessSpec::Protected),
            AccessSpec::Private);
}

TEST(HierarchyTest, AccessSpelling) {
  EXPECT_STREQ(accessSpelling(AccessSpec::Public), "public");
  EXPECT_STREQ(accessSpelling(AccessSpec::Protected), "protected");
  EXPECT_STREQ(accessSpelling(AccessSpec::Private), "private");
}

TEST(HierarchyTest, ValidateAcceptsCleanDraft) {
  Hierarchy H;
  ClassId A = H.createClass("A");
  ClassId B = H.createClass("B");
  H.addBase(B, A, InheritanceKind::NonVirtual, AccessSpec::Public);
  H.addMember(A, "m", false, false, AccessSpec::Public);
  H.addUsingDeclaration(B, A, "m", AccessSpec::Public);
  DiagnosticEngine Diags;
  EXPECT_TRUE(H.validate(Diags));
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(HierarchyTest, ValidateReportsCycleWithoutMutating) {
  Hierarchy H;
  ClassId A = H.createClass("A");
  ClassId B = H.createClass("B");
  H.addBase(B, A, InheritanceKind::NonVirtual, AccessSpec::Public);
  H.addBase(A, B, InheritanceKind::NonVirtual, AccessSpec::Public);
  DiagnosticEngine Diags;
  EXPECT_FALSE(H.validate(Diags));
  EXPECT_TRUE(Diags.hasCode(DiagCode::InheritanceCycle));
  // validate() is const: the draft is still usable for diagnosis.
  EXPECT_FALSE(H.isFinalized());
  EXPECT_EQ(H.numClasses(), 2u);
}

TEST(HierarchyTest, ValidateReportsNonBaseUsingTarget) {
  Hierarchy H;
  ClassId A = H.createClass("A");
  ClassId B = H.createClass("B"); // unrelated to A
  H.addMember(A, "m", false, false, AccessSpec::Public);
  H.addUsingDeclaration(B, A, "m", AccessSpec::Public);
  DiagnosticEngine Diags;
  EXPECT_FALSE(H.validate(Diags));
  EXPECT_TRUE(Diags.hasCode(DiagCode::InvalidUsingTarget));
}

TEST(HierarchyTest, ValidateIsCycleSafeWithUsingDeclarations) {
  // Both problems at once: the using-target walk must not loop forever
  // on a cyclic base graph.
  Hierarchy H;
  ClassId A = H.createClass("A");
  ClassId B = H.createClass("B");
  ClassId C = H.createClass("C");
  H.addBase(B, A, InheritanceKind::NonVirtual, AccessSpec::Public);
  H.addBase(A, B, InheritanceKind::NonVirtual, AccessSpec::Public);
  H.addMember(A, "m", false, false, AccessSpec::Public);
  H.addUsingDeclaration(C, A, "m", AccessSpec::Public);
  DiagnosticEngine Diags;
  EXPECT_FALSE(H.validate(Diags));
  EXPECT_TRUE(Diags.hasCode(DiagCode::InheritanceCycle));
  EXPECT_TRUE(Diags.hasCode(DiagCode::InvalidUsingTarget));
}

/// A <- B, C, D with D : A; every class declares its own member.
Hierarchy editBase() {
  Hierarchy H;
  ClassId A = H.createClass("A");
  ClassId B = H.createClass("B");
  H.createClass("C");
  ClassId D = H.createClass("D");
  H.addBase(D, A);
  H.addBase(B, A);
  for (uint32_t C = 0; C != 4; ++C)
    H.addMember(ClassId(C), "m" + std::to_string(C));
  DiagnosticEngine Diags;
  EXPECT_TRUE(H.finalize(Diags));
  return H;
}

TEST(HierarchyTest, DirectDerivedStaysAscending) {
  // B is linked after D but has the lower id, so it is inserted first.
  Hierarchy Base = editBase();
  ClassId A(0), B(1), D(3);
  EXPECT_EQ(Base.info(A).DirectDerived, (std::vector<ClassId>{B, D}));

  // An edit adding a base to an older class inserts in id order too.
  Hierarchy H = Base.editableCopy();
  ClassId C(2);
  EXPECT_TRUE(H.addBase(C, A));
  EXPECT_EQ(H.info(A).DirectDerived, (std::vector<ClassId>{B, C, D}));

  // Removing a middle class shifts every later id down by one; the
  // lists stay ascending and name the same classes.
  EXPECT_TRUE(H.removeBase(C, A));
  H.removeClass(C);
  ASSERT_EQ(H.numClasses(), 3u);
  EXPECT_EQ(H.className(ClassId(2)), "D");
  EXPECT_EQ(H.findClass("D"), ClassId(2));
  EXPECT_FALSE(H.findClass("C").isValid());
  EXPECT_EQ(H.info(A).DirectDerived, (std::vector<ClassId>{B, ClassId(2)}));
  EXPECT_EQ(H.info(ClassId(2)).DirectBases.front().Base, A);
  EXPECT_EQ(H.numEdges(), 2u);
  EXPECT_EQ(H.numMemberDecls(), 3u);
  DiagnosticEngine Diags;
  EXPECT_TRUE(H.finalize(Diags));
}

TEST(HierarchyTest, EditableCopyKeepsIdsAndSymbolsAndLeavesTheBase) {
  Hierarchy Base = editBase();
  Hierarchy H = Base.editableCopy();
  EXPECT_FALSE(H.isFinalized());
  for (uint32_t C = 0; C != Base.numClasses(); ++C)
    EXPECT_EQ(H.info(ClassId(C)).Name, Base.info(ClassId(C)).Name);
  EXPECT_EQ(H.findName("m2"), Base.findName("m2"));

  // Edits to the copy never reach the base.
  EXPECT_TRUE(H.removeMember(ClassId(0), H.findName("m0")));
  EXPECT_FALSE(H.removeMember(ClassId(0), H.findName("m0")));
  EXPECT_TRUE(H.removeBase(ClassId(3), ClassId(0)));
  EXPECT_FALSE(H.removeBase(ClassId(3), ClassId(0)));
  H.addMember(ClassId(1), "fresh");
  EXPECT_EQ(H.numMemberDecls(), 4u);
  EXPECT_EQ(H.numEdges(), 1u);
  EXPECT_EQ(Base.numMemberDecls(), 4u);
  EXPECT_EQ(Base.numEdges(), 2u);
  EXPECT_TRUE(Base.declaresMember(ClassId(0), Base.findName("m0")));
  EXPECT_FALSE(Base.findName("fresh").isValid());
  EXPECT_EQ(Base.info(ClassId(0)).DirectDerived.size(), 2u);
}
