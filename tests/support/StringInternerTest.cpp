//===- StringInternerTest.cpp ----------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/support/StringInterner.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace memlook;

TEST(StringInternerTest, InternIsIdempotent) {
  StringInterner Interner;
  Symbol A1 = Interner.intern("alpha");
  Symbol A2 = Interner.intern("alpha");
  EXPECT_EQ(A1, A2);
  EXPECT_EQ(Interner.size(), 1u);
}

TEST(StringInternerTest, DistinctStringsGetDistinctSymbols) {
  StringInterner Interner;
  Symbol A = Interner.intern("alpha");
  Symbol B = Interner.intern("beta");
  EXPECT_NE(A, B);
  EXPECT_EQ(Interner.size(), 2u);
}

TEST(StringInternerTest, SpellingRoundTrips) {
  StringInterner Interner;
  Symbol A = Interner.intern("alpha");
  Symbol B = Interner.intern("beta");
  EXPECT_EQ(Interner.spelling(A), "alpha");
  EXPECT_EQ(Interner.spelling(B), "beta");
}

TEST(StringInternerTest, FindDoesNotIntern) {
  StringInterner Interner;
  EXPECT_FALSE(Interner.find("missing").isValid());
  EXPECT_EQ(Interner.size(), 0u);
  Symbol A = Interner.intern("present");
  EXPECT_EQ(Interner.find("present"), A);
}

TEST(StringInternerTest, EmptyStringIsInternable) {
  StringInterner Interner;
  Symbol Empty = Interner.intern("");
  EXPECT_TRUE(Empty.isValid());
  EXPECT_EQ(Interner.spelling(Empty), "");
}

TEST(StringInternerTest, SurvivesGrowthWithManyStrings) {
  // Regression guard for dangling string_view keys: symbols interned
  // early must still resolve after thousands of insertions force
  // storage growth.
  StringInterner Interner;
  std::vector<Symbol> Symbols;
  for (int I = 0; I != 5000; ++I)
    Symbols.push_back(Interner.intern("name" + std::to_string(I)));
  for (int I = 0; I != 5000; ++I) {
    EXPECT_EQ(Interner.spelling(Symbols[I]), "name" + std::to_string(I));
    EXPECT_EQ(Interner.find("name" + std::to_string(I)), Symbols[I]);
  }
}

TEST(StringInternerTest, SymbolsOrderedByCreation) {
  StringInterner Interner;
  Symbol First = Interner.intern("first");
  Symbol Second = Interner.intern("second");
  EXPECT_LT(First, Second);
  EXPECT_EQ(First.index() + 1, Second.index());
}

TEST(StringInternerTest, CloneOutlivesTheOriginal) {
  // The clone's index must key its own spellings: with the original
  // gone, a copy whose keys pointed into it would read freed memory
  // (which the asan preset reports).
  auto Original = std::make_unique<StringInterner>();
  std::vector<Symbol> Symbols;
  for (int I = 0; I != 100; ++I)
    Symbols.push_back(Original->intern("name_long_enough_to_spill_" +
                                       std::to_string(I)));
  StringInterner Copy = Original->clone();
  Original.reset();

  EXPECT_EQ(Copy.size(), 100u);
  for (int I = 0; I != 100; ++I) {
    std::string Name = "name_long_enough_to_spill_" + std::to_string(I);
    EXPECT_EQ(Copy.find(Name), Symbols[I]);
    EXPECT_EQ(Copy.spelling(Symbols[I]), Name);
  }
  // The clone grows on its own: new names take the next Symbols.
  EXPECT_EQ(Copy.intern("fresh").index(), 100u);
  EXPECT_EQ(Copy.intern("name_long_enough_to_spill_7"), Symbols[7]);
}
