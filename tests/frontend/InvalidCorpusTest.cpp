//===- InvalidCorpusTest.cpp -----------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs every file in tests/corpus/invalid/ through the front end under
/// the untrusted-input budget and checks that each one is rejected with
/// the *expected structured diagnostic* - not a crash, not an assert,
/// and not a vague catch-all. The corpus is the executable spec of the
/// hardened pipeline's rejection behavior.
///
//===----------------------------------------------------------------------===//

#include "memlook/frontend/Parser.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace memlook;

namespace {

struct InvalidCase {
  const char *FileName;
  DiagCode ExpectedCode;
};

// Names the case by its file in test names; gtest would otherwise print
// the struct's raw bytes, FileName's pointer included, so every build
// would name the cases differently.
void PrintTo(const InvalidCase &Case, std::ostream *OS) {
  *OS << Case.FileName;
}

// Every file in corpus/invalid must appear here: the test cross-checks
// the directory listing against this table so a new malformed input
// can't land without a stated expectation.
constexpr InvalidCase Cases[] = {
    {"cycle.mlk", DiagCode::SelfInheritance},
    {"duplicate_class.mlk", DiagCode::DuplicateClass},
    {"mixed_virtual_duplicate_edge.mlk", DiagCode::ConflictingBase},
    {"unterminated_block.mlk", DiagCode::SyntaxError},
    {"deep_chain.mlk", DiagCode::TooManyClasses},
};

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::filesystem::path invalidDir() {
  return std::filesystem::path(MEMLOOK_CORPUS_DIR) / "invalid";
}

class InvalidCorpusTest : public ::testing::TestWithParam<InvalidCase> {};

} // namespace

TEST_P(InvalidCorpusTest, RejectedWithStructuredDiagnostic) {
  const InvalidCase &Case = GetParam();
  std::string Source = readFile(invalidDir() / Case.FileName);
  ASSERT_FALSE(Source.empty());

  DiagnosticEngine Diags;
  ParseOptions Options;
  Options.Budget = ResourceBudget::untrustedInput();
  std::optional<ParsedProgram> Program =
      parseProgram(Source, Diags, Options);

  EXPECT_FALSE(Program.has_value())
      << Case.FileName << " should have been rejected";
  EXPECT_TRUE(Diags.hasErrors()) << Case.FileName;
  EXPECT_TRUE(Diags.hasCode(Case.ExpectedCode))
      << Case.FileName << ": expected " << diagCodeLabel(Case.ExpectedCode)
      << " among the reported diagnostics";
}

TEST(InvalidCorpusTest, EveryCorpusFileHasAnExpectation) {
  size_t FilesSeen = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(invalidDir())) {
    if (Entry.path().extension() != ".mlk")
      continue;
    ++FilesSeen;
    std::string Name = Entry.path().filename().string();
    bool Known = false;
    for (const InvalidCase &Case : Cases)
      Known |= Name == Case.FileName;
    EXPECT_TRUE(Known) << Name << " has no entry in the expectation table";
  }
  EXPECT_EQ(FilesSeen, sizeof(Cases) / sizeof(Cases[0]));
}

TEST(InvalidCorpusTest, DiagnosticCapBoundsErrorCount) {
  // The deep chain emits exactly one budget diagnostic, but even inputs
  // with thousands of independent errors stay within the configured cap
  // (plus the TooManyErrors sentinel).
  std::string Source;
  for (int I = 0; I != 500; ++I)
    Source += "lookup ; ;\n"; // each line is an independent syntax error
  DiagnosticEngine Diags;
  ParseOptions Options;
  Options.Budget = ResourceBudget::untrustedInput();
  EXPECT_FALSE(parseProgram(Source, Diags, Options).has_value());
  EXPECT_TRUE(Diags.truncated());
  EXPECT_TRUE(Diags.hasCode(DiagCode::TooManyErrors));
  EXPECT_LE(Diags.errorCount(),
            ResourceBudget::untrustedInput().MaxErrorDiagnostics + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Files, InvalidCorpusTest, ::testing::ValuesIn(Cases),
    [](const ::testing::TestParamInfo<InvalidCase> &Info) {
      std::string Name = Info.param.FileName;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });
