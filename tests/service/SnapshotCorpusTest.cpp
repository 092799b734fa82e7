//===- SnapshotCorpusTest.cpp ----------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs every file in tests/corpus/snapshots/ through the snapshot
/// loader under the untrusted-input budget and checks that each one is
/// rejected with the *expected structured ErrorCode* - not a crash, not
/// an assert, and not a vague catch-all. The corpus is the executable
/// spec of the loader's rejection behavior; regenerate it with the
/// make_snapshot_corpus tool (which self-checks the same table).
///
//===----------------------------------------------------------------------===//

#include "memlook/service/SnapshotFile.h"

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>

using namespace memlook;
using namespace memlook::service;

namespace {

struct CorpusCase {
  const char *FileName;
  ErrorCode ExpectedCode;
};

// Names the case by its file in test names; gtest would otherwise print
// the struct's raw bytes, FileName's pointer included, so every build
// would name the cases differently.
void PrintTo(const CorpusCase &Case, std::ostream *OS) {
  *OS << Case.FileName;
}

// Every file in corpus/snapshots must appear here: the test cross-checks
// the directory listing against this table so a new corrupted snapshot
// can't land without a stated expectation.
constexpr CorpusCase Cases[] = {
    {"empty.snap", ErrorCode::SnapshotMalformed},
    {"bad_magic.snap", ErrorCode::SnapshotVersionMismatch},
    {"bad_version.snap", ErrorCode::SnapshotVersionMismatch},
    {"truncated_mid_section.snap", ErrorCode::SnapshotMalformed},
    {"flipped_payload_bit.snap", ErrorCode::SnapshotChecksumMismatch},
    {"oob_pool_offset.snap", ErrorCode::SnapshotMalformed},
    {"header_class_count_lie.snap", ErrorCode::SnapshotMalformed},
    {"cyclic_hierarchy.snap", ErrorCode::SnapshotMalformed},
    {"huge_counts.snap", ErrorCode::BudgetExceeded},
    {"via_not_base.snap", ErrorCode::SnapshotMalformed},
    {"member_ref_swap.snap", ErrorCode::SnapshotMalformed},
    {"stale_table_after_hierarchy_edit.snap", ErrorCode::SnapshotMalformed},
};

std::filesystem::path snapshotsDir() {
  return std::filesystem::path(MEMLOOK_CORPUS_DIR) / "snapshots";
}

class SnapshotCorpusTest : public ::testing::TestWithParam<CorpusCase> {};

} // namespace

TEST_P(SnapshotCorpusTest, RejectedWithStructuredError) {
  const CorpusCase &Case = GetParam();
  std::filesystem::path Path = snapshotsDir() / Case.FileName;
  ASSERT_TRUE(std::filesystem::exists(Path))
      << Path << " missing - regenerate with make_snapshot_corpus";

  Expected<SnapshotPayload> Loaded =
      readSnapshotFile(Path.string(), ResourceBudget::untrustedInput());
  ASSERT_FALSE(Loaded.hasValue())
      << Case.FileName << " should have been rejected";
  EXPECT_EQ(Loaded.status().code(), Case.ExpectedCode)
      << Case.FileName << ": rejected as '" << Loaded.status().toString()
      << "', expected " << errorCodeLabel(Case.ExpectedCode);
}

TEST(SnapshotCorpusTest, EveryCorpusFileHasAnExpectation) {
  size_t FilesSeen = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(snapshotsDir())) {
    if (Entry.path().extension() != ".snap")
      continue;
    ++FilesSeen;
    std::string Name = Entry.path().filename().string();
    bool Known = false;
    for (const CorpusCase &Case : Cases)
      Known |= Name == Case.FileName;
    EXPECT_TRUE(Known) << Name << " has no entry in the expectation table";
  }
  EXPECT_EQ(FilesSeen, sizeof(Cases) / sizeof(Cases[0]));
}

INSTANTIATE_TEST_SUITE_P(
    Files, SnapshotCorpusTest, ::testing::ValuesIn(Cases),
    [](const ::testing::TestParamInfo<CorpusCase> &Info) {
      std::string Name = Info.param.FileName;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });
