//===- WalCorpusTest.cpp -----------------------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs every file in tests/corpus/wal/ through the salvager and checks
/// the full structured outcome - the stop code, how many records the
/// clean prefix still yields, and whether a torn tail was silently
/// dropped. The corpus is the executable spec of the torn-tail-versus-
/// corrupt-interior doctrine: damage a kill can produce is silent,
/// damage it cannot produce stops the scan with a recoverable Status,
/// and the clean prefix survives either way. Regenerate with the
/// make_wal_corpus tool (which self-checks the same table).
///
//===----------------------------------------------------------------------===//

#include "memlook/service/WriteAheadLog.h"

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>

using namespace memlook;
using namespace memlook::service;

namespace {

struct CorpusCase {
  const char *FileName;
  ErrorCode ExpectedCode;
  uint64_t ExpectedRecords;
  bool ExpectTornDrop;
};

// Names the case by its file in test names; gtest would otherwise print
// the struct's raw bytes, FileName's pointer included, so every build
// would name the cases differently.
void PrintTo(const CorpusCase &Case, std::ostream *OS) {
  *OS << Case.FileName;
}

// Every file in corpus/wal must appear here: the cross-check test below
// refuses a new damaged log without a stated expectation.
constexpr CorpusCase Cases[] = {
    {"empty.wal", ErrorCode::Ok, 0, false},
    {"no_base_record.wal", ErrorCode::WalCorrupt, 0, false},
    {"bad_magic.wal", ErrorCode::WalCorrupt, 0, false},
    {"bad_base_version.wal", ErrorCode::WalCorrupt, 0, false},
    {"flipped_payload_byte.wal", ErrorCode::WalCorrupt, 1, false},
    {"duplicated_epoch.wal", ErrorCode::WalEpochSkew, 2, false},
    {"epoch_gap.wal", ErrorCode::WalEpochSkew, 1, false},
    {"torn_tail.wal", ErrorCode::Ok, 2, true},
    {"truncated_mid_header.wal", ErrorCode::Ok, 2, true},
    {"length_lie.wal", ErrorCode::WalCorrupt, 2, false},
    {"junk_interior.wal", ErrorCode::WalCorrupt, 3, false},
};

std::filesystem::path walDir() {
  return std::filesystem::path(MEMLOOK_CORPUS_DIR) / "wal";
}

class WalCorpusTest : public ::testing::TestWithParam<CorpusCase> {};

} // namespace

TEST_P(WalCorpusTest, SalvageMatchesTheDoctrine) {
  const CorpusCase &Case = GetParam();
  std::filesystem::path Path = walDir() / Case.FileName;
  ASSERT_TRUE(std::filesystem::exists(Path))
      << Path << " missing - regenerate with make_wal_corpus";

  WalSalvage S = WriteAheadLog::replayFile(Path.string());
  EXPECT_EQ(S.Error.code(), Case.ExpectedCode)
      << Case.FileName << ": salvage stopped with '" << S.Error.toString()
      << "', expected " << errorCodeLabel(Case.ExpectedCode);
  EXPECT_EQ(S.Records.size(), Case.ExpectedRecords) << Case.FileName;
  EXPECT_EQ(S.TornBytesDropped != 0, Case.ExpectTornDrop) << Case.FileName;

  // The byte accounting closes on clean scans: every byte is either
  // cleanly framed or accounted torn.
  if (S.Error.isOk()) {
    EXPECT_EQ(S.CleanBytes + S.TornBytesDropped,
              std::filesystem::file_size(Path))
        << Case.FileName;
  }
}

TEST(WalCorpusTest, EveryCorpusFileHasAnExpectation) {
  size_t FilesSeen = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(walDir())) {
    if (Entry.path().extension() != ".wal")
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
    Files, WalCorpusTest, ::testing::ValuesIn(Cases),
    [](const ::testing::TestParamInfo<CorpusCase> &Info) {
      std::string Name = Info.param.FileName;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });
