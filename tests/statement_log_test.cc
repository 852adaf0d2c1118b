#include "store/statement_log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

namespace slider {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// v2 layout constants mirrored from the implementation: a 16-byte header
// (magic + base LSN) followed by 28-byte records (24-byte payload + CRC32).
constexpr size_t kV2HeaderSize = 16;
constexpr size_t kV2RecordSize = 28;

void TruncateFile(const std::string& path, size_t new_size) {
  std::filesystem::resize_file(path, new_size);
}

void FlipByte(const std::string& path, size_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

/// Appends raw bytes to `path`.
void AppendBytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(file.good());
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The 24-byte payload of a term record: both flag bits on the subject
/// word, the id in the p word, the byte length in the o word.
std::string TermPayload(TermId id, uint64_t length) {
  const uint64_t words[3] = {
      StatementLog::kTombstoneBit | StatementLog::kInferredBit, id, length};
  return std::string(reinterpret_cast<const char*>(words), sizeof(words));
}

TEST(StatementLogTest, AppendAndReadBack) {
  const std::string path = TempPath("log_roundtrip.bin");
  auto log = StatementLog::Open(path, /*flush_interval=*/0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append({1, 2, 3}).ok());
  ASSERT_TRUE((*log)->Append({4, 5, 6}).ok());
  EXPECT_EQ((*log)->records_written(), 2u);
  ASSERT_TRUE((*log)->Close().ok());

  auto records = StatementLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0], Triple(1, 2, 3));
  EXPECT_EQ((*records)[1], Triple(4, 5, 6));
}

TEST(StatementLogTest, BatchAppend) {
  const std::string path = TempPath("log_batch.bin");
  auto log = StatementLog::Open(path, /*flush_interval=*/16);
  ASSERT_TRUE(log.ok());
  TripleVec batch;
  for (TermId i = 1; i <= 100; ++i) batch.push_back({i, i + 1, i + 2});
  ASSERT_TRUE((*log)->AppendBatch(batch).ok());
  ASSERT_TRUE((*log)->Close().ok());
  auto records = StatementLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(*records, batch);
}

TEST(StatementLogTest, TombstoneRoundTrip) {
  const std::string path = TempPath("log_tombstones.bin");
  auto log = StatementLog::Open(path, 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append({1, 2, 3}).ok());
  ASSERT_TRUE((*log)->Append({4, 5, 6}).ok());
  ASSERT_TRUE((*log)->AppendTombstone({1, 2, 3}).ok());
  ASSERT_TRUE((*log)->Append({1, 2, 3}).ok());  // re-add after deletion
  EXPECT_EQ((*log)->records_written(), 4u);
  ASSERT_TRUE((*log)->Close().ok());

  auto records = StatementLog::ReadRecords(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);
  // The tombstone flag round-trips and the triple decodes unflagged.
  EXPECT_FALSE((*records)[0].tombstone);
  EXPECT_TRUE((*records)[2].tombstone);
  EXPECT_EQ((*records)[2].triple, Triple(1, 2, 3));
  EXPECT_FALSE((*records)[3].tombstone);

  // ReadAll skips tombstones but keeps every addition, in order.
  auto adds = StatementLog::ReadAll(path);
  ASSERT_TRUE(adds.ok());
  EXPECT_EQ(*adds, (TripleVec{{1, 2, 3}, {4, 5, 6}, {1, 2, 3}}));
}

TEST(StatementLogTest, TermRecordsInterleaveWithStatements) {
  const std::string path = TempPath("log_terms.bin");
  auto log = StatementLog::Open(path, 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->AppendTerm(7, "<http://ex/a>").ok());
  ASSERT_TRUE((*log)->Append({7, 7, 7}).ok());
  ASSERT_TRUE((*log)->AppendTerm(8, "\"a literal\twith a tab\"").ok());
  ASSERT_TRUE((*log)->AppendTombstone({7, 7, 7}).ok());
  // Term records are LSN-numbered like statements.
  EXPECT_EQ((*log)->next_lsn(), 4u);
  EXPECT_TRUE((*log)->AppendTerm(kAnyTerm, "<http://ex/x>").IsInvalidArgument());
  ASSERT_TRUE((*log)->Close().ok());

  auto records = StatementLog::ReadRecords(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 4u);
  EXPECT_TRUE((*records)[0].is_term());
  EXPECT_EQ((*records)[0].term_id, 7u);
  EXPECT_EQ((*records)[0].term, "<http://ex/a>");
  EXPECT_FALSE((*records)[1].is_term());
  EXPECT_EQ((*records)[1].triple, Triple(7, 7, 7));
  EXPECT_EQ((*records)[2].term, "\"a literal\twith a tab\"");
  EXPECT_TRUE((*records)[3].tombstone);
  EXPECT_FALSE((*records)[3].is_term());
  // ReadAll keeps additions only.
  auto adds = StatementLog::ReadAll(path);
  ASSERT_TRUE(adds.ok());
  EXPECT_EQ(*adds, (TripleVec{{7, 7, 7}}));
}

TEST(StatementLogTest, AppendAfterCloseFails) {
  const std::string path = TempPath("log_closed.bin");
  auto log = StatementLog::Open(path, 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Close().ok());
  EXPECT_TRUE((*log)->Append({1, 2, 3}).IsIOError());
  EXPECT_TRUE((*log)->Flush().IsIOError());
}

TEST(StatementLogTest, CloseIsIdempotent) {
  const std::string path = TempPath("log_idempotent.bin");
  auto log = StatementLog::Open(path, 0);
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE((*log)->Close().ok());
  EXPECT_TRUE((*log)->Close().ok());
}

TEST(StatementLogTest, OpenFailsOnBadPath) {
  auto log = StatementLog::Open("/nonexistent/dir/log.bin", 0);
  EXPECT_TRUE(log.status().IsIOError());
}

TEST(StatementLogTest, ReadAllFailsOnMissingFile) {
  auto records = StatementLog::ReadAll(TempPath("never_written.bin"));
  EXPECT_TRUE(records.status().IsIOError());
}

TEST(StatementLogTest, EmptyLogReadsEmpty) {
  const std::string path = TempPath("log_empty.bin");
  auto log = StatementLog::Open(path, 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Close().ok());
  auto records = StatementLog::ReadAll(path);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(StatementLogTest, InferredFlagRoundTrips) {
  const std::string path = TempPath("log_inferred.bin");
  auto log = StatementLog::Open(path, 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append({1, 2, 3}, /*is_explicit=*/true).ok());
  ASSERT_TRUE((*log)->Append({4, 5, 6}, /*is_explicit=*/false).ok());
  ASSERT_TRUE((*log)->Close().ok());

  auto records = StatementLog::ReadRecords(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_FALSE((*records)[0].inferred);
  EXPECT_TRUE((*records)[1].inferred);
  // The flag bits strip cleanly off the subject word.
  EXPECT_EQ((*records)[1].triple, Triple(4, 5, 6));
}

TEST(StatementLogTest, TornFinalRecordIsSkippedWithWarning) {
  const std::string path = TempPath("log_torn.bin");
  auto log = StatementLog::Open(path, 0);
  ASSERT_TRUE(log.ok());
  for (TermId i = 1; i <= 3; ++i) {
    ASSERT_TRUE((*log)->Append({i, i + 1, i + 2}).ok());
  }
  ASSERT_TRUE((*log)->Close().ok());

  // Crash mid-append: the final record is short.
  TruncateFile(path, kV2HeaderSize + 2 * kV2RecordSize + 13);
  auto contents = StatementLog::ReadLog(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->torn_tail);
  ASSERT_EQ(contents->records.size(), 2u);
  EXPECT_EQ(contents->records[1].triple, Triple(2, 3, 4));
}

TEST(StatementLogTest, TornFinalChecksumIsSkippedWithWarning) {
  const std::string path = TempPath("log_torn_crc.bin");
  auto log = StatementLog::Open(path, 0);
  ASSERT_TRUE(log.ok());
  for (TermId i = 1; i <= 3; ++i) {
    ASSERT_TRUE((*log)->Append({i, i + 1, i + 2}).ok());
  }
  ASSERT_TRUE((*log)->Close().ok());

  // Full-length final record whose payload was torn: CRC fails, but with
  // nothing after it this is still a crash artifact, not corruption.
  FlipByte(path, kV2HeaderSize + 2 * kV2RecordSize + 4);
  auto contents = StatementLog::ReadLog(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->torn_tail);
  EXPECT_EQ(contents->records.size(), 2u);
}

TEST(StatementLogTest, MidFileChecksumFailureIsAnError) {
  const std::string path = TempPath("log_corrupt.bin");
  auto log = StatementLog::Open(path, 0);
  ASSERT_TRUE(log.ok());
  for (TermId i = 1; i <= 3; ++i) {
    ASSERT_TRUE((*log)->Append({i, i + 1, i + 2}).ok());
  }
  ASSERT_TRUE((*log)->Close().ok());

  // A bad record with valid records after it cannot be a torn tail.
  FlipByte(path, kV2HeaderSize + 4);
  auto contents = StatementLog::ReadLog(path);
  EXPECT_TRUE(contents.status().IsIOError());
}

TEST(StatementLogTest, OpenAppendRepairsTornTail) {
  const std::string path = TempPath("log_torn_repair.bin");
  {
    auto log = StatementLog::Open(path, 0);
    ASSERT_TRUE(log.ok());
    for (TermId i = 1; i <= 3; ++i) {
      ASSERT_TRUE((*log)->Append({i, i + 1, i + 2}).ok());
    }
    ASSERT_TRUE((*log)->Close().ok());
  }
  TruncateFile(path, kV2HeaderSize + 2 * kV2RecordSize + 5);

  auto log = StatementLog::OpenAppend(path, 0);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->next_lsn(), 2u);
  ASSERT_TRUE((*log)->Append({7, 8, 9}).ok());
  ASSERT_TRUE((*log)->Close().ok());

  auto contents = StatementLog::ReadLog(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents->torn_tail);  // the repair dropped the torn bytes
  ASSERT_EQ(contents->records.size(), 3u);
  EXPECT_EQ(contents->records[2].triple, Triple(7, 8, 9));
}

TEST(StatementLogTest, TruncateToKeepsTheTailAndRebasesTheHeader) {
  const std::string path = TempPath("log_truncate.bin");
  auto log = StatementLog::Open(path, 0);
  ASSERT_TRUE(log.ok());
  for (TermId i = 1; i <= 5; ++i) {
    ASSERT_TRUE((*log)->Append({i, i + 1, i + 2}).ok());
  }
  EXPECT_EQ((*log)->base_lsn(), 0u);
  EXPECT_EQ((*log)->next_lsn(), 5u);

  ASSERT_TRUE((*log)->TruncateTo(3).ok());
  EXPECT_EQ((*log)->base_lsn(), 3u);
  EXPECT_EQ((*log)->next_lsn(), 5u);
  // The handle survives the swap: appends keep their global LSNs.
  ASSERT_TRUE((*log)->Append({9, 9, 9}).ok());
  EXPECT_EQ((*log)->next_lsn(), 6u);
  // At or below the base is a no-op; beyond the end is an error.
  EXPECT_TRUE((*log)->TruncateTo(2).ok());
  EXPECT_EQ((*log)->base_lsn(), 3u);
  EXPECT_TRUE((*log)->TruncateTo(99).IsInvalidArgument());
  ASSERT_TRUE((*log)->Close().ok());

  auto contents = StatementLog::ReadLog(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->base_lsn, 3u);
  ASSERT_EQ(contents->records.size(), 3u);
  EXPECT_EQ(contents->records[0].triple, Triple(4, 5, 6));
  EXPECT_EQ(contents->records[2].triple, Triple(9, 9, 9));
}

TEST(StatementLogTest, CompactCancelsAddTombstonePairsAtBaseZero) {
  const std::string path = TempPath("log_compact.bin");
  auto log = StatementLog::Open(path, 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append({1, 2, 3}).ok());
  ASSERT_TRUE((*log)->Append({4, 5, 6}).ok());
  ASSERT_TRUE((*log)->AppendTombstone({1, 2, 3}).ok());  // cancels the add
  ASSERT_TRUE((*log)->AppendTombstone({4, 5, 6}).ok());
  ASSERT_TRUE((*log)->Append({4, 5, 6}).ok());  // re-add wins

  ASSERT_TRUE((*log)->Compact().ok());
  ASSERT_TRUE((*log)->Close().ok());

  auto contents = StatementLog::ReadLog(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_FALSE(contents->records[0].tombstone);
  EXPECT_EQ(contents->records[0].triple, Triple(4, 5, 6));
}

TEST(StatementLogTest, CompactKeepsTombstonesAboveANonZeroBase) {
  // With a snapshot covering the records below the base, a tombstone-final
  // triple may be deleting snapshot state — it must survive compaction.
  const std::string path = TempPath("log_compact_base.bin");
  auto log = StatementLog::Open(path, 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Append({1, 2, 3}).ok());
  ASSERT_TRUE((*log)->TruncateTo(1).ok());  // snapshot took the prefix
  ASSERT_TRUE((*log)->AppendTombstone({1, 2, 3}).ok());
  ASSERT_TRUE((*log)->AppendTombstone({1, 2, 3}).ok());  // superseded dup
  ASSERT_TRUE((*log)->Compact().ok());
  ASSERT_TRUE((*log)->Close().ok());

  auto contents = StatementLog::ReadLog(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->base_lsn, 1u);
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_TRUE(contents->records[0].tombstone);
}

TEST(StatementLogTest, HeaderlessFileIsRejected) {
  // Raw 24-byte records without the SLDRLOG2 header: not a log.
  const std::string path = TempPath("log_headerless.bin");
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    const uint64_t words[3] = {1, 2, 3};
    file.write(reinterpret_cast<const char*>(words), sizeof(words));
  }
  EXPECT_TRUE(StatementLog::ReadLog(path).status().IsInvalidArgument());
  EXPECT_TRUE(StatementLog::OpenAppend(path, 0).status().IsInvalidArgument());
  // An empty file has no header either.
  TruncateFile(path, 0);
  EXPECT_TRUE(StatementLog::ReadLog(path).status().IsInvalidArgument());
}

TEST(StatementLogTest, TornTermRecordAtTheTailIsSkipped) {
  const std::string path = TempPath("log_torn_term.bin");
  const std::string term = "<http://ex/a fairly long term>";
  for (const size_t keep : {kV2RecordSize + 10, kV2RecordSize + 24 + 5,
                            kV2RecordSize + 24 + term.size() + 2}) {
    SCOPED_TRACE("bytes of the term record kept: " +
                 std::to_string(keep - kV2RecordSize));
    {
      auto log = StatementLog::Open(path, 0);
      ASSERT_TRUE(log.ok());
      ASSERT_TRUE((*log)->Append({1, 2, 3}).ok());
      ASSERT_TRUE((*log)->AppendTerm(9, term).ok());
      ASSERT_TRUE((*log)->Close().ok());
    }
    // Crash mid-append: inside the payload, inside the term bytes, inside
    // the checksum.
    TruncateFile(path, kV2HeaderSize + keep);
    auto contents = StatementLog::ReadLog(path);
    ASSERT_TRUE(contents.ok()) << contents.status().ToString();
    EXPECT_TRUE(contents->torn_tail);
    ASSERT_EQ(contents->records.size(), 1u);
    EXPECT_EQ(contents->records[0].triple, Triple(1, 2, 3));
  }
  // A full-length final term record failing its checksum is torn too.
  {
    auto log = StatementLog::Open(path, 0);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->AppendTerm(9, term).ok());
    ASSERT_TRUE((*log)->Close().ok());
  }
  FlipByte(path, kV2HeaderSize + 24 + 3);
  auto contents = StatementLog::ReadLog(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->torn_tail);
  EXPECT_TRUE(contents->records.empty());
}

TEST(StatementLogTest, CorruptTermRecordMidFileIsAnError) {
  const std::string path = TempPath("log_corrupt_term.bin");
  auto log = StatementLog::Open(path, 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->AppendTerm(9, "<http://ex/a>").ok());
  ASSERT_TRUE((*log)->Append({9, 9, 9}).ok());
  ASSERT_TRUE((*log)->Close().ok());
  // One flipped term byte, one record after it: corruption, not a crash.
  FlipByte(path, kV2HeaderSize + 24 + 2);
  EXPECT_TRUE(StatementLog::ReadLog(path).status().IsIOError());
}

TEST(StatementLogTest, TermLengthPastEndOfFileIsRejected) {
  const std::string path = TempPath("log_term_length.bin");
  {
    auto log = StatementLog::Open(path, 0);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append({1, 2, 3}).ok());
    ASSERT_TRUE((*log)->Close().ok());
  }
  // A length no term can have is corruption, even in the final record:
  // the reader must refuse it before allocating anything that size.
  AppendBytes(path, TermPayload(9, uint64_t{1} << 61) + std::string(8, 'x'));
  auto contents = StatementLog::ReadLog(path);
  EXPECT_TRUE(contents.status().IsIOError()) << contents.status().ToString();
  EXPECT_TRUE(StatementLog::OpenAppend(path, 0).status().IsIOError());
  // So is a term record for the reserved id.
  TruncateFile(path, kV2HeaderSize + kV2RecordSize);
  AppendBytes(path, TermPayload(kAnyTerm, 1) + std::string(8, 'x'));
  EXPECT_TRUE(StatementLog::ReadLog(path).status().IsIOError());

  // A plausible length that runs past the end is a torn append.
  TruncateFile(path, kV2HeaderSize + kV2RecordSize);
  AppendBytes(path, TermPayload(9, 1000) + std::string(8, 'x'));
  contents = StatementLog::ReadLog(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->torn_tail);
  EXPECT_EQ(contents->records.size(), 1u);
}

TEST(StatementLogTest, TermRecordsSurviveTruncateAndCompact) {
  const std::string path = TempPath("log_term_truncate.bin");
  auto log = StatementLog::Open(path, 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->AppendTerm(5, "<http://ex/old>").ok());  // LSN 0
  ASSERT_TRUE((*log)->Append({5, 5, 5}).ok());                 // LSN 1
  ASSERT_TRUE((*log)->AppendTerm(6, "<http://ex/new>").ok());  // LSN 2
  ASSERT_TRUE((*log)->Append({6, 5, 6}).ok());                 // LSN 3
  ASSERT_TRUE((*log)->AppendTombstone({5, 5, 5}).ok());        // LSN 4
  ASSERT_TRUE((*log)->Append({6, 5, 6}).ok());                 // LSN 5

  // Truncation drops the term record below the anchor, keeps the one
  // above it.
  ASSERT_TRUE((*log)->TruncateTo(2).ok());
  EXPECT_EQ((*log)->next_lsn(), 6u);
  // Compaction drops the superseded add but keeps the term record ahead of
  // the statement that references it.
  ASSERT_TRUE((*log)->Compact().ok());
  ASSERT_TRUE((*log)->Append({6, 6, 6}).ok());
  ASSERT_TRUE((*log)->Close().ok());

  auto contents = StatementLog::ReadLog(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents->base_lsn, 2u);
  ASSERT_EQ(contents->records.size(), 4u);
  EXPECT_TRUE(contents->records[0].is_term());
  EXPECT_EQ(contents->records[0].term_id, 6u);
  EXPECT_EQ(contents->records[0].term, "<http://ex/new>");
  EXPECT_TRUE(contents->records[1].tombstone);
  EXPECT_EQ(contents->records[1].triple, Triple(5, 5, 5));
  EXPECT_EQ(contents->records[2].triple, Triple(6, 5, 6));
  EXPECT_EQ(contents->records[3].triple, Triple(6, 6, 6));
}

}  // namespace
}  // namespace slider
