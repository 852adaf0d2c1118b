// Checkpointed snapshots and the recovery paths built on them: the
// dictionary/triple image round trips, Checkpoint's atomic write + log
// truncation, Recover's snapshot-preferred fast path with tail replay,
// the full-replay fallback for corrupt or absent snapshots, and the loud
// failure when the fallback would lose truncated records.

#include "store/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/fs.h"
#include "common/thread_pool.h"
#include "rdf/dictionary_image.h"
#include "reason/repository.h"
#include "store/statement_log.h"
#include "workload/chain_generator.h"

namespace slider {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
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

TEST(SnapshotTest, DictionaryImageRoundTrips) {
  const std::string path = testing::TempDir() + "/dict_image.bin";
  Dictionary dict;
  const Vocabulary v = Vocabulary::Register(&dict);
  const TermId a = dict.Encode("<http://ex/A>");
  const TermId b = dict.Encode("<http://ex/a longer term with spaces>");
  ASSERT_TRUE(WriteDictionaryImage(dict, path).ok());

  Dictionary restored;
  ASSERT_TRUE(LoadDictionaryImage(path, &restored).ok());
  EXPECT_EQ(restored.size(), dict.size());
  EXPECT_EQ(restored.Encode("<http://ex/A>"), a);
  EXPECT_EQ(restored.Encode("<http://ex/a longer term with spaces>"), b);
  EXPECT_EQ(Vocabulary::Register(&restored).sub_class_of, v.sub_class_of);
}

TEST(SnapshotTest, DictionaryImageRejectsCorruption) {
  const std::string path = testing::TempDir() + "/dict_image_bad.bin";
  Dictionary dict;
  Vocabulary::Register(&dict);
  ASSERT_TRUE(WriteDictionaryImage(dict, path).ok());
  FlipByte(path, 20);
  Dictionary restored;
  EXPECT_TRUE(LoadDictionaryImage(path, &restored).IsInvalidArgument());
}

TEST(SnapshotTest, TripleImageRoundTripsWithSupportFlags) {
  const std::string path = testing::TempDir() + "/triples_image.bin";
  TripleStore store;
  store.Add({1, 2, 3}, /*is_explicit=*/true);
  store.Add({1, 2, 4}, /*is_explicit=*/false);
  store.Add({5, 2, 3}, /*is_explicit=*/true);
  store.Add({5, 6, 3}, /*is_explicit=*/false);
  ASSERT_TRUE(WriteTripleSnapshot(store, /*lsn=*/42, path).ok());

  TripleStore restored;
  auto lsn = LoadTripleSnapshot(path, &restored);
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  EXPECT_EQ(*lsn, 42u);
  EXPECT_EQ(restored.SnapshotSet(), store.SnapshotSet());
  EXPECT_TRUE(restored.IsExplicit({1, 2, 3}));
  EXPECT_FALSE(restored.IsExplicit({1, 2, 4}));
  EXPECT_FALSE(restored.IsExplicit({5, 6, 3}));
  EXPECT_EQ(restored.ExplicitCount(), store.ExplicitCount());
}

TEST(SnapshotTest, TripleImageRejectsCorruption) {
  const std::string path = testing::TempDir() + "/triples_image_bad.bin";
  TripleStore store;
  store.Add({1, 2, 3});
  ASSERT_TRUE(WriteTripleSnapshot(store, 1, path).ok());
  FlipByte(path, 24);
  TripleStore restored;
  EXPECT_TRUE(LoadTripleSnapshot(path, &restored).status().IsInvalidArgument());
}

// A store whose predicate 2 spans more than three encoding pieces, with
// every seventh subject's row emptied by Erase (gaps in the subject
// sequence, some at piece boundaries) and other rows thinned, next to
// several small partitions and one emptied again.
// Support flags vary: explicit, inferred, and inferred with derivation
// counts above one (repeated inferred offers).
void FillPiecedStore(TripleStore* store) {
  const TermId big = 2;
  const size_t subjects = 4 * kSnapshotPieceRows + 1000;
  for (TermId s = 1; s <= subjects; ++s) {
    // Subjects are spread out so deltas take several varint bytes.
    const TermId subject = 1000 + s * 997;
    for (TermId k = 0; k < 1 + s % 3; ++k) {
      const Triple t(subject, big, 5000000 + (s * 7 + k * 11) % 1000);
      store->Add(t, /*is_explicit=*/(s + k) % 2 == 0);
      if (s % 5 == 0) store->Add(t, /*is_explicit=*/false);
    }
  }
  for (TermId s = 7; s <= subjects; s += 7) {
    for (TermId k = 0; k < 3; ++k) {
      store->Erase({1000 + s * 997, big, 5000000 + (s * 7 + k * 11) % 1000});
    }
  }
  for (TermId s = 3; s <= subjects; s += 11) {
    store->Erase({1000 + s * 997, big, 5000000 + (s * 7) % 1000});
  }
  for (TermId p = 10; p < 16; ++p) {
    for (TermId s = 1; s <= p; ++s) {
      store->Add({s * 1000003, p, s + p}, /*is_explicit=*/s % 3 != 0);
    }
  }
  store->Add({42, 20, 43});
  store->Erase({42, 20, 43});
}

// The image as the format comment in snapshot.h lays it out, encoded
// sequentially from the store's sorted export.
std::string ReferenceImage(const TripleStore& store, uint64_t lsn) {
  std::vector<std::pair<TermId, std::string>> sections;
  store.ExportForSnapshot(
      [&](TermId p, const std::vector<TripleStore::SnapshotRow>& rows) {
        std::string body;
        PutVarint(&body, rows.size());
        TermId prev_subject = 0;
        for (const TripleStore::SnapshotRow& row : rows) {
          PutVarint(&body, row.subject - prev_subject);
          prev_subject = row.subject;
          PutVarint(&body, row.objects.size());
          TermId prev_object = 0;
          for (const auto& [o, flags] : row.objects) {
            PutVarint(&body, o - prev_object);
            prev_object = o;
            body.push_back(static_cast<char>(flags));
          }
        }
        sections.emplace_back(p, std::move(body));
      });
  std::string image("SLTRIP01", 8);
  PutFixed64(&image, lsn);
  PutFixed32(&image, static_cast<uint32_t>(sections.size()));
  uint64_t offset = image.size() + sections.size() * 24;
  for (const auto& [p, body] : sections) {
    PutFixed64(&image, p);
    PutFixed64(&image, offset);
    PutFixed64(&image, body.size());
    offset += body.size();
  }
  for (const auto& section : sections) image += section.second;
  PutFixed32(&image, Crc32(0, image.data(), image.size()));
  return image;
}

std::string ReadImage(const std::string& path) {
  auto bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

TEST(SnapshotTest, PiecedImageIsByteIdenticalInlineAndOnAPool) {
  TripleStore store;
  FillPiecedStore(&store);
  const std::string inline_path = testing::TempDir() + "/pieced_inline.bin";
  const std::string pooled_path = testing::TempDir() + "/pieced_pooled.bin";
  ASSERT_TRUE(WriteTripleSnapshot(store, /*lsn=*/77, inline_path).ok());
  ThreadPool pool(4);
  ASSERT_TRUE(WriteTripleSnapshot(store, 77, pooled_path, &pool).ok());

  const std::string expected = ReferenceImage(store, 77);
  const std::string inline_image = ReadImage(inline_path);
  EXPECT_EQ(inline_image.size(), expected.size());
  EXPECT_TRUE(inline_image == expected) << "inline image differs from the "
                                           "sequential reference encoding";
  EXPECT_TRUE(ReadImage(pooled_path) == expected)
      << "pooled image differs from the sequential reference encoding";
  // The snapshot writer's helpers are not counted as submitted tasks.
  EXPECT_EQ(pool.stats().tasks_executed, 0u);
}

TEST(SnapshotTest, PiecedImageRoundTripsWithSupportFlags) {
  TripleStore store;
  FillPiecedStore(&store);
  const std::string path = testing::TempDir() + "/pieced_roundtrip.bin";
  ThreadPool pool(4);
  ASSERT_TRUE(WriteTripleSnapshot(store, /*lsn=*/9, path, &pool).ok());

  TripleStore restored;
  auto lsn = LoadTripleSnapshot(path, &restored);
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  EXPECT_EQ(*lsn, 9u);
  EXPECT_EQ(restored.SnapshotSet(), store.SnapshotSet());
  EXPECT_EQ(restored.ExplicitCount(), store.ExplicitCount());
  // Flag bytes (support bit and derivation count), row by row.
  using Rows = std::vector<std::pair<TermId, std::vector<TripleStore::SnapshotRow>>>;
  const auto export_all = [](const TripleStore& s) {
    Rows out;
    s.ExportForSnapshot(
        [&](TermId p, const std::vector<TripleStore::SnapshotRow>& rows) {
          out.emplace_back(p, rows);
        });
    return out;
  };
  const Rows want = export_all(store);
  const Rows got = export_all(restored);
  ASSERT_EQ(got.size(), want.size());
  size_t big_rows = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first);
    ASSERT_EQ(got[i].second.size(), want[i].second.size());
    for (size_t r = 0; r < want[i].second.size(); ++r) {
      EXPECT_EQ(got[i].second[r].subject, want[i].second[r].subject);
      EXPECT_EQ(got[i].second[r].objects, want[i].second[r].objects);
    }
    big_rows = std::max(big_rows, want[i].second.size());
  }
  EXPECT_GT(big_rows, 3 * kSnapshotPieceRows);
}

TEST(SnapshotTest, DictionaryImageSpanningManyPiecesRoundTrips) {
  const std::string path = testing::TempDir() + "/dict_pieces.bin";
  Dictionary dict;
  Vocabulary::Register(&dict);
  std::vector<std::pair<TermId, std::string>> terms;
  for (int i = 0; i < 20000; ++i) {
    std::string term = "<http://ex/term/" + std::to_string(i) + ">";
    if (i % 997 == 0) term += std::string(70000, 'x');  // larger than a piece
    terms.emplace_back(dict.Encode(term), term);
  }
  ASSERT_TRUE(WriteDictionaryImage(dict, path).ok());
  Dictionary restored;
  ASSERT_TRUE(LoadDictionaryImage(path, &restored).ok());
  EXPECT_EQ(restored.size(), dict.size());
  for (const auto& [id, term] : terms) {
    ASSERT_EQ(restored.DecodeUnchecked(id), term);
  }
}

TEST(SnapshotTest, CheckpointWritesSnapshotPairAndTruncatesLog) {
  const std::string dir = FreshDir("snap_checkpoint");
  Repository::Options options;
  options.storage_dir = dir;
  auto repo = Repository::Open(RhoDfFactory(), options);
  ASSERT_TRUE(repo.ok());
  ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(12)).ok());
  ASSERT_TRUE((*repo)->Checkpoint().ok());

  EXPECT_TRUE(FileExists(dir + "/snapshot.dict"));
  EXPECT_TRUE(FileExists(dir + "/snapshot.triples"));
  // No leftovers from the atomic temp-file + rename writes.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "stray temp file: " << entry.path();
  }
  // The log was truncated to an empty tail anchored at the snapshot LSN.
  auto contents = StatementLog::ReadLog(dir + "/statements.log");
  ASSERT_TRUE(contents.ok());
  EXPECT_GT(contents->base_lsn, 0u);
  EXPECT_TRUE(contents->records.empty());
}

TEST(SnapshotTest, RecoverPrefersSnapshotAndReplaysTail) {
  const std::string dir = FreshDir("snap_tail_replay");
  Repository::Options options;
  options.storage_dir = dir;
  TripleSet live_closure;
  size_t live_explicit = 0;
  {
    auto repo = Repository::Open(RhoDfFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(12)).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    // Post-checkpoint history: a retraction and an extension, both only in
    // the log tail.
    const TripleVec chain = ChainGenerator::Generate(
        12, (*repo)->dictionary(), (*repo)->vocabulary());
    ASSERT_TRUE((*repo)->RemoveTriples({chain[chain.size() / 2]}).ok());
    Dictionary* dict = (*repo)->dictionary();
    const Vocabulary& v = (*repo)->vocabulary();
    const TermId fresh = dict->Encode("<http://ex/fresh>");
    ASSERT_TRUE(
        (*repo)->AddTriples({{fresh, v.sub_class_of, chain[0].s}}).ok());
    live_closure = (*repo)->store().SnapshotSet();
    live_explicit = (*repo)->explicit_count();
  }
  auto recovered = Repository::Recover(RhoDfFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().SnapshotSet(), live_closure);
  // The batch core journals its input as explicit and its consequences as
  // inferred, and the retracted link is not derivable, so recovery restores
  // the live explicit standing exactly.
  EXPECT_EQ((*recovered)->explicit_count(), live_explicit);
}

TEST(SnapshotTest, CorruptTripleImageFallsBackToFullReplay) {
  const std::string dir = FreshDir("snap_corrupt_triples");
  Repository::Options options;
  options.storage_dir = dir;
  options.truncate_log_on_checkpoint = false;  // keep the full log around
  TripleSet live_closure;
  {
    auto repo = Repository::Open(RhoDfFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(10)).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    live_closure = (*repo)->store().SnapshotSet();
  }
  FlipByte(dir + "/snapshot.triples", 40);
  auto recovered = Repository::Recover(RhoDfFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().SnapshotSet(), live_closure);
}

TEST(SnapshotTest, CorruptDictionaryImageFallsBackToFullReplay) {
  const std::string dir = FreshDir("snap_corrupt_dict");
  Repository::Options options;
  options.storage_dir = dir;
  options.truncate_log_on_checkpoint = false;
  TripleSet live_closure;
  {
    auto repo = Repository::Open(RhoDfFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(10)).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    live_closure = (*repo)->store().SnapshotSet();
  }
  FlipByte(dir + "/snapshot.dict", 20);
  auto recovered = Repository::Recover(RhoDfFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().SnapshotSet(), live_closure);
}

TEST(SnapshotTest, PartialSnapshotFallsBackToFullReplay) {
  // A crash can leave one image of the pair missing entirely (the rename
  // of the second never happened). With the full log intact, recovery
  // must fall back rather than half-load.
  const std::string dir = FreshDir("snap_partial");
  Repository::Options options;
  options.storage_dir = dir;
  options.truncate_log_on_checkpoint = false;
  TripleSet live_closure;
  {
    auto repo = Repository::Open(RhoDfFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(8)).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    live_closure = (*repo)->store().SnapshotSet();
  }
  std::filesystem::remove(dir + "/snapshot.triples");
  auto recovered = Repository::Recover(RhoDfFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().SnapshotSet(), live_closure);
}

TEST(SnapshotTest, CorruptSnapshotWithTruncatedLogFailsLoudly) {
  // Once the log was truncated against the snapshot, a corrupt snapshot is
  // unrecoverable data loss — silence would hand back a partial store.
  const std::string dir = FreshDir("snap_loss");
  Repository::Options options;
  options.storage_dir = dir;
  {
    auto repo = Repository::Open(RhoDfFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(10)).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());  // truncates by default
  }
  FlipByte(dir + "/snapshot.triples", 40);
  auto recovered = Repository::Recover(RhoDfFactory(), options);
  EXPECT_TRUE(recovered.status().IsIOError()) << recovered.status().ToString();

  // Deleting the pair outright is the same loss.
  std::filesystem::remove(dir + "/snapshot.dict");
  std::filesystem::remove(dir + "/snapshot.triples");
  recovered = Repository::Recover(RhoDfFactory(), options);
  EXPECT_TRUE(recovered.status().IsIOError()) << recovered.status().ToString();
}

TEST(SnapshotTest, UntruncatedLogRecoversWithoutTheSnapshot) {
  // The snapshot pair is only an accelerator: while the log is whole it
  // must rebuild everything on its own — including a term bound before
  // the checkpoint but first used after it, which only the image holds
  // unless the log journals it on first use.
  const std::string dir = FreshDir("snap_log_only");
  Repository::Options options;
  options.storage_dir = dir;
  options.truncate_log_on_checkpoint = false;
  TripleSet live_closure;
  std::string late_term;
  TermId late = kAnyTerm;
  {
    auto repo = Repository::Open(RhoDfFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(10)).ok());
    Dictionary* dict = (*repo)->dictionary();
    late_term = "<http://ex/bound-before-the-checkpoint>";
    late = dict->Encode(late_term);
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    const TripleVec chain = ChainGenerator::Generate(
        10, dict, (*repo)->vocabulary());
    ASSERT_TRUE((*repo)
                    ->AddTriples({{late, (*repo)->vocabulary().sub_class_of,
                                   chain[0].s}})
                    .ok());
    live_closure = (*repo)->store().SnapshotSet();
  }
  std::filesystem::remove(dir + "/snapshot.dict");
  std::filesystem::remove(dir + "/snapshot.triples");

  auto recovered = Repository::Recover(RhoDfFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().SnapshotSet(), live_closure);
  auto decoded = (*recovered)->dictionary()->Decode(late);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, late_term);
}

TEST(SnapshotTest, CompactLogGuardsTheSnapshotAnchor) {
  const std::string dir = FreshDir("snap_compact_guard");
  Repository::Options options;
  options.storage_dir = dir;
  options.truncate_log_on_checkpoint = false;
  {
    auto repo = Repository::Open(RhoDfFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(8)).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    // The snapshot anchors mid-file (no truncation): compaction would
    // shift the records under it.
    EXPECT_TRUE((*repo)->CompactLog().IsInvalidArgument());
  }
  // A truncating checkpoint re-aligns the anchor with the log base, after
  // which compaction is legal again.
  Repository::Options truncating = options;
  truncating.truncate_log_on_checkpoint = true;
  auto reopened = Repository::Recover(RhoDfFactory(), truncating);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->Checkpoint().ok());
  EXPECT_TRUE((*reopened)->CompactLog().ok());
}

TEST(SnapshotTest, RepeatedRecoverIsIdempotent) {
  const std::string dir = FreshDir("snap_idempotent");
  Repository::Options options;
  options.storage_dir = dir;
  TripleSet live_closure;
  {
    auto repo = Repository::Open(RhoDfFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(12)).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    const TripleVec chain = ChainGenerator::Generate(
        12, (*repo)->dictionary(), (*repo)->vocabulary());
    ASSERT_TRUE((*repo)->RemoveTriples({chain[3]}).ok());
    live_closure = (*repo)->store().SnapshotSet();
  }
  for (int round = 0; round < 3; ++round) {
    auto recovered = Repository::Recover(RhoDfFactory(), options);
    ASSERT_TRUE(recovered.ok())
        << "round " << round << ": " << recovered.status().ToString();
    EXPECT_EQ((*recovered)->store().SnapshotSet(), live_closure)
        << "round " << round;
  }
}

}  // namespace
}  // namespace slider
