// Repository deletion semantics and durability: RemoveTriples recomputes
// the closure from the surviving explicit set (the batch baseline's update
// drawback, deletions included), tombstone records make the statement log
// replayable across retractions, and Recover converges on the
// post-retraction closure and its explicit standing — including for logs
// without tombstones.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "reason/repository.h"
#include "workload/chain_generator.h"

namespace slider {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(RepositoryRetractTest, RemoveTriplesRecomputesFromSurvivors) {
  auto repo = Repository::Open(RhoDfFactory(), {});
  ASSERT_TRUE(repo.ok());
  Dictionary* dict = (*repo)->dictionary();
  const Vocabulary& v = (*repo)->vocabulary();
  const TermId a = dict->Encode("<http://ex/A>");
  const TermId b = dict->Encode("<http://ex/B>");
  const TermId c = dict->Encode("<http://ex/C>");
  ASSERT_TRUE((*repo)
                  ->AddTriples({{a, v.sub_class_of, b},
                                {b, v.sub_class_of, c}})
                  .ok());
  ASSERT_TRUE((*repo)->store().Contains({a, v.sub_class_of, c}));

  auto stats = (*repo)->RemoveTriples({{b, v.sub_class_of, c}});
  ASSERT_TRUE(stats.ok());
  // Batch semantics: the whole surviving explicit set was re-processed.
  EXPECT_EQ(stats->materialize.input_count, 1u);
  EXPECT_EQ((*repo)->explicit_count(), 1u);
  EXPECT_FALSE((*repo)->store().Contains({b, v.sub_class_of, c}));
  EXPECT_FALSE((*repo)->store().Contains({a, v.sub_class_of, c}));
  EXPECT_TRUE((*repo)->store().Contains({a, v.sub_class_of, b}));
}

TEST(RepositoryRetractTest, RemovingUnknownStatementsIsANoOp) {
  auto repo = Repository::Open(RhoDfFactory(), {});
  ASSERT_TRUE(repo.ok());
  Dictionary* dict = (*repo)->dictionary();
  const Vocabulary& v = (*repo)->vocabulary();
  const TermId a = dict->Encode("<http://ex/A>");
  const TermId b = dict->Encode("<http://ex/B>");
  ASSERT_TRUE((*repo)->AddTriples({{a, v.sub_class_of, b}}).ok());
  const size_t size_before = (*repo)->store().size();

  auto stats = (*repo)->RemoveTriples({{b, v.sub_class_of, a}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->materialize.input_count, 0u);
  EXPECT_EQ((*repo)->store().size(), size_before);
  EXPECT_EQ((*repo)->explicit_count(), 1u);
}

TEST(RepositoryRetractTest, RemoveTriplesWorksInIncrementalMode) {
  Repository::Options options;
  options.inference = Repository::InferenceMode::kIncremental;
  auto repo = Repository::Open(RhoDfFactory(), options);
  ASSERT_TRUE(repo.ok());
  Dictionary* dict = (*repo)->dictionary();
  const Vocabulary& v = (*repo)->vocabulary();
  const TermId a = dict->Encode("<http://ex/A>");
  const TermId b = dict->Encode("<http://ex/B>");
  const TermId c = dict->Encode("<http://ex/C>");
  ASSERT_TRUE((*repo)->AddTriples({{a, v.sub_class_of, b}}).ok());
  ASSERT_TRUE((*repo)->AddTriples({{b, v.sub_class_of, c}}).ok());
  ASSERT_TRUE((*repo)->store().Contains({a, v.sub_class_of, c}));

  // The embedded engine retracts through DRed: the victim's cone goes,
  // the surviving link stays.
  auto stats = (*repo)->RemoveTriples({{a, v.sub_class_of, b}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->materialize.input_count, 1u);
  EXPECT_FALSE((*repo)->store().Contains({a, v.sub_class_of, b}));
  EXPECT_FALSE((*repo)->store().Contains({a, v.sub_class_of, c}));
  EXPECT_TRUE((*repo)->store().Contains({b, v.sub_class_of, c}));
}

TEST(RepositoryRetractTest, RecoverReplaysTombstonedLog) {
  const std::string dir = FreshDir("repo_retract_recover");
  Repository::Options options;
  options.storage_dir = dir;
  size_t closure_after_retract = 0;
  TripleVec removed;
  {
    auto repo = Repository::Open(RhoDfFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(12)).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    // Retract a mid-chain link, checkpoint, then "crash" (drop the handle
    // without any further writes). Re-encoding the chain against the live
    // dictionary reproduces the loaded ids exactly.
    const TripleVec input = ChainGenerator::Generate(
        12, (*repo)->dictionary(), (*repo)->vocabulary());
    removed.push_back(input[input.size() / 2]);
    ASSERT_TRUE((*repo)->store().IsExplicit(removed[0]));
    ASSERT_TRUE((*repo)->RemoveTriples(removed).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    closure_after_retract = (*repo)->store().size();
    ASSERT_LT(closure_after_retract,
              ChainGenerator::InputSize(12) +
                  ChainGenerator::ExpectedRhoDfInferred(12));
  }
  auto recovered = Repository::Recover(RhoDfFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().size(), closure_after_retract);
  EXPECT_FALSE((*recovered)->store().Contains(removed[0]));
}

TEST(RepositoryRetractTest, RecoverReplaysRetractThenReAdd) {
  const std::string dir = FreshDir("repo_retract_readd");
  Repository::Options options;
  options.storage_dir = dir;
  Triple victim;
  size_t closure = 0;
  {
    auto repo = Repository::Open(RhoDfFactory(), options);
    ASSERT_TRUE(repo.ok());
    Dictionary* dict = (*repo)->dictionary();
    const Vocabulary& v = (*repo)->vocabulary();
    const TermId a = dict->Encode("<http://ex/A>");
    const TermId b = dict->Encode("<http://ex/B>");
    const TermId c = dict->Encode("<http://ex/C>");
    victim = {b, v.sub_class_of, c};
    ASSERT_TRUE((*repo)->AddTriples({{a, v.sub_class_of, b}, victim}).ok());
    ASSERT_TRUE((*repo)->RemoveTriples({victim}).ok());
    // A later re-add must win over the earlier tombstone on replay.
    ASSERT_TRUE((*repo)->AddTriples({victim}).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    closure = (*repo)->store().size();
    ASSERT_TRUE((*repo)->store().Contains(victim));
  }
  auto recovered = Repository::Recover(RhoDfFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().size(), closure);
  EXPECT_TRUE((*recovered)->store().Contains(victim));
}

TEST(RepositoryRetractTest, BatchRecoverKeepsADerivableVictimInferred) {
  // Retracting an explicit statement the survivors still derive demotes it.
  // The recompute journals it as inferred after a tombstone, so a recovered
  // batch repository neither counts it as asserted nor keeps it once its
  // support goes.
  for (const auto mode : {Repository::InferenceMode::kStatementAtATime,
                          Repository::InferenceMode::kSemiNaive}) {
    const std::string dir = FreshDir("repo_retract_demote");
    Repository::Options options;
    options.storage_dir = dir;
    options.inference = mode;
    Triple shortcut, link;
    {
      auto repo = Repository::Open(RhoDfFactory(), options);
      ASSERT_TRUE(repo.ok());
      Dictionary* dict = (*repo)->dictionary();
      const Vocabulary& v = (*repo)->vocabulary();
      const TermId a = dict->Encode("<http://ex/A>");
      const TermId b = dict->Encode("<http://ex/B>");
      const TermId c = dict->Encode("<http://ex/C>");
      shortcut = {a, v.sub_class_of, c};
      link = {a, v.sub_class_of, b};
      ASSERT_TRUE(
          (*repo)->AddTriples({link, {b, v.sub_class_of, c}, shortcut}).ok());
      ASSERT_TRUE((*repo)->RemoveTriples({shortcut}).ok());
      ASSERT_TRUE((*repo)->store().Contains(shortcut));
      ASSERT_FALSE((*repo)->store().IsExplicit(shortcut));
    }
    auto recovered = Repository::Recover(RhoDfFactory(), options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ((*recovered)->explicit_count(), 2u);
    EXPECT_FALSE((*recovered)->store().IsExplicit(shortcut));
    ASSERT_TRUE((*recovered)->RemoveTriples({link}).ok());
    EXPECT_FALSE((*recovered)->store().Contains(shortcut));
  }
}

TEST(RepositoryRetractTest, RecoverHandlesLegacyLogWithoutTombstones) {
  // A repository that never deleted writes a log indistinguishable from the
  // pre-tombstone format; Recover must replay it as pure additions.
  const std::string dir = FreshDir("repo_retract_legacy");
  Repository::Options options;
  options.storage_dir = dir;
  {
    auto repo = Repository::Open(RhoDfFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(10)).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    // Every record is an addition: no tombstone bit on the subject word
    // (inferred records carry only the inferred bit).
    auto records = StatementLog::ReadRecords(dir + "/statements.log");
    ASSERT_TRUE(records.ok());
    for (const StatementLog::Record& r : *records) {
      ASSERT_FALSE(r.tombstone);
    }
  }
  auto recovered = Repository::Recover(RhoDfFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().size(),
            ChainGenerator::InputSize(10) +
                ChainGenerator::ExpectedRhoDfInferred(10));
}

}  // namespace
}  // namespace slider
