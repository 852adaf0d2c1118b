#include "reason/repository.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "workload/chain_generator.h"

namespace slider {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(RepositoryTest, LoadsAndMaterializesDocument) {
  auto repo = Repository::Open(RhoDfFactory(), {});
  ASSERT_TRUE(repo.ok());
  auto stats = (*repo)->Load(ChainGenerator::GenerateNTriples(10));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->parsed, ChainGenerator::InputSize(10));
  EXPECT_EQ(stats->materialize.inferred_new,
            ChainGenerator::ExpectedRhoDfInferred(10));
  EXPECT_EQ((*repo)->explicit_count(), ChainGenerator::InputSize(10));
  EXPECT_EQ((*repo)->inferred_count(), ChainGenerator::ExpectedRhoDfInferred(10));
  EXPECT_GT(stats->seconds, 0.0);
}

TEST(RepositoryTest, LoadRejectsMalformedDocument) {
  auto repo = Repository::Open(RhoDfFactory(), {});
  ASSERT_TRUE(repo.ok());
  auto stats = (*repo)->Load("<a> <p> .\n");
  EXPECT_FALSE(stats.ok());
}

TEST(RepositoryTest, BatchSemanticsRecomputeFromScratch) {
  auto repo = Repository::Open(RhoDfFactory(), {});
  ASSERT_TRUE(repo.ok());
  Dictionary* dict = (*repo)->dictionary();
  const Vocabulary& v = (*repo)->vocabulary();
  const TermId a = dict->Encode("<http://ex/A>");
  const TermId b = dict->Encode("<http://ex/B>");
  const TermId c = dict->Encode("<http://ex/C>");

  auto s1 = (*repo)->AddTriples({{a, v.sub_class_of, b}});
  ASSERT_TRUE(s1.ok());
  // Second batch triggers a full recompute: the materialisation has to
  // re-process ALL explicit statements, not just the new one.
  auto s2 = (*repo)->AddTriples({{b, v.sub_class_of, c}});
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2->materialize.input_count, 2u)
      << "batch semantics must restart from the full explicit set";
  EXPECT_TRUE((*repo)->store().Contains({a, v.sub_class_of, c}));
}

TEST(RepositoryTest, IncrementalModeFoldsUpdatesIn) {
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
  auto s2 = (*repo)->AddTriples({{b, v.sub_class_of, c}});
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2->materialize.input_count, 1u);
  EXPECT_TRUE((*repo)->store().Contains({a, v.sub_class_of, c}));
}

TEST(RepositoryTest, DuplicateExplicitStatementsAreIgnored) {
  auto repo = Repository::Open(RhoDfFactory(), {});
  ASSERT_TRUE(repo.ok());
  Dictionary* dict = (*repo)->dictionary();
  const Vocabulary& v = (*repo)->vocabulary();
  const TermId a = dict->Encode("<http://ex/A>");
  const TermId b = dict->Encode("<http://ex/B>");
  ASSERT_TRUE((*repo)->AddTriples({{a, v.sub_class_of, b}}).ok());
  ASSERT_TRUE((*repo)->AddTriples({{a, v.sub_class_of, b}}).ok());
  EXPECT_EQ((*repo)->explicit_count(), 1u);
}

TEST(RepositoryTest, PersistsAndRecovers) {
  const std::string dir = FreshDir("repo_recover");
  Repository::Options options;
  options.storage_dir = dir;
  {
    auto repo = Repository::Open(RhoDfFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(12)).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    const size_t closure = (*repo)->store().size();
    EXPECT_EQ(closure, ChainGenerator::InputSize(12) +
                           ChainGenerator::ExpectedRhoDfInferred(12));
  }
  auto recovered = Repository::Recover(RhoDfFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().size(),
            ChainGenerator::InputSize(12) +
                ChainGenerator::ExpectedRhoDfInferred(12));
  // The recovered closure must still be a fixpoint: adding nothing new
  // changes nothing.
  auto stats = (*recovered)->AddTriples({});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*recovered)->store().size(),
            ChainGenerator::InputSize(12) +
                ChainGenerator::ExpectedRhoDfInferred(12));
}

TEST(RepositoryTest, RecoveryPreservesDictionaryIds) {
  const std::string dir = FreshDir("repo_recover_ids");
  Repository::Options options;
  options.storage_dir = dir;
  std::vector<std::pair<TermId, std::string>> bindings;
  {
    auto repo = Repository::Open(RhoDfFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(8)).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    (*repo)->dictionary()->ForEach([&](TermId id, std::string_view term) {
      bindings.emplace_back(id, std::string(term));
    });
    ASSERT_FALSE(bindings.empty());
  }
  auto recovered = Repository::Recover(RhoDfFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // The statement log stores raw ids, so recovery must rebind every term to
  // exactly the id it had — regardless of shard topology or the order ids
  // were assigned in by the (concurrent) original load.
  for (const auto& [id, term] : bindings) {
    EXPECT_EQ((*recovered)->dictionary()->DecodeUnchecked(id), term);
  }
}

TEST(RepositoryTest, RecoversFromTheLogAloneWithoutACheckpoint) {
  // Never checkpointed: statements.log is the whole directory, and it must
  // bind every term its statements use, the vocabulary included.
  const std::string dir = FreshDir("repo_recover_log_only");
  Repository::Options options;
  options.storage_dir = dir;
  std::vector<std::pair<TermId, std::string>> bindings;
  size_t closure = 0;
  {
    auto repo = Repository::Open(RhoDfFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(8)).ok());
    Dictionary* dict = (*repo)->dictionary();
    const TermId fresh = dict->Encode("<http://ex/fresh>");
    ASSERT_TRUE((*repo)
                    ->AddTriples({{fresh, (*repo)->vocabulary().sub_class_of,
                                   dict->Encode("<http://ex/Top>")}})
                    .ok());
    closure = (*repo)->store().size();
    dict->ForEach([&](TermId id, std::string_view term) {
      bindings.emplace_back(id, std::string(term));
    });
  }
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"statements.log"});

  auto recovered = Repository::Recover(RhoDfFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().size(), closure);
  for (const auto& [id, term] : bindings) {
    auto decoded = (*recovered)->dictionary()->Decode(id);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, term);
  }
}

TEST(RepositoryTest, RecoverRequiresStorageDir) {
  auto recovered = Repository::Recover(RhoDfFactory(), {});
  EXPECT_TRUE(recovered.status().IsInvalidArgument());
}

TEST(RepositoryTest, RdfsFragmentFactoryApplies) {
  auto repo = Repository::Open(RdfsFactory(), {});
  ASSERT_TRUE(repo.ok());
  EXPECT_EQ((*repo)->fragment().name(), "rdfs");
  auto stats = (*repo)->Load(ChainGenerator::GenerateNTriples(10));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->materialize.inferred_new,
            ChainGenerator::ExpectedRdfsInferred(10));
}

}  // namespace
}  // namespace slider
