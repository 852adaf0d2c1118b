// Tests for the Repository's two inference cores: the default
// statement-at-a-time (TRREE-style) mode and the semi-naive ablation mode
// must be interchangeable — identical closures, identical repository
// semantics — differing only in work granularity.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "reason/repository.h"
#include "workload/bsbm_generator.h"
#include "workload/chain_generator.h"

namespace slider {
namespace {

Repository::Options WithMode(Repository::InferenceMode mode) {
  Repository::Options options;
  options.inference = mode;
  return options;
}

std::set<std::string> DecodedClosure(Repository& repo) {
  const Dictionary& dict = *repo.dictionary();
  std::set<std::string> out;
  for (const Triple& t : repo.store().SnapshotSet()) {
    out.insert(std::string(dict.DecodeUnchecked(t.s)) + " " +
               std::string(dict.DecodeUnchecked(t.p)) + " " +
               std::string(dict.DecodeUnchecked(t.o)));
  }
  return out;
}

class RepositoryModesTest
    : public ::testing::TestWithParam<Repository::InferenceMode> {};

TEST_P(RepositoryModesTest, ChainClosureMatchesClosedForm) {
  auto repo = Repository::Open(RhoDfFactory(), WithMode(GetParam()));
  ASSERT_TRUE(repo.ok());
  auto stats = (*repo)->Load(ChainGenerator::GenerateNTriples(30));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*repo)->inferred_count(), ChainGenerator::ExpectedRhoDfInferred(30));
}

TEST_P(RepositoryModesTest, BatchRecomputeSemanticsHoldInBothModes) {
  auto repo = Repository::Open(RhoDfFactory(), WithMode(GetParam()));
  ASSERT_TRUE(repo.ok());
  Dictionary* dict = (*repo)->dictionary();
  const Vocabulary& v = (*repo)->vocabulary();
  const TermId a = dict->Encode("<http://m/A>");
  const TermId b = dict->Encode("<http://m/B>");
  const TermId c = dict->Encode("<http://m/C>");
  ASSERT_TRUE((*repo)->AddTriples({{a, v.sub_class_of, b}}).ok());
  auto second = (*repo)->AddTriples({{b, v.sub_class_of, c}});
  ASSERT_TRUE(second.ok());
  // Recompute-from-scratch processes the full explicit set again.
  EXPECT_EQ(second->materialize.input_count, 2u);
  EXPECT_TRUE((*repo)->store().Contains({a, v.sub_class_of, c}));
}

TEST_P(RepositoryModesTest, PersistsAndRecoversInBothModes) {
  const std::string dir =
      testing::TempDir() + "/repo_mode_" +
      std::to_string(static_cast<int>(GetParam()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Repository::Options options = WithMode(GetParam());
  options.storage_dir = dir;
  size_t closure = 0;
  {
    auto repo = Repository::Open(RdfsFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(15)).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    closure = (*repo)->store().size();
    // The log is the source of truth; the snapshot pair its accelerator.
    std::set<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      files.insert(entry.path().filename().string());
    }
    EXPECT_EQ(files, (std::set<std::string>{"snapshot.dict",
                                            "snapshot.triples",
                                            "statements.log"}));
  }
  auto recovered = Repository::Recover(RdfsFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().size(), closure);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RepositoryModesTest,
    ::testing::Values(Repository::InferenceMode::kStatementAtATime,
                      Repository::InferenceMode::kSemiNaive),
    [](const ::testing::TestParamInfo<Repository::InferenceMode>& info) {
      return info.param == Repository::InferenceMode::kStatementAtATime
                 ? "statement_at_a_time"
                 : "semi_naive";
    });

TEST(RepositoryModeEquivalenceTest, ModesProduceIdenticalClosures) {
  // Same document through both cores: the stores must be set-equal.
  const std::string doc = BsbmGenerator::GenerateNTriples({.target_triples = 20000});

  auto trree = Repository::Open(
      RdfsFactory(), WithMode(Repository::InferenceMode::kStatementAtATime));
  ASSERT_TRUE(trree.ok());
  ASSERT_TRUE((*trree)->Load(doc).ok());

  auto semi = Repository::Open(
      RdfsFactory(), WithMode(Repository::InferenceMode::kSemiNaive));
  ASSERT_TRUE(semi.ok());
  ASSERT_TRUE((*semi)->Load(doc).ok());

  // Load parses in parallel, so the two dictionaries assign different ids:
  // compare the closures as decoded (s, p, o) strings.
  EXPECT_EQ(DecodedClosure(**trree), DecodedClosure(**semi));
  EXPECT_EQ((*trree)->inferred_count(), (*semi)->inferred_count());
}

}  // namespace
}  // namespace slider
