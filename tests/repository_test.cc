#include "reason/repository.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/fs.h"
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

// kIncremental RDFS whose log reaches the disk every 64 records, so the
// file lags the tail by less than one update's records (a checkpoint
// flushes it whole).
Repository::Options AutoCheckpointOptions(const std::string& dir) {
  Repository::Options options;
  options.storage_dir = dir;
  options.inference = Repository::InferenceMode::kIncremental;
  options.log_flush_interval = 64;
  return options;
}

// Loads a four-class schema under a common superclass.
void AddSchema(Repository* repo) {
  Dictionary* dict = repo->dictionary();
  const Vocabulary& v = repo->vocabulary();
  TripleVec schema;
  for (int c = 0; c < 4; ++c) {
    schema.push_back({dict->Encode("<http://ex/C" + std::to_string(c) + ">"),
                      v.sub_class_of, dict->Encode("<http://ex/Top>")});
  }
  ASSERT_TRUE(repo->AddTriples(schema).ok());
}

// Update number `round`: one INSERT DATA of 100 fresh instance assertions,
// then one DELETE DATA of the first 20 of the previous round's.
void RunUpdate(Repository* repo, int round) {
  Dictionary* dict = repo->dictionary();
  const Vocabulary& v = repo->vocabulary();
  const auto instance = [&](int r, int i) {
    return Triple(dict->Encode("<http://ex/x" + std::to_string(r) + "_" +
                               std::to_string(i) + ">"),
                  v.type,
                  dict->Encode("<http://ex/C" + std::to_string(i % 4) + ">"));
  };
  UpdateRequest request;
  UpdateOp insert;
  insert.kind = UpdateOp::Kind::kInsertData;
  for (int i = 0; i < 100; ++i) insert.data.push_back(instance(round, i));
  request.ops.push_back(std::move(insert));
  if (round > 0) {
    UpdateOp remove;
    remove.kind = UpdateOp::Kind::kDeleteData;
    for (int i = 0; i < 20; ++i) remove.data.push_back(instance(round - 1, i));
    request.ops.push_back(std::move(remove));
  }
  const Result<UpdateResult> result = repo->ExecuteUpdate(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

StatementLog::Contents ReadLog(const std::string& dir) {
  auto log = StatementLog::ReadLog(dir + "/statements.log");
  log.status().AbortIfNotOk();
  return log.MoveValueUnsafe();
}

TripleSet ExplicitSet(const TripleStore& store) {
  TripleSet out;
  store.GetExplicitView().ForEachMatch(
      TriplePattern{kAnyTerm, kAnyTerm, kAnyTerm},
      [&](const Triple& t) { out.insert(t); });
  return out;
}

TEST(RepositoryTest, AutoCheckpointKeepsTheLogTailBounded) {
  const std::string dir = FreshDir("repo_auto_checkpoint");
  const Repository::Options options = AutoCheckpointOptions(dir);
  // A small store: the fixed minimum is the bound.
  const uint64_t bound = Repository::kLogTailMinRecords;
  TripleSet closure;
  TripleSet asserted;
  {
    auto repo = Repository::Open(RdfsFactory(), options);
    ASSERT_TRUE(repo.ok());
    AddSchema(repo->get());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    uint64_t base = ReadLog(dir).base_lsn;
    ASSERT_GT(base, 0u);
    int checkpoints = 0;
    int round = 0;
    for (; round < 1000 && checkpoints < 3; ++round) {
      RunUpdate(repo->get(), round);
      const StatementLog::Contents log = ReadLog(dir);
      // The tail never outlives an update past the bound...
      ASSERT_LE(log.records.size(), bound) << "round " << round;
      if (log.base_lsn != base) {
        // ...and a checkpoint fires only once the tail has passed it.
        EXPECT_GT(log.base_lsn - base, bound) << "round " << round;
        EXPECT_TRUE(log.records.empty());
        base = log.base_lsn;
        ++checkpoints;
      }
    }
    ASSERT_EQ(checkpoints, 3);
    // The automatic snapshot anchors at the log base: compaction is legal.
    ASSERT_TRUE((*repo)->CompactLog().ok());
    RunUpdate(repo->get(), round);
    closure = (*repo)->store().SnapshotSet();
    asserted = ExplicitSet((*repo)->store());
  }
  auto recovered = Repository::Recover(RdfsFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().SnapshotSet(), closure);
  EXPECT_EQ(ExplicitSet((*recovered)->store()), asserted);
}

TEST(RepositoryTest, IncrementalCheckpointOnThePoolRecoversTheLiveState) {
  // kIncremental writes its snapshot pair on the engine's pool. A store
  // whose type partition spans several encoding pieces, with retractions
  // before the checkpoint and a log tail after it, must recover to the live
  // closure and the live explicit set.
  const std::string dir = FreshDir("repo_incremental_pool_checkpoint");
  Repository::Options options;
  options.storage_dir = dir;
  options.inference = Repository::InferenceMode::kIncremental;
  options.incremental.num_threads = 4;
  TripleSet closure;
  TripleSet asserted;
  {
    auto repo = Repository::Open(RdfsFactory(), options);
    ASSERT_TRUE(repo.ok());
    AddSchema(repo->get());
    Dictionary* dict = (*repo)->dictionary();
    const Vocabulary& v = (*repo)->vocabulary();
    TripleVec instances;
    for (int i = 0; i < 20000; ++i) {
      instances.push_back(
          {dict->Encode("<http://ex/i" + std::to_string(i) + ">"), v.type,
           dict->Encode("<http://ex/C" + std::to_string(i % 4) + ">")});
    }
    ASSERT_TRUE((*repo)->AddTriples(instances).ok());
    TripleVec victims;
    for (size_t i = 0; i < instances.size(); i += 9) {
      victims.push_back(instances[i]);
    }
    ASSERT_TRUE((*repo)->RemoveTriples(victims).ok());
    const ThreadPool::Stats before = (*repo)->incremental_core()->pool_stats();
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    const ThreadPool::Stats after = (*repo)->incremental_core()->pool_stats();
    // The checkpoint's pool work is counted apart from rule tasks.
    EXPECT_EQ(after.tasks_executed, before.tasks_executed);
    EXPECT_EQ(after.peak_queue_depth, before.peak_queue_depth);
    RunUpdate(repo->get(), 0);  // a tail past the snapshot
    closure = (*repo)->store().SnapshotSet();
    asserted = ExplicitSet((*repo)->store());
  }
  auto recovered = Repository::Recover(RdfsFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().SnapshotSet(), closure);
  EXPECT_EQ(ExplicitSet((*recovered)->store()), asserted);
}

TEST(RepositoryTest, NoAutoCheckpointBeforeTheFirstSnapshot) {
  const std::string dir = FreshDir("repo_auto_checkpoint_none");
  const Repository::Options options = AutoCheckpointOptions(dir);
  auto repo = Repository::Open(RdfsFactory(), options);
  ASSERT_TRUE(repo.ok());
  AddSchema(repo->get());
  int round = 0;
  while (ReadLog(dir).records.size() <= 2 * Repository::kLogTailMinRecords) {
    ASSERT_LT(round, 1000);
    RunUpdate(repo->get(), round++);
  }
  EXPECT_EQ(ReadLog(dir).base_lsn, 0u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/snapshot.triples"));
}

TEST(RepositoryTest, NoAutoCheckpointWithTruncationOff) {
  const std::string dir = FreshDir("repo_auto_checkpoint_keep_log");
  Repository::Options options = AutoCheckpointOptions(dir);
  options.truncate_log_on_checkpoint = false;
  TripleSet closure;
  TripleSet asserted;
  {
    auto repo = Repository::Open(RdfsFactory(), options);
    ASSERT_TRUE(repo.ok());
    AddSchema(repo->get());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    const std::string image =
        ReadFileToString(dir + "/snapshot.triples").MoveValueUnsafe();
    const size_t anchored = ReadLog(dir).records.size();
    int round = 0;
    while (ReadLog(dir).records.size() - anchored <=
           2 * Repository::kLogTailMinRecords) {
      ASSERT_LT(round, 1000);
      RunUpdate(repo->get(), round++);
    }
    EXPECT_EQ(ReadLog(dir).base_lsn, 0u);
    EXPECT_EQ(ReadFileToString(dir + "/snapshot.triples").MoveValueUnsafe(),
              image);
    closure = (*repo)->store().SnapshotSet();
    asserted = ExplicitSet((*repo)->store());
  }
  auto recovered = Repository::Recover(RdfsFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().SnapshotSet(), closure);
  EXPECT_EQ(ExplicitSet((*recovered)->store()), asserted);
}

}  // namespace
}  // namespace slider
