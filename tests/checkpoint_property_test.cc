// Randomized checkpoint-point property: drive a persistent Repository
// through a seeded add/retract interleaving whose batches keep minting
// fresh IRIs, checkpoint at arbitrary points (sometimes compacting the log
// right after; one seed per mode never checkpoints at all), then
// crash-recover and require the recovered closure to equal the live one,
// compared as decoded (s, p, o) strings so an unrecoverable term shows —
// in every inference mode, with repeated Recover idempotent. The live
// repository is its own oracle: recovery replays state, it never re-runs
// inference, so any divergence is a snapshot/LSN/tail-replay bug, not a
// reasoning bug.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "common/random.h"
#include "reason/repository.h"
#include "closure_oracle.h"

namespace slider {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

const char* ModeName(Repository::InferenceMode mode) {
  switch (mode) {
    case Repository::InferenceMode::kStatementAtATime:
      return "trree";
    case Repository::InferenceMode::kSemiNaive:
      return "seminaive";
    case Repository::InferenceMode::kIncremental:
      return "incremental";
    case Repository::InferenceMode::kOnDemand:
      return "ondemand";
    case Repository::InferenceMode::kHybrid:
      return "hybrid";
  }
  return "?";
}

/// The store's closure as "s p o" strings; an id the dictionary cannot
/// decode shows up as such instead of crashing the comparison.
std::set<std::string> DecodedClosure(Repository& repo) {
  const Dictionary& dict = *repo.dictionary();
  const auto decode = [&](TermId id) {
    Result<std::string> term = dict.Decode(id);
    return term.ok() ? *term : "<unbound id " + std::to_string(id) + ">";
  };
  std::set<std::string> out;
  for (const Triple& t : repo.store().SnapshotSet()) {
    out.insert(decode(t.s) + " " + decode(t.p) + " " + decode(t.o));
  }
  return out;
}

enum class Checkpoints { kRandom, kNever };

void RunCheckpointInterleaving(uint64_t seed, Repository::InferenceMode mode,
                               oracle::FragmentKind kind,
                               Checkpoints policy = Checkpoints::kRandom) {
  const bool checkpointing = policy == Checkpoints::kRandom;
  SCOPED_TRACE("seed=" + std::to_string(seed) + " mode=" + ModeName(mode) +
               " fragment=" + oracle::KindName(kind) +
               (checkpointing ? "" : " never-checkpointed"));
  const std::string dir =
      FreshDir(std::string("ckpt_prop_") + ModeName(mode) + "_" +
               std::to_string(seed));
  Repository::Options options;
  options.storage_dir = dir;
  options.inference = mode;
  options.log_flush_interval = 1;  // every record reaches the OS promptly
  // Deterministic serial engine for kIncremental: single thread, no
  // background flusher, flushing driven by the repository itself.
  options.incremental.buffer_size = 1;
  options.incremental.num_threads = 1;
  options.incremental.enable_timeout_flusher = false;

  std::set<std::string> live_closure;
  size_t checkpoints = 0;
  {
    auto repo = Repository::Open(oracle::FactoryFor(kind), options);
    ASSERT_TRUE(repo.ok()) << repo.status().ToString();
    oracle::OntologyGen gen(seed, kind, (*repo)->dictionary(),
                            (*repo)->vocabulary());
    Random rng(seed ^ 0x9E3779B97F4A7C15ull);

    TripleVec universe;  // every triple ever offered, in offer order
    size_t fresh_terms = 0;
    const size_t rounds = 10 + rng.Uniform(6);
    for (size_t round = 0; round < rounds; ++round) {
      if (universe.empty() || rng.Uniform(100) < 65) {
        TripleVec batch;
        const size_t n = 6 + rng.Uniform(18);
        for (size_t i = 0; i < n; ++i) {
          Triple t = gen.Next();
          if (rng.Uniform(4) == 0) {
            // A term nobody has seen yet, minted between checkpoints.
            t.s = (*repo)->dictionary()->Encode(
                "<http://rand/fresh" + std::to_string(fresh_terms++) + ">");
          }
          batch.push_back(t);
          universe.push_back(t);
        }
        ASSERT_TRUE((*repo)->AddTriples(batch).ok());
      } else {
        TripleVec batch;
        const size_t n = 1 + rng.Uniform(8);
        for (size_t i = 0; i < n; ++i) {
          batch.push_back(universe[rng.Uniform(universe.size())]);
        }
        ASSERT_TRUE((*repo)->RemoveTriples(batch).ok());
      }
      // Checkpoint at arbitrary interleaving points — including twice in a
      // row (the second snapshot covers an empty tail) and right before
      // the "crash". Occasionally compact the freshly truncated log, which
      // must be a no-op for the recovered state.
      if (rng.Uniform(100) < 35) {
        if (checkpointing) {
          ASSERT_TRUE((*repo)->Checkpoint().ok());
          ++checkpoints;
        }
        if (rng.Uniform(2) == 0) {
          ASSERT_TRUE((*repo)->CompactLog().ok());
        }
      }
    }
    // Crash: the handle drops with no final checkpoint in ~half the runs,
    // so the tail replay (or the full replay, if no checkpoint ever
    // happened) carries real weight. Those runs end on a batch with a
    // fresh IRI, so the tail always uses a term the last image lacks.
    if (rng.Uniform(2) == 0 && checkpointing) {
      ASSERT_TRUE((*repo)->Checkpoint().ok());
      ++checkpoints;
    } else {
      Triple t = gen.Next();
      t.s = (*repo)->dictionary()->Encode("<http://rand/tail>");
      ASSERT_TRUE((*repo)->AddTriples({t}).ok());
    }
    live_closure = DecodedClosure(**repo);
  }

  for (int attempt = 0; attempt < 2; ++attempt) {
    auto recovered = Repository::Recover(oracle::FactoryFor(kind), options);
    ASSERT_TRUE(recovered.ok())
        << "attempt " << attempt << " after " << checkpoints
        << " checkpoints: " << recovered.status().ToString();
    EXPECT_EQ(DecodedClosure(**recovered), live_closure)
        << "attempt " << attempt << " after " << checkpoints << " checkpoints";
  }
}

TEST(CheckpointPropertyTest, StatementAtATimeMode) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunCheckpointInterleaving(seed, Repository::InferenceMode::kStatementAtATime,
                              oracle::FragmentKind::kRhoDf);
  }
  RunCheckpointInterleaving(5, Repository::InferenceMode::kStatementAtATime,
                            oracle::FragmentKind::kRdfs);
  RunCheckpointInterleaving(6, Repository::InferenceMode::kStatementAtATime,
                            oracle::FragmentKind::kRdfs, Checkpoints::kNever);
}

TEST(CheckpointPropertyTest, SemiNaiveMode) {
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    RunCheckpointInterleaving(seed, Repository::InferenceMode::kSemiNaive,
                              oracle::FragmentKind::kRhoDf);
  }
  RunCheckpointInterleaving(15, Repository::InferenceMode::kSemiNaive,
                            oracle::FragmentKind::kRdfs);
  RunCheckpointInterleaving(16, Repository::InferenceMode::kSemiNaive,
                            oracle::FragmentKind::kRdfs, Checkpoints::kNever);
}

TEST(CheckpointPropertyTest, IncrementalMode) {
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    RunCheckpointInterleaving(seed, Repository::InferenceMode::kIncremental,
                              oracle::FragmentKind::kRhoDf);
  }
  RunCheckpointInterleaving(25, Repository::InferenceMode::kIncremental,
                            oracle::FragmentKind::kRdfs);
  RunCheckpointInterleaving(26, Repository::InferenceMode::kIncremental,
                            oracle::FragmentKind::kRdfs, Checkpoints::kNever);
}

TEST(CheckpointPropertyTest, OnDemandMode) {
  // The on-demand modes require the ρdf fragment (backward coverage).
  for (uint64_t seed = 31; seed <= 35; ++seed) {
    RunCheckpointInterleaving(seed, Repository::InferenceMode::kOnDemand,
                              oracle::FragmentKind::kRhoDf);
  }
  RunCheckpointInterleaving(36, Repository::InferenceMode::kOnDemand,
                            oracle::FragmentKind::kRhoDf, Checkpoints::kNever);
}

TEST(CheckpointPropertyTest, HybridMode) {
  for (uint64_t seed = 41; seed <= 45; ++seed) {
    RunCheckpointInterleaving(seed, Repository::InferenceMode::kHybrid,
                              oracle::FragmentKind::kRhoDf);
  }
  RunCheckpointInterleaving(46, Repository::InferenceMode::kHybrid,
                            oracle::FragmentKind::kRhoDf, Checkpoints::kNever);
}

}  // namespace
}  // namespace slider
