// Explicit-bookkeeping oracle for the Repository, in all five inference
// modes. The store's support flags are the only record of explicit
// standing, so they are what this test checks. Seeded interleavings add
// fresh statements, retract, re-add retracted ones, re-assert statements
// that are currently only inferred and retract victims that stay derivable
// from what survives. After every step:
//  - the store's explicit rows equal the oracle's explicit set, and
//    explicit_count() equals its size;
//  - the closure (the provider's full scan, so the on-demand modes count
//    too) equals a from-scratch NaiveReasoner closure of that set.
//
// Live state only. Exact explicit/inferred flags across Recover are the
// open ROADMAP item "Exact support flags across Recover" (the incremental
// engine's flag flips are not journaled), so this test never recovers.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "closure_oracle.h"
#include "common/random.h"
#include "reason/naive_reasoner.h"
#include "reason/repository.h"

namespace slider {
namespace {

using Mode = Repository::InferenceMode;

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kStatementAtATime:
      return "statement_at_a_time";
    case Mode::kSemiNaive:
      return "semi_naive";
    case Mode::kIncremental:
      return "incremental";
    case Mode::kOnDemand:
      return "on_demand";
    case Mode::kHybrid:
      return "hybrid";
  }
  return "?";
}

/// From-scratch closure of `alive`. The oracle fragment is instantiated over
/// the repository's own dictionary, whose Open already bound every term the
/// factory encodes, so ids line up by construction.
TripleSet OracleClosure(Repository& repo, const TripleSet& alive) {
  TripleStore store;
  NaiveReasoner oracle(
      oracle::FactoryFor(oracle::FragmentKind::kRdfs)(repo.vocabulary(),
                                                      repo.dictionary()),
      &store);
  oracle.Materialize(TripleVec(alive.begin(), alive.end()));
  return store.SnapshotSet();
}

TripleSet ExplicitRows(const Repository& repo) {
  TripleSet out;
  repo.store().GetExplicitView().ForEachMatch(
      {kAnyTerm, kAnyTerm, kAnyTerm}, [&](const Triple& t) { out.insert(t); });
  return out;
}

TripleSet Closure(const Repository& repo) {
  TripleSet out;
  repo.provider()->Match({kAnyTerm, kAnyTerm, kAnyTerm},
                         [&](const Triple& t) { out.insert(t); });
  return out;
}

class RepositoryBookkeepingTest : public ::testing::TestWithParam<Mode> {
 protected:
  void ExpectMatchesOracle(Repository& repo, const TripleSet& alive,
                           const std::string& where) {
    SCOPED_TRACE(where);
    EXPECT_EQ(ExplicitRows(repo), alive);
    EXPECT_EQ(repo.explicit_count(), alive.size());
    EXPECT_EQ(Closure(repo), OracleClosure(repo, alive));
  }
};

TEST_P(RepositoryBookkeepingTest, AddRemoveReaddInterleavingsMatchOracle) {
  for (const uint64_t seed : {11u, 29u, 47u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Repository::Options options;
    options.inference = GetParam();
    auto opened = Repository::Open(RdfsFactory(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Repository& repo = **opened;
    oracle::OntologyGen gen(seed, oracle::FragmentKind::kRdfs,
                            repo.dictionary(), repo.vocabulary());
    Random rng(seed ^ 0x9E3779B97F4A7C15ull);

    TripleVec retracted;  // once asserted, now retracted: re-add candidates
    TripleSet alive;      // currently asserted explicit statements
    size_t promoted = 0;  // re-assertions of inferred statements
    size_t derivable_victims = 0;
    for (size_t step = 0; step < 36; ++step) {
      const std::string where = "step " + std::to_string(step);
      TripleVec batch;
      bool add = true;
      switch (alive.empty() ? 0 : rng.Uniform(5)) {
        case 0: {  // fresh statements, duplicates included
          const size_t n = 4 + rng.Uniform(12);
          for (size_t i = 0; i < n; ++i) batch.push_back(gen.Next());
          break;
        }
        case 1: {  // re-add what an earlier step retracted
          for (size_t i = 0; i < 3 && !retracted.empty(); ++i) {
            batch.push_back(retracted[rng.Uniform(retracted.size())]);
          }
          break;
        }
        case 2: {  // re-assert statements that are currently only inferred
          for (const Triple& t : OracleClosure(repo, alive)) {
            if (alive.count(t) == 0 && rng.Uniform(3) == 0) {
              batch.push_back(t);
              if (batch.size() == 2) break;
            }
          }
          promoted += batch.size();
          break;
        }
        case 3: {  // retract a few, plus a usually unasserted mirror
          add = false;
          const TripleVec pool(alive.begin(), alive.end());
          const size_t n = 1 + rng.Uniform(4);
          for (size_t i = 0; i < n; ++i) {
            batch.push_back(pool[rng.Uniform(pool.size())]);
          }
          const Triple& t = batch.front();
          batch.push_back(Triple(t.o, t.p, t.s));
          break;
        }
        default: {  // retract a victim the survivors still derive
          add = false;
          for (const Triple& t : alive) {
            TripleSet rest = alive;
            rest.erase(t);
            if (OracleClosure(repo, rest).count(t) > 0) {
              batch.push_back(t);
              break;
            }
          }
          derivable_victims += batch.size();
          break;
        }
      }
      if (add) {
        ASSERT_TRUE(repo.AddTriples(batch).ok()) << where;
        alive.insert(batch.begin(), batch.end());
      } else {
        ASSERT_TRUE(repo.RemoveTriples(batch).ok()) << where;
        for (const Triple& t : batch) {
          if (alive.erase(t) > 0) retracted.push_back(t);
        }
      }
      ExpectMatchesOracle(repo, alive, where);
    }
    // The seeds exercise both edge cases the bookkeeping must get right.
    EXPECT_GT(promoted, 0u);
    EXPECT_GT(derivable_victims, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RepositoryBookkeepingTest,
    ::testing::Values(Mode::kStatementAtATime, Mode::kSemiNaive,
                      Mode::kIncremental, Mode::kOnDemand, Mode::kHybrid),
    [](const ::testing::TestParamInfo<Mode>& info) {
      return ModeName(info.param);
    });

}  // namespace
}  // namespace slider
