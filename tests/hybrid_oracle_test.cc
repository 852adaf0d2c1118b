// Oracle property tests for the hybrid answering stack (ISSUE 7): a
// Repository in kOnDemand or kHybrid mode is driven through seeded
// add/retract interleavings (the closure_oracle.h harness shape) and its
// *query answers* — served by the cost-routed HybridProvider through the
// tabling cache — are checked against a from-scratch NaiveReasoner closure
// of exactly the explicit triples still asserted. Probes run mid-stream,
// between update batches, so filled answer tables must survive or be
// invalidated correctly across both additions and retractions; any stale
// table, missed invalidation or unsound route shows up as a set mismatch.
//
// The id-alignment argument is the same as closure_oracle.h: the oracle
// dictionary sees the identical registration order (vocabulary, then the
// fragment factory), so the repository-encoded triples can be fed to the
// oracle fixpoint directly.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "closure_oracle.h"
#include "common/random.h"
#include "query/hybrid.h"
#include "reason/naive_reasoner.h"
#include "reason/repository.h"

namespace slider {
namespace {

const char* ModeName(Repository::InferenceMode mode) {
  return mode == Repository::InferenceMode::kOnDemand ? "on_demand" : "hybrid";
}

/// From-scratch closure of `alive` under `kind`'s rule set, materialized
/// into `oracle_store`, over an identically-registered fresh dictionary
/// (ids line up; see the header comment).
void OracleClosure(oracle::FragmentKind kind, const TripleSet& alive,
                   TripleStore* oracle_store) {
  Dictionary oracle_dict;
  const Vocabulary oracle_vocab = Vocabulary::Register(&oracle_dict);
  Fragment oracle_fragment = oracle::FactoryFor(kind)(oracle_vocab,
                                                      &oracle_dict);
  NaiveReasoner oracle(std::move(oracle_fragment), oracle_store);
  oracle.Materialize(TripleVec(alive.begin(), alive.end()));
}

TripleSet Answers(const MatchProvider& provider, const TriplePattern& pat) {
  TripleSet out;
  provider.Match(pat, [&](const Triple& t) { out.insert(t); });
  return out;
}

TripleSet StoreAnswers(const TripleStore& store, const TriplePattern& pat) {
  TripleSet out;
  store.GetView().ForEachMatch(pat, [&](const Triple& t) { out.insert(t); });
  return out;
}

/// Probes the repository's provider with every pattern shape the evaluator
/// can emit — full scan, predicate-bound, endpoint-bound, fully bound —
/// and asserts each answer set equals the oracle's.
void ExpectAnswersMatchOracle(Repository& repo, oracle::FragmentKind kind,
                              const TripleSet& alive,
                              const std::string& where) {
  SCOPED_TRACE(where);
  TripleStore oracle_store;
  OracleClosure(kind, alive, &oracle_store);
  const MatchProvider& provider = *repo.provider();
  const Vocabulary& v = repo.vocabulary();
  Dictionary* dict = repo.dictionary();
  // Pool terms were encoded by OntologyGen already; Encode is idempotent.
  const TermId c1 = dict->Encode("<http://rand/c1>");
  const TermId c4 = dict->Encode("<http://rand/c4>");
  const TermId x2 = dict->Encode("<http://rand/x2>");
  const TermId x7 = dict->Encode("<http://rand/x7>");

  std::vector<TriplePattern> probes;
  probes.push_back({kAnyTerm, kAnyTerm, kAnyTerm});  // full scan
  probes.push_back({x7, kAnyTerm, kAnyTerm});        // s bound, p unbound
  for (TermId p :
       {v.sub_class_of, v.sub_property_of, v.domain, v.range, v.type}) {
    probes.push_back({kAnyTerm, p, kAnyTerm});
  }
  probes.push_back({c1, v.sub_class_of, kAnyTerm});
  probes.push_back({kAnyTerm, v.sub_class_of, c4});
  probes.push_back({x2, v.type, kAnyTerm});
  probes.push_back({kAnyTerm, v.type, c1});
  for (size_t i = 0; i < 6; ++i) {
    const TermId p = dict->Encode("<http://rand/p" + std::to_string(i) + ">");
    probes.push_back({kAnyTerm, p, kAnyTerm});
    if (i % 2 == 0) {
      probes.push_back({x2, p, kAnyTerm});
    } else {
      probes.push_back({kAnyTerm, p, x7});
    }
  }
  // Fully bound probes sampled from the closure, plus their mirrors (the
  // mirror is usually absent — a negative membership probe).
  size_t taken = 0;
  for (const Triple& t : oracle_store.SnapshotSet()) {
    if (++taken % 7 != 0) continue;
    probes.push_back({t.s, t.p, t.o});
    probes.push_back({t.o, t.p, t.s});
    if (probes.size() > 60) break;
  }

  for (const TriplePattern& pat : probes) {
    EXPECT_EQ(Answers(provider, pat), StoreAnswers(oracle_store, pat))
        << "pattern {" << pat.s << " " << pat.p << " " << pat.o << "}";
  }

  // Store shape: kOnDemand holds exactly the explicit set; kHybrid adds
  // exactly the schema closure (as inferred statements) on top of it.
  EXPECT_EQ(repo.store().ExplicitCount(), alive.size());
  EXPECT_EQ(repo.explicit_count(), alive.size());
  if (repo.options().inference == Repository::InferenceMode::kOnDemand) {
    EXPECT_EQ(repo.store().SnapshotSet(), alive);
    EXPECT_EQ(repo.inferred_count(), 0u);
  } else {
    TripleSet expected = alive;
    for (const Triple& t : oracle_store.SnapshotSet()) {
      if (t.p == v.sub_class_of || t.p == v.sub_property_of ||
          t.p == v.domain || t.p == v.range) {
        expected.insert(t);
      }
    }
    EXPECT_EQ(repo.store().SnapshotSet(), expected);
  }
}

/// One seeded interleaving: 65% add batches / 35% retract batches, oracle
/// probes every few batches so answer tables fill and must then survive the
/// subsequent deltas (or be dropped by them).
void RunHybridInterleaving(uint64_t seed, oracle::FragmentKind kind,
                           Repository::InferenceMode mode,
                           size_t target_adds = 120) {
  SCOPED_TRACE("seed=" + std::to_string(seed) + " kind=" +
               oracle::KindName(kind) + " mode=" + ModeName(mode));
  Repository::Options options;
  options.inference = mode;
  auto opened = Repository::Open(oracle::FactoryFor(kind), options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Repository& repo = **opened;
  oracle::OntologyGen gen(seed, kind, repo.dictionary(), repo.vocabulary());
  Random rng(seed ^ 0xD1B54A32D192ED03ull);

  TripleVec universe;  // every triple ever offered
  TripleSet alive;     // currently asserted explicit triples
  size_t adds = 0;
  size_t batches = 0;
  while (adds < target_adds) {
    if (universe.empty() || rng.Uniform(100) < 65) {
      TripleVec batch;
      const size_t n = 8 + rng.Uniform(32);
      for (size_t i = 0; i < n; ++i) {
        const Triple t = gen.Next();
        batch.push_back(t);
        universe.push_back(t);
        alive.insert(t);
      }
      adds += n;
      ASSERT_TRUE(repo.AddTriples(batch).ok());
    } else {
      TripleVec batch;
      const size_t n = 1 + rng.Uniform(12);
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(universe[rng.Uniform(universe.size())]);
      }
      // Occasionally a mirrored never-asserted triple: retracting a
      // non-assertion must be a no-op.
      if (rng.Uniform(4) == 0) {
        const Triple& t = universe[rng.Uniform(universe.size())];
        batch.push_back(Triple(t.o, t.p, t.s));
      }
      for (const Triple& t : batch) alive.erase(t);
      ASSERT_TRUE(repo.RemoveTriples(batch).ok());
    }
    if (++batches % 3 == 0) {
      ExpectAnswersMatchOracle(repo, kind, alive,
                               "after batch " + std::to_string(batches));
    }
  }
  ExpectAnswersMatchOracle(repo, kind, alive, "final");

  // The probes exercised the tabled backward path between deltas, and every
  // non-empty delta bumps the cache generation.
  const HybridProvider* hybrid = repo.hybrid_provider();
  ASSERT_NE(hybrid, nullptr);
  const TablingCache::Stats ts = hybrid->tables().stats();
  EXPECT_GT(ts.hits + ts.misses, 0u);
  EXPECT_GT(hybrid->tables().generation(), 0u);
  // The generated ontologies carry schema evidence (subclass edges at
  // minimum), so rdf:type probes are not forward-complete: both modes must
  // have chained backward at least once.
  EXPECT_GT(hybrid->route_stats().backward, 0u);
}

/// The acceptance matrix: every shipped fragment × both on-demand modes.
/// kOnDemand with the RDFS or OWL rule set was rejected outright before the
/// per-rule goal interface; these parameterizations are the proof it now
/// answers identically to forward materialization.
class HybridOracleTest
    : public ::testing::TestWithParam<
          std::tuple<oracle::FragmentKind, Repository::InferenceMode>> {
 protected:
  oracle::FragmentKind kind() const { return std::get<0>(GetParam()); }
  Repository::InferenceMode mode() const { return std::get<1>(GetParam()); }
};

TEST_P(HybridOracleTest, SeededInterleavingsMatchForwardOracle) {
  for (uint64_t seed : {7u, 23u, 71u}) {
    RunHybridInterleaving(seed, kind(), mode());
    if (::testing::Test::HasFailure()) break;  // first seed is enough to debug
  }
}

TEST_P(HybridOracleTest, RecoverRebuildsAnswersFromTheJournal) {
  const std::string dir = testing::TempDir() + "/hybrid_recover_" +
                          oracle::KindName(kind()) + "_" +
                          std::to_string(static_cast<int>(mode()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Repository::Options options;
  options.inference = mode();
  options.storage_dir = dir;

  TripleSet alive;
  {
    auto opened = Repository::Open(oracle::FactoryFor(kind()), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Repository& repo = **opened;
    oracle::OntologyGen gen(11, kind(), repo.dictionary(), repo.vocabulary());
    TripleVec universe;
    for (int batch = 0; batch < 4; ++batch) {
      TripleVec triples;
      for (int i = 0; i < 24; ++i) {
        const Triple t = gen.Next();
        triples.push_back(t);
        universe.push_back(t);
        alive.insert(t);
      }
      ASSERT_TRUE(repo.AddTriples(triples).ok());
    }
    TripleVec removed(universe.begin(), universe.begin() + 20);
    for (const Triple& t : removed) alive.erase(t);
    ASSERT_TRUE(repo.RemoveTriples(removed).ok());
    ASSERT_TRUE(repo.Checkpoint().ok());
    ExpectAnswersMatchOracle(repo, kind(), alive, "before recovery");
  }

  auto recovered = Repository::Recover(oracle::FactoryFor(kind()), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // The kHybrid schema closure is never journaled; the store-shape check
  // inside the oracle comparison proves it was rebuilt from the replayed
  // explicit statements.
  ExpectAnswersMatchOracle(**recovered, kind(), alive, "after recovery");
}

INSTANTIATE_TEST_SUITE_P(
    FragmentsByModes, HybridOracleTest,
    ::testing::Combine(
        ::testing::Values(oracle::FragmentKind::kRhoDf,
                          oracle::FragmentKind::kRdfs,
                          oracle::FragmentKind::kOwlish),
        ::testing::Values(Repository::InferenceMode::kOnDemand,
                          Repository::InferenceMode::kHybrid)),
    [](const ::testing::TestParamInfo<
        std::tuple<oracle::FragmentKind, Repository::InferenceMode>>& info) {
      return std::string(oracle::KindName(std::get<0>(info.param))) + "_" +
             ModeName(std::get<1>(info.param));
    });

// --- Targeted tabling-invalidation-after-Retract checks -------------------

TEST(HybridTablingInvalidationTest, SchemaRetractFlushesAndAnswersShrink) {
  Repository::Options options;
  options.inference = Repository::InferenceMode::kOnDemand;
  auto opened = Repository::Open(RhoDfFactory(), options);
  ASSERT_TRUE(opened.ok());
  Repository& repo = **opened;
  Dictionary* dict = repo.dictionary();
  const Vocabulary& v = repo.vocabulary();
  const TermId a = dict->Encode("<http://t/A>");
  const TermId b = dict->Encode("<http://t/B>");
  const TermId c = dict->Encode("<http://t/C>");
  const TermId x = dict->Encode("<http://t/x>");
  ASSERT_TRUE(repo.AddTriples({{a, v.sub_class_of, b},
                               {b, v.sub_class_of, c},
                               {x, v.type, a}})
                  .ok());

  const TriplePattern types = {x, v.type, kAnyTerm};
  const TripleSet full = {{x, v.type, a}, {x, v.type, b}, {x, v.type, c}};
  EXPECT_EQ(Answers(*repo.provider(), types), full);  // fills the table
  EXPECT_EQ(Answers(*repo.provider(), types), full);  // served from it
  const HybridProvider* hybrid = repo.hybrid_provider();
  ASSERT_NE(hybrid, nullptr);
  EXPECT_GE(hybrid->tables().stats().hits, 1u);

  // Retracting the schema edge must flush the tables: the old answer set
  // {x type c} is no longer derivable.
  ASSERT_TRUE(repo.RemoveTriples({{b, v.sub_class_of, c}}).ok());
  EXPECT_GE(hybrid->tables().stats().full_flushes, 1u);
  const TripleSet shrunk = {{x, v.type, a}, {x, v.type, b}};
  EXPECT_EQ(Answers(*repo.provider(), types), shrunk);
}

TEST(HybridTablingInvalidationTest, InstanceRetractDropsOnlyAffectedTables) {
  Repository::Options options;
  options.inference = Repository::InferenceMode::kOnDemand;
  auto opened = Repository::Open(RhoDfFactory(), options);
  ASSERT_TRUE(opened.ok());
  Repository& repo = **opened;
  Dictionary* dict = repo.dictionary();
  const Vocabulary& v = repo.vocabulary();
  const TermId p = dict->Encode("<http://t/p>");
  const TermId q = dict->Encode("<http://t/q>");
  const TermId r = dict->Encode("<http://t/r>");
  const TermId u = dict->Encode("<http://t/u>");
  const TermId x = dict->Encode("<http://t/x>");
  const TermId y = dict->Encode("<http://t/y>");
  const TermId z = dict->Encode("<http://t/z>");
  const TermId w = dict->Encode("<http://t/w>");
  // Both q and r have incoming subPropertyOf edges, so neither is
  // forward-complete: both queries chain backward and fill tables (u stays
  // triple-less — its edge only exists to force r onto the backward route).
  ASSERT_TRUE(repo.AddTriples({{p, v.sub_property_of, q},
                               {u, v.sub_property_of, r},
                               {x, p, y},
                               {z, r, w}})
                  .ok());

  const TriplePattern via_q = {kAnyTerm, q, kAnyTerm};
  const TriplePattern via_r = {kAnyTerm, r, kAnyTerm};
  for (int round = 0; round < 2; ++round) {  // fill round, then hit round
    EXPECT_EQ(Answers(*repo.provider(), via_q), TripleSet({{x, q, y}}));
    EXPECT_EQ(Answers(*repo.provider(), via_r), TripleSet({{z, r, w}}));
  }
  const HybridProvider* hybrid = repo.hybrid_provider();
  ASSERT_NE(hybrid, nullptr);
  const uint64_t hits_before = hybrid->tables().stats().hits;
  EXPECT_GE(hits_before, 2u);

  // Retracting (x p y) must drop q's table (p's sp up-closure reaches q)
  // but keep r's: the next q-query re-derives and shrinks, the next
  // r-query is still a table hit.
  ASSERT_TRUE(repo.RemoveTriples({{x, p, y}}).ok());
  EXPECT_GE(hybrid->tables().stats().invalidated, 1u);
  EXPECT_EQ(Answers(*repo.provider(), via_q), TripleSet{});
  EXPECT_EQ(Answers(*repo.provider(), via_r), TripleSet({{z, r, w}}));
  EXPECT_EQ(hybrid->tables().stats().hits, hits_before + 1);
}

}  // namespace
}  // namespace slider
