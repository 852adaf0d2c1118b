#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "closure_oracle.h"
#include "reason/reasoner.h"

namespace slider {
namespace {

using oracle::FragmentKind;

// ---------------------------------------------------------------------------
// Deterministic DRed behaviour on hand-built ontologies.
// ---------------------------------------------------------------------------

ReasonerOptions SerialOptions() {
  ReasonerOptions options;
  options.buffer_size = 1;
  options.num_threads = 1;
  options.enable_timeout_flusher = false;
  return options;
}

TEST(RetractionTest, RetractingChainLinkRemovesItsCone) {
  Reasoner r(RhoDfFactory(), SerialOptions());
  Dictionary* d = r.dictionary();
  const Vocabulary& v = r.vocabulary();
  const TermId a = d->Encode("<a>"), b = d->Encode("<b>"),
               c = d->Encode("<c>"), x = d->Encode("<x>");
  r.AddTriples({{a, v.sub_class_of, b}, {b, v.sub_class_of, c},
                {x, v.type, a}});
  r.Flush();
  // Closure: a sco c (SCM-SCO), x type b, x type c (CAX-SCO).
  EXPECT_TRUE(r.store().Contains({a, v.sub_class_of, c}));
  EXPECT_TRUE(r.store().Contains({x, v.type, c}));
  EXPECT_EQ(r.store().size(), 6u);

  const Reasoner::RetractStats stats =
      r.RetractTriple({b, v.sub_class_of, c});
  EXPECT_EQ(stats.retracted, 1u);
  // The cone — b sco c, a sco c, x type c — is gone; the rest survives.
  EXPECT_FALSE(r.store().Contains({b, v.sub_class_of, c}));
  EXPECT_FALSE(r.store().Contains({a, v.sub_class_of, c}));
  EXPECT_FALSE(r.store().Contains({x, v.type, c}));
  EXPECT_TRUE(r.store().Contains({a, v.sub_class_of, b}));
  EXPECT_TRUE(r.store().Contains({x, v.type, b}));
  EXPECT_EQ(r.store().size(), 3u);
  EXPECT_EQ(r.explicit_count(), 2u);
  EXPECT_EQ(r.inferred_count(), 1u);
}

TEST(RetractionTest, StillDerivableVictimSurvivesAsInferred) {
  Reasoner r(RhoDfFactory(), SerialOptions());
  Dictionary* d = r.dictionary();
  const Vocabulary& v = r.vocabulary();
  const TermId a = d->Encode("<a>"), b = d->Encode("<b>"),
               c = d->Encode("<c>");
  // a sco c is asserted AND derivable via a sco b sco c.
  r.AddTriples({{a, v.sub_class_of, b}, {b, v.sub_class_of, c},
                {a, v.sub_class_of, c}});
  r.Flush();
  EXPECT_TRUE(r.store().IsExplicit({a, v.sub_class_of, c}));

  r.RetractTriple({a, v.sub_class_of, c});
  // Rederivation restores it with inferred support.
  EXPECT_TRUE(r.store().Contains({a, v.sub_class_of, c}));
  EXPECT_FALSE(r.store().IsExplicit({a, v.sub_class_of, c}));
  EXPECT_EQ(r.explicit_count(), 2u);

  // Re-asserting promotes it back without changing the closure.
  const size_t size_before = r.store().size();
  r.AddTriple({a, v.sub_class_of, c});
  r.Flush();
  EXPECT_TRUE(r.store().IsExplicit({a, v.sub_class_of, c}));
  EXPECT_EQ(r.store().size(), size_before);
  EXPECT_EQ(r.explicit_count(), 3u);
}

TEST(RetractionTest, DiamondKeepsIndependentlySupportedConsequences) {
  Reasoner r(RhoDfFactory(), SerialOptions());
  Dictionary* d = r.dictionary();
  const Vocabulary& v = r.vocabulary();
  const TermId a = d->Encode("<a>"), b1 = d->Encode("<b1>"),
               b2 = d->Encode("<b2>"), c = d->Encode("<c>");
  // Two derivation paths for a sco c: via b1 and via b2.
  r.AddTriples({{a, v.sub_class_of, b1}, {b1, v.sub_class_of, c},
                {a, v.sub_class_of, b2}, {b2, v.sub_class_of, c}});
  r.Flush();
  EXPECT_TRUE(r.store().Contains({a, v.sub_class_of, c}));

  // Cutting one path must keep the consequence (rederived via the other).
  r.RetractTriple({b1, v.sub_class_of, c});
  EXPECT_TRUE(r.store().Contains({a, v.sub_class_of, c}));
  // Cutting the second path finally removes it.
  r.RetractTriple({b2, v.sub_class_of, c});
  EXPECT_FALSE(r.store().Contains({a, v.sub_class_of, c}));
}

TEST(RetractionTest, NonAssertionsAreIgnored) {
  Reasoner r(RhoDfFactory(), SerialOptions());
  Dictionary* d = r.dictionary();
  const Vocabulary& v = r.vocabulary();
  const TermId a = d->Encode("<a>"), b = d->Encode("<b>"),
               c = d->Encode("<c>");
  r.AddTriples({{a, v.sub_class_of, b}, {b, v.sub_class_of, c}});
  r.Flush();
  const size_t size_before = r.store().size();

  // Absent triple, inferred-only triple, and a duplicate offer of both.
  const Reasoner::RetractStats stats =
      r.Retract({{c, v.sub_class_of, a}, {a, v.sub_class_of, c},
                 {c, v.sub_class_of, a}, {a, v.sub_class_of, c}});
  EXPECT_EQ(stats.requested, 4u);
  EXPECT_EQ(stats.retracted, 0u);
  EXPECT_EQ(stats.overdeleted, 0u);
  EXPECT_EQ(r.store().size(), size_before);
  EXPECT_TRUE(r.store().Contains({a, v.sub_class_of, c}));
}

TEST(RetractionTest, RetractEverythingEmptiesTheStore) {
  Reasoner r(RdfsFactory(), SerialOptions());
  Dictionary* d = r.dictionary();
  const Vocabulary& v = r.vocabulary();
  TripleVec input;
  for (int i = 0; i < 10; ++i) {
    input.push_back({d->Encode("<c" + std::to_string(i) + ">"),
                     v.sub_class_of,
                     d->Encode("<c" + std::to_string(i + 1) + ">")});
  }
  r.AddTriples(input);
  r.Flush();
  EXPECT_GT(r.store().size(), input.size());

  const Reasoner::RetractStats stats = r.Retract(input);
  EXPECT_EQ(stats.retracted, input.size());
  EXPECT_EQ(r.store().size(), 0u);
  EXPECT_EQ(r.explicit_count(), 0u);
  EXPECT_EQ(r.inferred_count(), 0u);
}

TEST(RetractionTest, DeletionWorkIsProportionalToTheCone) {
  // Retracting one mid-chain link must not re-derive the world: deletion
  // derivations stay far below the insert-time derivation count.
  Reasoner r(RhoDfFactory(), SerialOptions());
  Dictionary* d = r.dictionary();
  const Vocabulary& v = r.vocabulary();
  TripleVec input;
  for (int i = 0; i < 60; ++i) {
    input.push_back({d->Encode("<c" + std::to_string(i) + ">"),
                     v.sub_class_of,
                     d->Encode("<c" + std::to_string(i + 1) + ">")});
  }
  r.AddTriples(input);
  r.Flush();
  const uint64_t insert_work = r.total_derivations();

  const Reasoner::RetractStats stats = r.RetractTriple(input[30]);
  EXPECT_GT(stats.overdeleted, 0u);
  EXPECT_LT(stats.delete_derivations, insert_work);
}

// ---------------------------------------------------------------------------
// Counting fast path: derivation counts may skip the over-delete cone for
// multiply-derived facts, but never change the final closure vs plain DRed.
// ---------------------------------------------------------------------------

TEST(RetractionCountingTest, CountingPrunesTheDiamondConeDRedDoesNot) {
  for (const bool counting : {true, false}) {
    SCOPED_TRACE(counting ? "counting" : "dred");
    ReasonerOptions options = SerialOptions();
    options.enable_counting = counting;
    Reasoner r(RhoDfFactory(), options);
    Dictionary* d = r.dictionary();
    const Vocabulary& v = r.vocabulary();
    const TermId a = d->Encode("<a>"), b1 = d->Encode("<b1>"),
                 b2 = d->Encode("<b2>"), c = d->Encode("<c>");
    // a sco c is derived twice (via b1 and via b2): its derivation count
    // lets the gate prove survival one-step from the surviving explicit
    // set, skipping the over-delete/rederive round entirely.
    r.AddTriples({{a, v.sub_class_of, b1}, {b1, v.sub_class_of, c},
                  {a, v.sub_class_of, b2}, {b2, v.sub_class_of, c}});
    r.Flush();

    const Reasoner::RetractStats stats =
        r.RetractTriple({b1, v.sub_class_of, c});
    if (counting) {
      EXPECT_GT(stats.cone_pruned + stats.count_fast_path, 0u);
      EXPECT_GT(stats.count_checks, 0u);
      EXPECT_EQ(stats.overdeleted, 1u);  // the victim only; no cone growth
    } else {
      EXPECT_EQ(stats.cone_pruned, 0u);
      EXPECT_EQ(stats.count_fast_path, 0u);
      EXPECT_EQ(stats.count_checks, 0u);
      EXPECT_EQ(stats.overdeleted, 2u);  // victim + the rederived diamond tip
    }
    // Identical closure either way.
    EXPECT_TRUE(r.store().Contains({a, v.sub_class_of, c}));
    EXPECT_FALSE(r.store().Contains({b1, v.sub_class_of, c}));
    EXPECT_EQ(r.explicit_count(), 3u);

    r.RetractTriple({b2, v.sub_class_of, c});
    EXPECT_FALSE(r.store().Contains({a, v.sub_class_of, c}));
  }
}

TEST(RetractionCountingTest, CountingOnAndOffConvergeToTheSameClosure) {
  // Lockstep interleavings: one generator feeds the identical batches to a
  // counting reasoner and a plain-DRed reasoner (vocabulary ids coincide by
  // construction); their closures must agree at every quiescent point.
  uint64_t fast_paths = 0;
  for (uint64_t seed = 200; seed < 206; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ReasonerOptions on = SerialOptions();
    on.enable_counting = true;
    ReasonerOptions off = SerialOptions();
    off.enable_counting = false;
    Reasoner with(RhoDfFactory(), on);
    Reasoner without(RhoDfFactory(), off);
    oracle::OntologyGen gen(seed, oracle::FragmentKind::kRhoDf,
                            with.dictionary(), with.vocabulary());
    Random rng(seed * 3571);
    TripleVec universe;
    while (universe.size() < 150) {
      TripleVec batch;
      if (universe.empty() || rng.Uniform(100) < 70) {
        for (size_t i = 0; i < 20; ++i) {
          const Triple t = gen.Next();
          batch.push_back(t);
          universe.push_back(t);
        }
        with.AddTriples(batch);
        without.AddTriples(batch);
      } else {
        for (size_t i = 0; i < 6; ++i) {
          batch.push_back(universe[rng.Uniform(universe.size())]);
        }
        const Reasoner::RetractStats stats = with.Retract(batch);
        fast_paths += stats.count_fast_path + stats.cone_pruned;
        without.Retract(batch);
        with.Flush();
        without.Flush();
        ASSERT_EQ(with.store().SnapshotSet(), without.store().SnapshotSet());
      }
    }
    with.Flush();
    without.Flush();
    EXPECT_EQ(with.store().SnapshotSet(), without.store().SnapshotSet());
    EXPECT_EQ(with.explicit_count(), without.explicit_count());
  }
  // Across the sweep the fast path must actually have fired; otherwise this
  // test exercises nothing beyond the plain suite.
  EXPECT_GT(fast_paths, 0u);
}

// ---------------------------------------------------------------------------
// Randomized closure-oracle sweep: 200+ seeded add/retract interleavings per
// fragment, across buffer sizes, timeouts and thread counts. Failures print
// the seed (SCOPED_TRACE in the harness) so runs reproduce exactly.
// ---------------------------------------------------------------------------

constexpr int kBlocks = 25;                // seed blocks per fragment
constexpr int kInterleavingsPerBlock = 8;  // 25 * 8 = 200 per fragment

ReasonerOptions ConfigFor(int i) {
  ReasonerOptions options;
  switch (i % 4) {
    case 0:
      options.buffer_size = 1;  // degenerate buffers: route-per-triple
      break;
    case 1:
      options.buffer_size = 7;  // odd size, partial flushes
      break;
    case 2:
      options.buffer_size = 64;
      break;
    default:
      options.buffer_size = 1024;  // only Flush/timeout can fire
      break;
  }
  options.num_threads = 1 + i % 3;
  switch (i % 3) {
    case 0:
      options.enable_timeout_flusher = false;
      break;
    case 1:
      options.buffer_timeout = std::chrono::milliseconds(1);
      options.timeout_check_interval = std::chrono::milliseconds(1);
      break;
    default:
      options.buffer_timeout = std::chrono::milliseconds(3);
      options.timeout_check_interval = std::chrono::milliseconds(1);
      break;
  }
  return options;
}

class RetractionOracleTest
    : public ::testing::TestWithParam<std::tuple<FragmentKind, int>> {};

TEST_P(RetractionOracleTest, IncrementalClosureEqualsFromScratchOracle) {
  const FragmentKind kind = std::get<0>(GetParam());
  const int block = std::get<1>(GetParam());
  for (int i = 0; i < kInterleavingsPerBlock; ++i) {
    const int run = block * kInterleavingsPerBlock + i;
    const uint64_t seed = 0x5EED0000u + static_cast<uint64_t>(run);
    const size_t target_adds = 120 + static_cast<size_t>(run % 5) * 25;
    oracle::RunAddRetractInterleaving(seed, kind, ConfigFor(run), target_adds);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fragments, RetractionOracleTest,
    ::testing::Combine(::testing::Values(FragmentKind::kRhoDf,
                                         FragmentKind::kRdfs,
                                         FragmentKind::kOwlish),
                       ::testing::Range(0, kBlocks)),
    [](const ::testing::TestParamInfo<std::tuple<FragmentKind, int>>& info) {
      return std::string(oracle::KindName(std::get<0>(info.param))) +
             "_block" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace slider
