#include "reason/reasoner.h"

#include <gtest/gtest.h>

#include <thread>

#include "reason/batch_reasoner.h"
#include "workload/chain_generator.h"

namespace slider {
namespace {

/// Options with the background scanner disabled and a single worker: the
/// fully deterministic configuration used by the functional tests. The
/// concurrency-heavy configurations are exercised by the property suite in
/// closure_property_test.cc.
ReasonerOptions QuietOptions(size_t buffer_size = 8) {
  ReasonerOptions options;
  options.buffer_size = buffer_size;
  options.num_threads = 1;
  options.enable_timeout_flusher = false;
  return options;
}

TEST(ReasonerTest, InitializesModulesFromFragment) {
  Reasoner reasoner(RhoDfFactory(), QuietOptions());
  EXPECT_EQ(reasoner.fragment().size(), 8u);
  EXPECT_EQ(reasoner.rule_stats().size(), 8u);
  EXPECT_EQ(reasoner.dependency_graph().num_rules(), 8u);
  EXPECT_EQ(reasoner.store().size(), 0u);
}

TEST(ReasonerTest, SimpleDerivation) {
  Reasoner reasoner(RhoDfFactory(), QuietOptions());
  Dictionary* dict = reasoner.dictionary();
  const Vocabulary& v = reasoner.vocabulary();
  const TermId a = dict->Encode("<http://ex/A>");
  const TermId b = dict->Encode("<http://ex/B>");
  const TermId x = dict->Encode("<http://ex/x>");
  reasoner.AddTriples({{a, v.sub_class_of, b}, {x, v.type, a}});
  reasoner.Flush();
  EXPECT_TRUE(reasoner.store().Contains({x, v.type, b}));
  EXPECT_EQ(reasoner.explicit_count(), 2u);
  EXPECT_EQ(reasoner.inferred_count(), 1u);
}

TEST(ReasonerTest, ChainClosureMatchesPaperFormula) {
  Reasoner reasoner(RhoDfFactory(), QuietOptions(16));
  TripleVec input =
      ChainGenerator::Generate(50, reasoner.dictionary(), reasoner.vocabulary());
  reasoner.AddTriples(input);
  reasoner.Flush();
  EXPECT_EQ(reasoner.explicit_count(), ChainGenerator::InputSize(50));
  EXPECT_EQ(reasoner.inferred_count(), ChainGenerator::ExpectedRhoDfInferred(50));
}

TEST(ReasonerTest, RdfsChainClosure) {
  Reasoner reasoner(RdfsFactory(), QuietOptions(16));
  TripleVec input =
      ChainGenerator::Generate(30, reasoner.dictionary(), reasoner.vocabulary());
  reasoner.AddTriples(input);
  reasoner.Flush();
  EXPECT_EQ(reasoner.inferred_count(), ChainGenerator::ExpectedRdfsInferred(30));
}

TEST(ReasonerTest, IncrementalFeedEqualsOneShot) {
  // The headline incremental property: triple-by-triple feeding with
  // interleaved flushes reaches exactly the batch closure.
  Reasoner incremental(RhoDfFactory(), QuietOptions(4));
  TripleVec input = ChainGenerator::Generate(25, incremental.dictionary(),
                                             incremental.vocabulary());
  for (const Triple& t : input) {
    incremental.AddTriple(t);
  }
  incremental.Flush();

  TripleStore batch_store;
  Dictionary batch_dict;
  const Vocabulary batch_vocab = Vocabulary::Register(&batch_dict);
  BatchReasoner batch(Fragment::RhoDf(batch_vocab), &batch_store);
  ASSERT_TRUE(
      batch.Materialize(ChainGenerator::Generate(25, &batch_dict, batch_vocab))
          .ok());
  // Same dictionaries by construction (vocabulary first, then chain ids).
  EXPECT_EQ(incremental.store().SnapshotSet(), batch_store.SnapshotSet());
}

TEST(ReasonerTest, FlushIsIdempotent) {
  Reasoner reasoner(RhoDfFactory(), QuietOptions());
  TripleVec input =
      ChainGenerator::Generate(10, reasoner.dictionary(), reasoner.vocabulary());
  reasoner.AddTriples(input);
  reasoner.Flush();
  const size_t size = reasoner.store().size();
  reasoner.Flush();
  reasoner.Flush();
  EXPECT_EQ(reasoner.store().size(), size);
}

TEST(ReasonerTest, DuplicateInputIsIgnored) {
  Reasoner reasoner(RhoDfFactory(), QuietOptions());
  Dictionary* dict = reasoner.dictionary();
  const Vocabulary& v = reasoner.vocabulary();
  const TermId a = dict->Encode("<http://ex/A>");
  const TermId b = dict->Encode("<http://ex/B>");
  reasoner.AddTriples({{a, v.sub_class_of, b}});
  reasoner.AddTriples({{a, v.sub_class_of, b}});
  reasoner.Flush();
  EXPECT_EQ(reasoner.explicit_count(), 1u);
  // A duplicate must not even reach the buffers. A subClassOf triple is
  // admitted by SCM-SCO, CAX-SCO and the three universal-input rules — five
  // buffers — exactly once.
  uint64_t accepted = 0;
  for (const auto& s : reasoner.rule_stats()) accepted += s.accepted;
  EXPECT_EQ(accepted, 5u) << "the duplicate insert must not have been routed";
}

TEST(ReasonerTest, ReinferredTriplesAreNotReRouted) {
  // <x type b> can be derived via two paths (through CAX-SCO twice); the
  // distributor must route it only on first derivation.
  Reasoner reasoner(RhoDfFactory(), QuietOptions(1));
  Dictionary* dict = reasoner.dictionary();
  const Vocabulary& v = reasoner.vocabulary();
  const TermId a = dict->Encode("<http://ex/A>");
  const TermId b = dict->Encode("<http://ex/B>");
  const TermId x = dict->Encode("<http://ex/x>");
  reasoner.AddTriples({{a, v.sub_class_of, b},
                       {b, v.sub_class_of, a},  // cycle: a ≡ b
                       {x, v.type, a}});
  reasoner.Flush();
  // Closure: x type a (input), x type b, a sc a, b sc b.
  EXPECT_TRUE(reasoner.store().Contains({x, v.type, b}));
  EXPECT_TRUE(reasoner.store().Contains({a, v.sub_class_of, a}));
  EXPECT_EQ(reasoner.inferred_count(), 3u);
}

TEST(ReasonerTest, AddNTriplesParsesAndInfers) {
  Reasoner reasoner(RhoDfFactory(), QuietOptions(32));
  ASSERT_TRUE(reasoner.AddNTriples(ChainGenerator::GenerateNTriples(20)).ok());
  reasoner.Flush();
  EXPECT_EQ(reasoner.explicit_count(), ChainGenerator::InputSize(20));
  EXPECT_EQ(reasoner.inferred_count(), ChainGenerator::ExpectedRhoDfInferred(20));
}

TEST(ReasonerTest, AddNTriplesRejectsBadSyntaxButKeepsEarlierChunks) {
  Reasoner reasoner(RhoDfFactory(), QuietOptions());
  Status st = reasoner.AddNTriples("<a> <p> <b> .\nbroken\n");
  EXPECT_FALSE(st.ok());
}

TEST(ReasonerTest, RuleStatsAttributeInferencesToRules) {
  Reasoner reasoner(RhoDfFactory(), QuietOptions(4));
  TripleVec input =
      ChainGenerator::Generate(12, reasoner.dictionary(), reasoner.vocabulary());
  reasoner.AddTriples(input);
  reasoner.Flush();
  uint64_t scm_sco_inferred = 0;
  uint64_t executions = 0;
  uint64_t flushes = 0;
  uint64_t full_flushes = 0;
  for (const auto& s : reasoner.rule_stats()) {
    executions += s.executions;
    flushes += s.full_flushes + s.timeout_flushes + s.forced_flushes;
    full_flushes += s.full_flushes;
    if (s.rule_name == "SCM-SCO") scm_sco_inferred = s.inferred_new;
  }
  // On a pure chain, every inference belongs to SCM-SCO.
  EXPECT_EQ(scm_sco_inferred, ChainGenerator::ExpectedRhoDfInferred(12));
  EXPECT_GT(executions, 0u);
  // Every flushed batch is executed once: full buffers on the pool, small
  // Flush() rounds on the caller's thread.
  EXPECT_EQ(executions, flushes);
  EXPECT_GE(reasoner.pool_stats().tasks_executed, full_flushes);
  EXPECT_LE(reasoner.pool_stats().tasks_executed, executions);
}

TEST(ReasonerTest, SmallFlushRoundsRunOnTheCallersThread) {
  Reasoner reasoner(RdfsFactory(), QuietOptions(256));
  Dictionary* dict = reasoner.dictionary();
  const Vocabulary& v = reasoner.vocabulary();
  const TermId a = dict->Encode("<http://ex/A>");
  const TermId b = dict->Encode("<http://ex/B>");
  const TermId c = dict->Encode("<http://ex/C>");
  const TermId x = dict->Encode("<http://ex/x>");
  // A delta far below one buffer, as a single-statement update sends: the
  // whole cascade runs inline and the pool never wakes.
  reasoner.AddTriples(
      {{a, v.sub_class_of, b}, {b, v.sub_class_of, c}, {x, v.type, a}});
  reasoner.Flush();
  EXPECT_EQ(reasoner.pool_stats().tasks_executed, 0u);
  EXPECT_TRUE(reasoner.store().Contains({x, v.type, c}));
  EXPECT_TRUE(reasoner.store().Contains({a, v.sub_class_of, c}));
  uint64_t executions = 0;
  for (const auto& s : reasoner.rule_stats()) executions += s.executions;
  EXPECT_GT(executions, 0u);

  // Retracting a small cone runs its deletion rounds inline too.
  reasoner.Retract({{x, v.type, a}});
  EXPECT_EQ(reasoner.pool_stats().tasks_executed, 0u);
  EXPECT_FALSE(reasoner.store().Contains({x, v.type, c}));

  // A delta of a full buffer or more still goes to the pool, and so does a
  // Flush() round that gathers at least buffer_size triples.
  TripleVec bulk;
  for (int i = 0; i < 256; ++i) {
    bulk.push_back({dict->Encode("<http://ex/y" + std::to_string(i) + ">"),
                    v.type, a});
  }
  reasoner.AddTriples(bulk);
  reasoner.Flush();
  EXPECT_GT(reasoner.pool_stats().tasks_executed, 0u);
  for (const Triple& t : bulk) {
    EXPECT_TRUE(reasoner.store().Contains({t.s, v.type, c}));
  }
}

TEST(ReasonerTest, LargeRoundsUseThePool) {
  // Buffers far larger than any round: only the size of a round sends it
  // to the pool.
  Reasoner reasoner(RdfsFactory(), QuietOptions(1 << 20));
  Dictionary* dict = reasoner.dictionary();
  const Vocabulary& v = reasoner.vocabulary();
  const TermId a = dict->Encode("<http://ex/A>");
  const TermId b = dict->Encode("<http://ex/B>");
  TripleVec instances;
  for (int i = 0; i < 5000; ++i) {
    instances.push_back(
        {dict->Encode("<http://ex/z" + std::to_string(i) + ">"), v.type, a});
  }
  reasoner.AddTriple({a, v.sub_class_of, b});
  reasoner.Flush();
  EXPECT_EQ(reasoner.pool_stats().tasks_executed, 0u);
  // No buffer fills, but the Flush() round holds thousands of triples.
  reasoner.AddTriples(instances);
  reasoner.Flush();
  const uint64_t after_adds = reasoner.pool_stats().tasks_executed;
  EXPECT_GT(after_adds, 0u);
  for (const Triple& t : instances) {
    EXPECT_TRUE(reasoner.store().Contains({t.s, v.type, b}));
  }
  // Retracting the whole population is a deletion round past one chunk.
  reasoner.Retract(instances);
  EXPECT_GT(reasoner.pool_stats().tasks_executed, after_adds);
  for (const Triple& t : instances) {
    EXPECT_FALSE(reasoner.store().Contains({t.s, v.type, b}));
  }
}

TEST(ReasonerTest, TimeoutFlusherDrivesProgressWithoutFlush) {
  // Small input that never fills the big buffers: only the timeout can
  // trigger executions. The closure must still complete without Flush().
  ReasonerOptions options;
  options.buffer_size = 1 << 20;
  options.buffer_timeout = std::chrono::milliseconds(5);
  options.timeout_check_interval = std::chrono::milliseconds(1);
  options.num_threads = 2;
  options.enable_timeout_flusher = true;
  Reasoner reasoner(RhoDfFactory(), options);
  TripleVec input =
      ChainGenerator::Generate(15, reasoner.dictionary(), reasoner.vocabulary());
  reasoner.AddTriples(input);
  const size_t expected = ChainGenerator::ExpectedRhoDfInferred(15);
  // Poll (bounded) until the timeout-driven cascade converges.
  for (int i = 0; i < 2000 && reasoner.inferred_count() < expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(reasoner.inferred_count(), expected);
  uint64_t timeout_flushes = 0;
  for (const auto& s : reasoner.rule_stats()) {
    timeout_flushes += s.timeout_flushes;
  }
  EXPECT_GT(timeout_flushes, 0u);
}

TEST(ReasonerTest, DestructorCompletesOutstandingWork) {
  Dictionary probe_dict;
  const Vocabulary probe_vocab = Vocabulary::Register(&probe_dict);
  TripleVec input = ChainGenerator::Generate(20, &probe_dict, probe_vocab);
  size_t closure_size = 0;
  {
    Reasoner reasoner(RhoDfFactory(), QuietOptions(64));
    reasoner.AddTriples(input);
    // No Flush(): the destructor must drain buffers itself.
    // (Reading the size afterwards is impossible, so observe via a second
    // run below.)
  }
  {
    Reasoner reasoner(RhoDfFactory(), QuietOptions(64));
    reasoner.AddTriples(input);
    reasoner.Flush();
    closure_size = reasoner.store().size();
  }
  EXPECT_EQ(closure_size,
            ChainGenerator::InputSize(20) + ChainGenerator::ExpectedRhoDfInferred(20));
}

TEST(ReasonerTest, ConcurrentProducersReachSameClosure) {
  // Multiple threads feed interleaved slices — the streamed multi-source
  // scenario ("parallelisation of parsing and reasoning on multiple data
  // sources at the same time", §1).
  ReasonerOptions options;
  options.buffer_size = 8;
  options.num_threads = 4;
  options.buffer_timeout = std::chrono::milliseconds(5);
  Reasoner reasoner(RhoDfFactory(), options);
  TripleVec input =
      ChainGenerator::Generate(40, reasoner.dictionary(), reasoner.vocabulary());
  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = static_cast<size_t>(p); i < input.size(); i += kProducers) {
        reasoner.AddTriple(input[i]);
      }
    });
  }
  for (auto& t : producers) t.join();
  reasoner.Flush();
  EXPECT_EQ(reasoner.explicit_count(), ChainGenerator::InputSize(40));
  EXPECT_EQ(reasoner.inferred_count(), ChainGenerator::ExpectedRhoDfInferred(40));
}

TEST(ReasonerTest, ClosureSizeInvariantAcrossBufferSizesViaParsePath) {
  // Through AddNTriples, parsing interleaves with inference, so whether a
  // triple counts as explicit or inferred can race (a rule may derive a
  // triple before its explicit copy is parsed). The CLOSURE must not
  // depend on that: store size is invariant across configurations.
  const std::string doc = ChainGenerator::GenerateNTriples(60);
  size_t reference = 0;
  for (size_t buffer : {1u, 16u, 4096u}) {
    ReasonerOptions options;
    options.buffer_size = buffer;
    options.num_threads = 3;
    options.buffer_timeout = std::chrono::milliseconds(1);
    options.timeout_check_interval = std::chrono::milliseconds(1);
    Reasoner reasoner(RhoDfFactory(), options);
    ASSERT_TRUE(reasoner.AddNTriples(doc).ok());
    reasoner.Flush();
    if (reference == 0) {
      reference = reasoner.store().size();
      EXPECT_EQ(reference, ChainGenerator::InputSize(60) +
                               ChainGenerator::ExpectedRhoDfInferred(60));
    } else {
      EXPECT_EQ(reasoner.store().size(), reference) << "buffer=" << buffer;
    }
    // Attribution may shift, but the sum is exact.
    EXPECT_EQ(reasoner.explicit_count() + reasoner.inferred_count(), reference);
  }
}

TEST(ReasonerTest, TraceRecordsLifecycleEvents) {
  InferenceTrace trace;
  ReasonerOptions options = QuietOptions(4);
  options.trace = &trace;
  {
    Reasoner reasoner(RhoDfFactory(), options);
    TripleVec input = ChainGenerator::Generate(10, reasoner.dictionary(),
                                               reasoner.vocabulary());
    reasoner.AddTriples(input);
    reasoner.Flush();
  }
  auto events = trace.Snapshot();
  ASSERT_FALSE(events.empty());
  bool saw_input = false, saw_exec = false, saw_inferred = false;
  for (const auto& e : events) {
    saw_input |= e.type == TraceEventType::kInput;
    saw_exec |= e.type == TraceEventType::kRuleExecuted;
    saw_inferred |= e.type == TraceEventType::kInferred;
  }
  EXPECT_TRUE(saw_input);
  EXPECT_TRUE(saw_exec);
  EXPECT_TRUE(saw_inferred);
  // Aggregates attribute all chain inferences to SCM-SCO.
  auto agg = trace.Aggregate();
  EXPECT_EQ(agg["SCM-SCO"].inferred, ChainGenerator::ExpectedRhoDfInferred(10));
}

}  // namespace
}  // namespace slider
