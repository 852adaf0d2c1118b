#include "store/triple_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

namespace slider {
namespace {

TEST(TripleStoreTest, AddReportsNewness) {
  TripleStore store;
  EXPECT_TRUE(store.Add({1, 2, 3}));
  EXPECT_FALSE(store.Add({1, 2, 3}));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().insert_attempts, 2u);
  EXPECT_EQ(store.stats().duplicates_rejected, 1u);
}

TEST(TripleStoreTest, AddAllReturnsDelta) {
  TripleStore store;
  store.Add({1, 2, 3});
  TripleVec batch = {{1, 2, 3}, {4, 2, 5}, {4, 2, 5}, {6, 7, 8}};
  TripleVec delta;
  const size_t added = store.AddAll(batch, &delta);
  EXPECT_EQ(added, 2u);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0], Triple(4, 2, 5));
  EXPECT_EQ(delta[1], Triple(6, 7, 8));
  EXPECT_EQ(store.size(), 3u);
}

TEST(TripleStoreTest, RejectsWildcardComponents) {
  // Id 0 is the pattern wildcard and the flat-hash empty-slot sentinel; a
  // triple carrying it must bounce off the public API without touching the
  // tables (this must hold in release builds, where asserts are gone).
  TripleStore store;
  EXPECT_FALSE(store.Add({kAnyTerm, 2, 3}));
  EXPECT_FALSE(store.Add({1, kAnyTerm, 3}));
  EXPECT_FALSE(store.Add({1, 2, kAnyTerm}));
  TripleVec delta;
  EXPECT_EQ(store.AddAll({{kAnyTerm, 2, 3}, {4, 5, 6}}, &delta), 1u);
  EXPECT_EQ(delta, (TripleVec{{4, 5, 6}}));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.Contains({kAnyTerm, 2, 3}));
  EXPECT_EQ(store.stats().insert_attempts, 1u);  // only the valid offer
  // Subsequent valid inserts are unaffected by the rejected ones.
  EXPECT_TRUE(store.Add({7, 2, 3}));
  EXPECT_TRUE(store.Contains({7, 2, 3}));
}

TEST(TripleStoreTest, ContainsExactTriples) {
  TripleStore store;
  store.Add({1, 2, 3});
  EXPECT_TRUE(store.Contains({1, 2, 3}));
  EXPECT_FALSE(store.Contains({3, 2, 1}));
  EXPECT_FALSE(store.Contains({1, 2, 4}));
}

TEST(TripleStoreTest, PredicatesAndCounts) {
  TripleStore store;
  store.Add({1, 10, 2});
  store.Add({1, 10, 3});
  store.Add({1, 20, 2});
  EXPECT_EQ(store.NumPredicates(), 2u);
  EXPECT_EQ(store.CountWithPredicate(10), 2u);
  EXPECT_EQ(store.CountWithPredicate(20), 1u);
  EXPECT_EQ(store.CountWithPredicate(99), 0u);
  auto preds = store.Predicates();
  std::sort(preds.begin(), preds.end());
  EXPECT_EQ(preds, (std::vector<TermId>{10, 20}));
}

TEST(TripleStoreTest, ForEachWithPredicateVisitsAllPairs) {
  TripleStore store;
  store.Add({1, 10, 2});
  store.Add({3, 10, 4});
  store.Add({5, 20, 6});
  TripleVec seen;
  store.ForEachWithPredicate(10, [&](TermId s, TermId o) {
    seen.push_back({s, 10, o});
  });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (TripleVec{{1, 10, 2}, {3, 10, 4}}));
}

TEST(TripleStoreTest, ForEachObjectAndSubject) {
  TripleStore store;
  store.Add({1, 10, 2});
  store.Add({1, 10, 3});
  store.Add({4, 10, 2});
  std::vector<TermId> objects;
  store.ForEachObject(10, 1, [&](TermId o) { objects.push_back(o); });
  std::sort(objects.begin(), objects.end());
  EXPECT_EQ(objects, (std::vector<TermId>{2, 3}));

  std::vector<TermId> subjects;
  store.ForEachSubject(10, 2, [&](TermId s) { subjects.push_back(s); });
  std::sort(subjects.begin(), subjects.end());
  EXPECT_EQ(subjects, (std::vector<TermId>{1, 4}));
}

TEST(TripleStoreTest, MatchDispatchesOnBoundPositions) {
  TripleStore store;
  store.Add({1, 10, 2});
  store.Add({1, 10, 3});
  store.Add({4, 10, 2});
  store.Add({1, 20, 2});

  // (s, p, ?)
  auto m1 = store.Match({1, 10, kAnyTerm});
  EXPECT_EQ(m1.size(), 2u);
  // (?, p, o)
  auto m2 = store.Match({kAnyTerm, 10, 2});
  EXPECT_EQ(m2.size(), 2u);
  // (s, p, o) exact
  auto m3 = store.Match({1, 10, 2});
  ASSERT_EQ(m3.size(), 1u);
  EXPECT_EQ(m3[0], Triple(1, 10, 2));
  // (?, p, ?)
  auto m4 = store.Match({kAnyTerm, 10, kAnyTerm});
  EXPECT_EQ(m4.size(), 3u);
  // (?, ?, ?) full scan
  auto m5 = store.Match({kAnyTerm, kAnyTerm, kAnyTerm});
  EXPECT_EQ(m5.size(), 4u);
  // (s, ?, ?) scan with subject filter
  auto m6 = store.Match({1, kAnyTerm, kAnyTerm});
  EXPECT_EQ(m6.size(), 3u);
  // No match
  auto m7 = store.Match({9, 10, kAnyTerm});
  EXPECT_TRUE(m7.empty());
}

TEST(TripleStoreTest, MatchOnSubjectAndObjectWithoutPredicate) {
  TripleStore store;
  store.Add({1, 10, 2});
  store.Add({1, 20, 2});
  store.Add({1, 30, 3});
  auto m = store.Match({1, kAnyTerm, 2});
  EXPECT_EQ(m.size(), 2u);
}

TEST(TripleStoreTest, SnapshotMatchesContents) {
  TripleStore store;
  store.Add({1, 2, 3});
  store.Add({4, 5, 6});
  auto snapshot = store.Snapshot();
  EXPECT_EQ(snapshot.size(), 2u);
  auto set = store.SnapshotSet();
  EXPECT_TRUE(set.count({1, 2, 3}));
  EXPECT_TRUE(set.count({4, 5, 6}));
}

TEST(TripleStoreTest, EmptyStoreBehaves) {
  TripleStore store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.NumPredicates(), 0u);
  EXPECT_TRUE(store.Snapshot().empty());
  EXPECT_TRUE(store.Match({kAnyTerm, kAnyTerm, kAnyTerm}).empty());
  int visits = 0;
  store.ForEachWithPredicate(1, [&](TermId, TermId) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(TripleStoreTest, EraseRemovesFromEveryIndex) {
  TripleStore store;
  store.Add({1, 2, 3});
  store.Add({1, 2, 4});
  store.Add({5, 2, 3});
  ASSERT_TRUE(store.Erase({1, 2, 3}));
  EXPECT_FALSE(store.Erase({1, 2, 3}));  // second offer finds nothing
  EXPECT_FALSE(store.Contains({1, 2, 3}));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.CountWithPredicate(2), 2u);
  // Forward index no longer serves the ghost …
  size_t objects = 0;
  store.ForEachObject(2, 1, [&](TermId o) {
    EXPECT_EQ(o, 4u);
    ++objects;
  });
  EXPECT_EQ(objects, 1u);
  // … and neither does the by_object mirror.
  size_t subjects = 0;
  store.ForEachSubject(2, 3, [&](TermId s) {
    EXPECT_EQ(s, 5u);
    ++subjects;
  });
  EXPECT_EQ(subjects, 1u);
  const auto stats = store.stats();
  EXPECT_EQ(stats.erase_attempts, 2u);
  EXPECT_EQ(stats.erased, 1u);
}

TEST(TripleStoreTest, ErasingLastTripleDropsThePartition) {
  TripleStore store;
  store.Add({1, 9, 2});
  ASSERT_EQ(store.NumPredicates(), 1u);
  ASSERT_TRUE(store.Erase({1, 9, 2}));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.NumPredicates(), 0u);
  EXPECT_TRUE(store.Predicates().empty());
  EXPECT_EQ(store.CountWithPredicate(9), 0u);
  // The store stays usable after the partition died.
  EXPECT_TRUE(store.Add({1, 9, 2}));
  EXPECT_EQ(store.NumPredicates(), 1u);
}

TEST(TripleStoreTest, EraseAllReportsTheErasedSubset) {
  TripleStore store;
  store.AddAll({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}, nullptr);
  TripleVec erased;
  EXPECT_EQ(store.EraseAll({{1, 2, 3}, {9, 9, 9}, {7, 8, 9}}, &erased), 2u);
  EXPECT_EQ(erased, (TripleVec{{1, 2, 3}, {7, 8, 9}}));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.Erase({0, 5, 6}));  // wildcard components never stored
}

TEST(TripleStoreTest, SupportFlagsTrackExplicitPopulation) {
  TripleStore store;
  EXPECT_TRUE(store.Add({1, 2, 3}, /*is_explicit=*/true));
  EXPECT_TRUE(store.Add({1, 2, 4}, /*is_explicit=*/false));
  EXPECT_TRUE(store.IsExplicit({1, 2, 3}));
  EXPECT_FALSE(store.IsExplicit({1, 2, 4}));
  EXPECT_FALSE(store.IsExplicit({9, 9, 9}));
  EXPECT_EQ(store.ExplicitCount(), 1u);

  // Duplicate explicit offer promotes; the promoted triple is reported.
  TripleVec promoted;
  EXPECT_EQ(store.AddAll({{1, 2, 4}}, nullptr, /*is_explicit=*/true,
                         &promoted),
            0u);
  EXPECT_EQ(promoted, (TripleVec{{1, 2, 4}}));
  EXPECT_TRUE(store.IsExplicit({1, 2, 4}));
  EXPECT_EQ(store.ExplicitCount(), 2u);
  // An inferred re-offer never demotes.
  EXPECT_FALSE(store.Add({1, 2, 4}, /*is_explicit=*/false));
  EXPECT_TRUE(store.IsExplicit({1, 2, 4}));

  // SetSupport flips both ways, keeps the counter in step, and reports
  // absence.
  EXPECT_EQ(store.SetSupport({1, 2, 3}, false), 1);
  EXPECT_EQ(store.SetSupport({1, 2, 3}, false), 0);
  EXPECT_EQ(store.SetSupport({9, 9, 9}, true), -1);
  EXPECT_EQ(store.ExplicitCount(), 1u);

  // Erase of an explicit triple decrements the explicit population.
  EXPECT_TRUE(store.Erase({1, 2, 4}));
  EXPECT_EQ(store.ExplicitCount(), 0u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(TripleStoreTest, ExistenceProbesTrackErase) {
  TripleStore store;
  EXPECT_FALSE(store.AnyWithSubject(1));
  EXPECT_FALSE(store.AnyWithObject(3));
  EXPECT_FALSE(store.AnyWithSubject(kAnyTerm));
  store.Add({1, 2, 3});
  store.Add({1, 4, 5});
  EXPECT_TRUE(store.AnyWithSubject(1));
  EXPECT_TRUE(store.AnyWithObject(3));
  EXPECT_TRUE(store.AnyWithObject(5));
  EXPECT_FALSE(store.AnyWithSubject(3));  // 3 only occurs as an object
  ASSERT_TRUE(store.Erase({1, 2, 3}));
  EXPECT_TRUE(store.AnyWithSubject(1));   // still subject of <1 4 5>
  EXPECT_FALSE(store.AnyWithObject(3));   // emptied row was dropped
  ASSERT_TRUE(store.Erase({1, 4, 5}));
  EXPECT_FALSE(store.AnyWithSubject(1));
}

TEST(TripleStoreTest, EraseAndReinsertAcrossSpilledRows) {
  // Grow one (predicate, subject) row far past the spill threshold, erase
  // most of it (forcing tombstone compaction), and verify membership,
  // iteration and re-insert all stay exact.
  TripleStore store;
  constexpr TermId kSubject = 1, kPredicate = 2;
  constexpr uint64_t kCount = 300;
  for (uint64_t o = 10; o < 10 + kCount; ++o) {
    ASSERT_TRUE(store.Add({kSubject, kPredicate, o}));
  }
  for (uint64_t o = 10; o < 10 + kCount - 20; ++o) {
    ASSERT_TRUE(store.Erase({kSubject, kPredicate, o}));
  }
  EXPECT_EQ(store.size(), 20u);
  std::vector<TermId> remaining;
  store.ForEachObject(kPredicate, kSubject,
                      [&](TermId o) { remaining.push_back(o); });
  ASSERT_EQ(remaining.size(), 20u);
  for (size_t i = 0; i < remaining.size(); ++i) {
    EXPECT_EQ(remaining[i], 10 + kCount - 20 + i);  // insertion order kept
  }
  for (uint64_t o = 10; o < 10 + kCount - 20; ++o) {
    ASSERT_TRUE(store.Add({kSubject, kPredicate, o}));
  }
  EXPECT_EQ(store.size(), kCount);
  EXPECT_EQ(store.CountWithPredicate(kPredicate), kCount);
}

TEST(TripleStoreTest, ConcurrentWritersProduceConsistentStore) {
  TripleStore store;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Half the triples collide across threads, half are unique.
        if (i % 2 == 0) {
          store.Add({static_cast<TermId>(i + 1), 7, 9});
        } else {
          store.Add({static_cast<TermId>(t * kPerThread + i + 1), 8, 9});
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Shared triples deduplicate to kPerThread/2; unique ones all survive.
  EXPECT_EQ(store.CountWithPredicate(7), static_cast<size_t>(kPerThread / 2));
  EXPECT_EQ(store.CountWithPredicate(8),
            static_cast<size_t>(kThreads * kPerThread / 2));
}

TEST(TripleStoreTest, ConcurrentReadersDuringWrites) {
  TripleStore store;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (TermId i = 1; i <= 20000; ++i) {
      store.Add({i, 5, i + 1});
    }
    stop = true;
  });
  size_t last = 0;
  while (!stop) {
    size_t seen = 0;
    store.ForEachWithPredicate(5, [&](TermId, TermId) { ++seen; });
    EXPECT_GE(seen, last);  // monotone growth, no torn reads
    last = seen;
  }
  writer.join();
  EXPECT_EQ(store.CountWithPredicate(5), 20000u);
}

}  // namespace
}  // namespace slider
