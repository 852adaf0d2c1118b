// Concurrency contract of the tabled backward path (ISSUE 7): SELECT
// sessions over a kOnDemand repository chain backward and fill/read answer
// tables while update sessions add and retract statements, each delta
// invalidating affected tables and bumping the tabling generation. Run
// under TSan in CI: the interesting part is fillers racing invalidations
// (the generation handshake in TablingCache::Store), concurrent LRU
// mutation under the cache mutex, and route-memo reads racing the
// schema-delta memo flush — all while readers traverse store versions the
// updaters concurrently grow and erase from.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "query/endpoint.h"
#include "reason/repository.h"
#include "reason/rules_owl.h"

namespace slider {
namespace {

TEST(TablingContentionTest, TabledSelectsRunAgainstAddRetractSessions) {
  Repository::Options options;
  options.inference = Repository::InferenceMode::kOnDemand;
  auto opened = Repository::Open(RhoDfFactory(), options);
  ASSERT_TRUE(opened.ok());
  Repository* repo = opened->get();
  SparqlEndpoint endpoint(repo);

  // Static schema: a subclass hop and a subproperty fold, so the readers'
  // type and membership queries really chain (and their tables really
  // depend on the instance deltas below).
  ASSERT_TRUE(endpoint
                  .Update(
                      "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
                      "PREFIX ex: <http://ex/>\n"
                      "INSERT DATA { ex:Worker rdfs:subClassOf ex:Agent . "
                      "ex:drafts rdfs:subPropertyOf ex:writes }")
                  .ok());

  constexpr int kUpdaters = 2;
  constexpr int kReaders = 2;
  constexpr int kRounds = 60;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> select_errors{0};
  std::atomic<uint64_t> update_errors{0};

  std::vector<std::thread> threads;
  // Updater u churns its own subject range: memberships and ex:drafts
  // edges in, every third one retracted again — instance deltas that must
  // drop exactly the type/ex:writes tables the readers keep refilling.
  for (int u = 0; u < kUpdaters; ++u) {
    threads.emplace_back([&endpoint, &update_errors, u] {
      const std::string prefix = "PREFIX ex: <http://ex/>\n";
      for (int i = 0; i < kRounds; ++i) {
        const std::string subject =
            "ex:w" + std::to_string(u) + "_" + std::to_string(i);
        if (!endpoint
                 .Update(prefix + "INSERT DATA { " + subject +
                         " a ex:Worker . " + subject + " ex:drafts ex:doc" +
                         std::to_string(i) + " }")
                 .ok()) {
          update_errors.fetch_add(1);
        }
        if (i % 3 == 0) {
          if (!endpoint
                   .Update(prefix + "DELETE WHERE { " + subject + " ?p ?o }")
                   .ok()) {
            update_errors.fetch_add(1);
          }
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&endpoint, &stop, &select_errors] {
      const char* queries[] = {
          // Backward routes: type expansion and the subproperty fold.
          "PREFIX ex: <http://ex/>\nSELECT ?x WHERE { ?x a ex:Agent }",
          "PREFIX ex: <http://ex/>\nSELECT ?x ?d WHERE "
          "{ ?x ex:writes ?d }",
          "PREFIX ex: <http://ex/>\n"
          "SELECT DISTINCT ?x WHERE { ?x a ex:Worker . ?x ex:writes ?d }",
          // Forward route: ex:drafts has no sub-properties.
          "PREFIX ex: <http://ex/>\nSELECT ?x WHERE { ?x ex:drafts ?d }",
      };
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto rows = endpoint.Select(queries[i++ % 4]);
        if (!rows.ok()) select_errors.fetch_add(1);
      }
    });
  }
  for (int u = 0; u < kUpdaters; ++u) threads[static_cast<size_t>(u)].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kUpdaters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(update_errors.load(), 0u);
  EXPECT_EQ(select_errors.load(), 0u);

  // Quiesced: exactly the never-deleted subjects remain, each an Agent
  // through the subclass hop and a writer through the subproperty fold —
  // any stale table the churn left admitted would corrupt these counts.
  size_t expected = 0;
  for (int i = 0; i < kRounds; ++i) {
    if (i % 3 != 0) expected += kUpdaters;
  }
  for (const char* query :
       {"PREFIX ex: <http://ex/>\nSELECT ?x WHERE { ?x a ex:Agent }",
        "PREFIX ex: <http://ex/>\nSELECT ?x WHERE { ?x ex:writes ?d }"}) {
    auto rows = endpoint.Select(query);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->rows.size(), expected) << query;
  }

  // The store never materialized anything, and the tabled path really ran.
  EXPECT_EQ(repo->inferred_count(), 0u);
  const HybridProvider* hybrid = repo->hybrid_provider();
  ASSERT_NE(hybrid, nullptr);
  const TablingCache::Stats stats = hybrid->tables().stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(hybrid->tables().generation(), 0u);
  EXPECT_GT(hybrid->route_stats().backward, 0u);
}

TEST(TablingContentionTest, OwlRuleSetSelectsRunAgainstAddRetractSessions) {
  // Same concurrency contract, but over the OWL extension rule set: the
  // rule-driven chainer answers symmetric flips, transitive hops and
  // inverse-derived edges on demand, so its tables depend on instance
  // deltas through clauses the ρdf invalidation logic never saw.
  Repository::Options options;
  options.inference = Repository::InferenceMode::kOnDemand;
  auto opened = Repository::Open(OwlLiteFactory(), options);
  ASSERT_TRUE(opened.ok());
  Repository* repo = opened->get();
  SparqlEndpoint endpoint(repo);

  // Static schema: one declaration per extension shape. ex:parentOf never
  // gets explicit triples — every answer to it is inverse-derived.
  ASSERT_TRUE(endpoint
                  .Update("PREFIX owl: <http://www.w3.org/2002/07/owl#>\n"
                          "PREFIX ex: <http://ex/>\n"
                          "INSERT DATA { ex:knows a owl:SymmetricProperty . "
                          "ex:partOf a owl:TransitiveProperty . "
                          "ex:childOf owl:inverseOf ex:parentOf }")
                  .ok());

  constexpr int kUpdaters = 2;
  constexpr int kReaders = 2;
  constexpr int kRounds = 60;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> select_errors{0};
  std::atomic<uint64_t> update_errors{0};

  std::vector<std::thread> threads;
  // Updater u churns one symmetric edge, one link of an updater-local
  // partOf chain and one childOf edge per round; every third round's
  // subjects are retracted again, cutting the chain and dropping the
  // derived flips/inverses with them.
  for (int u = 0; u < kUpdaters; ++u) {
    threads.emplace_back([&endpoint, &update_errors, u] {
      const std::string prefix = "PREFIX ex: <http://ex/>\n";
      const std::string tag = std::to_string(u) + "_";
      for (int i = 0; i < kRounds; ++i) {
        const std::string n = std::to_string(i);
        if (!endpoint
                 .Update(prefix + "INSERT DATA { ex:p" + tag + n +
                         " ex:knows ex:q" + n + " . ex:a" + tag + n +
                         " ex:partOf ex:a" + tag + std::to_string(i + 1) +
                         " . ex:k" + tag + n + " ex:childOf ex:par" + tag +
                         n + " }")
                 .ok()) {
          update_errors.fetch_add(1);
        }
        if (i % 3 == 0) {
          for (const char* stem : {"ex:p", "ex:a", "ex:k"}) {
            if (!endpoint
                     .Update(prefix + "DELETE WHERE { " + stem + tag + n +
                             " ?p ?o }")
                     .ok()) {
              update_errors.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&endpoint, &stop, &select_errors] {
      const char* queries[] = {
          // Backward routes through the three extension clause shapes.
          "PREFIX ex: <http://ex/>\nSELECT ?a ?b WHERE { ?a ex:knows ?b }",
          "PREFIX ex: <http://ex/>\nSELECT ?x ?y WHERE { ?x ex:partOf ?y }",
          "PREFIX ex: <http://ex/>\nSELECT ?x ?y WHERE { ?x ex:parentOf ?y }",
          // Forward route: ex:childOf's own partition is explicit.
          "PREFIX ex: <http://ex/>\nSELECT ?x ?y WHERE { ?x ex:childOf ?y }",
      };
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto rows = endpoint.Select(queries[i++ % 4]);
        if (!rows.ok()) select_errors.fetch_add(1);
      }
    });
  }
  for (int u = 0; u < kUpdaters; ++u) threads[static_cast<size_t>(u)].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kUpdaters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(update_errors.load(), 0u);
  EXPECT_EQ(select_errors.load(), 0u);

  // Quiesced expectations. Survivors are the rounds with i % 3 != 0: 40 per
  // updater. knows: every surviving edge plus its symmetric flip. partOf:
  // the deletions leave runs a_{3k+1} → a_{3k+2} → a_{3k+3}, each worth two
  // explicit edges and one transitive hop. parentOf: one inverse-derived
  // edge per surviving childOf assertion.
  size_t survivors = 0;
  for (int i = 0; i < kRounds; ++i) {
    if (i % 3 != 0) survivors += kUpdaters;
  }
  const size_t runs = kUpdaters * (kRounds / 3);
  const struct {
    const char* query;
    size_t expected;
  } checks[] = {
      {"PREFIX ex: <http://ex/>\nSELECT ?a ?b WHERE { ?a ex:knows ?b }",
       2 * survivors},
      {"PREFIX ex: <http://ex/>\nSELECT ?x ?y WHERE { ?x ex:partOf ?y }",
       3 * runs},
      {"PREFIX ex: <http://ex/>\nSELECT ?x ?y WHERE { ?x ex:parentOf ?y }",
       survivors},
  };
  for (const auto& check : checks) {
    auto rows = endpoint.Select(check.query);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->rows.size(), check.expected) << check.query;
  }

  EXPECT_EQ(repo->inferred_count(), 0u);
  const HybridProvider* hybrid = repo->hybrid_provider();
  ASSERT_NE(hybrid, nullptr);
  EXPECT_GT(hybrid->tables().stats().misses, 0u);
  EXPECT_GT(hybrid->tables().generation(), 0u);
  EXPECT_GT(hybrid->route_stats().backward, 0u);
}

}  // namespace
}  // namespace slider
