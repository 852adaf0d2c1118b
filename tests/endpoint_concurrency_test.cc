// Concurrency contract of the SPARQL endpoint: SELECT sessions run
// lock-free against pinned store views while update sessions (serialized by
// the endpoint) stream INSERT DATA / DELETE WHERE through the embedded
// incremental engine — inserts through the buffered rule pipeline, deletes
// through the DRed phases. Run under TSan in CI: the interesting part is
// readers traversing index versions that updaters concurrently grow, erase
// from and compact, plus the statement-log mutex under parallel rule tasks.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/coalescer.h"
#include "query/endpoint.h"
#include "reason/repository.h"

namespace slider {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(EndpointConcurrencyTest, SelectsRunAgainstConcurrentUpdateSessions) {
  // Storage on: the updaters' rule tasks append to the statement log from
  // pool threads, exercising the log mutex alongside the store churn.
  Repository::Options options;
  options.storage_dir = FreshDir("endpoint_concurrency");
  options.inference = Repository::InferenceMode::kIncremental;
  auto opened = Repository::Open(RhoDfFactory(), options);
  ASSERT_TRUE(opened.ok());
  Repository* repo = opened->get();
  SparqlEndpoint endpoint(repo);

  // Static schema: one subclass hop, so every membership insert derives.
  ASSERT_TRUE(endpoint
                  .Update(
                      "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
                      "PREFIX ex: <http://ex/>\n"
                      "INSERT DATA { ex:Worker rdfs:subClassOf ex:Agent }")
                  .ok());

  constexpr int kUpdaters = 2;
  constexpr int kReaders = 2;
  constexpr int kRounds = 60;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> select_errors{0};
  std::atomic<uint64_t> update_errors{0};

  std::vector<std::thread> threads;
  // Updater u inserts memberships in its own subject range and deletes
  // every third one again, so the final population is deterministic.
  for (int u = 0; u < kUpdaters; ++u) {
    threads.emplace_back([&endpoint, &update_errors, u] {
      const std::string prefix = "PREFIX ex: <http://ex/>\n";
      for (int i = 0; i < kRounds; ++i) {
        const std::string subject =
            "ex:w" + std::to_string(u) + "_" + std::to_string(i);
        if (!endpoint
                 .Update(prefix + "INSERT DATA { " + subject +
                         " a ex:Worker }")
                 .ok()) {
          update_errors.fetch_add(1);
        }
        if (i % 3 == 0) {
          if (!endpoint
                   .Update(prefix + "DELETE WHERE { " + subject + " a ?t }")
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
          "PREFIX ex: <http://ex/>\nSELECT ?x WHERE { ?x a ex:Agent }",
          "PREFIX ex: <http://ex/>\n"
          "SELECT DISTINCT ?x WHERE { ?x a ex:Worker . ?x a ex:Agent }",
          "SELECT ?x WHERE { ?x a <http://ex/Never> }",  // unsatisfiable
          "SELECT * WHERE { ?s ?p ?o } LIMIT 5",
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

  // Quiesced: exactly the never-deleted subjects remain, each of them an
  // Agent through the subclass hop.
  size_t expected = 0;
  for (int i = 0; i < kRounds; ++i) {
    if (i % 3 != 0) expected += kUpdaters;
  }
  auto workers = endpoint.Select(
      "PREFIX ex: <http://ex/>\nSELECT ?x WHERE { ?x a ex:Worker }");
  ASSERT_TRUE(workers.ok());
  EXPECT_EQ(workers->rows.size(), expected);
  auto agents = endpoint.Select(
      "PREFIX ex: <http://ex/>\nSELECT ?x WHERE { ?x a ex:Agent }");
  ASSERT_TRUE(agents.ok());
  EXPECT_EQ(agents->rows.size(), expected);

  // The journal replays to the same closure the sessions left behind.
  ASSERT_TRUE(repo->Checkpoint().ok());
  const TripleSet before = repo->store().SnapshotSet();
  opened->reset();  // release the log before reopening it
  auto recovered = Repository::Recover(RhoDfFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().SnapshotSet(), before);
}

TEST(EndpointConcurrencyTest, PlanCacheServesRacingSelectsAndReplans) {
  // Readers hammer a small query set so most requests hit the plan LRU and
  // share one immutable PlanEntry; a lone updater keeps bumping the plan
  // generation so hits race replans racing misses. Row counts are checked
  // live against closed bounds — a stale plan may be mid-flight, but reuse
  // must never corrupt a result.
  Repository::Options options;
  options.inference = Repository::InferenceMode::kIncremental;
  auto opened = Repository::Open(RhoDfFactory(), options);
  ASSERT_TRUE(opened.ok());
  SparqlEndpoint endpoint(opened->get(), /*plan_cache_capacity=*/8);

  ASSERT_TRUE(endpoint
                  .Update(
                      "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
                      "PREFIX ex: <http://ex/>\n"
                      "INSERT DATA { ex:Worker rdfs:subClassOf ex:Agent }")
                  .ok());

  constexpr int kReaders = 4;
  constexpr int kInserts = 120;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> select_errors{0};
  std::atomic<uint64_t> bound_violations{0};

  std::vector<std::thread> threads;
  threads.emplace_back([&endpoint] {
    const std::string prefix = "PREFIX ex: <http://ex/>\n";
    for (int i = 0; i < kInserts; ++i) {
      ASSERT_TRUE(endpoint
                      .Update(prefix + "INSERT DATA { ex:w" +
                              std::to_string(i) + " a ex:Worker }")
                      .ok());
    }
  });
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&endpoint, &stop, &select_errors,
                          &bound_violations] {
      const char* queries[] = {
          "PREFIX ex: <http://ex/>\nSELECT ?x WHERE { ?x a ex:Worker }",
          "PREFIX ex: <http://ex/>\n"
          "SELECT DISTINCT ?x WHERE { ?x a ex:Worker . ?x a ex:Agent }",
          "PREFIX ex: <http://ex/>\nSELECT ?x WHERE { ?x a ex:Agent }",
      };
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto rows = endpoint.Select(queries[i++ % 3]);
        if (!rows.ok()) {
          select_errors.fetch_add(1);
        } else if (rows->rows.size() > static_cast<size_t>(kInserts)) {
          bound_violations.fetch_add(1);
        }
      }
    });
  }
  threads[0].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = 1; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(select_errors.load(), 0u);
  EXPECT_EQ(bound_violations.load(), 0u);

  const auto stats = endpoint.stats();
  EXPECT_GT(stats.plan_hits + stats.plan_replans, 0u);
  EXPECT_GE(stats.plan_misses, 3u);  // three distinct query texts
  EXPECT_LE(endpoint.plan_cache_size(), 8u);

  // Quiesced: the cached plans answer exactly like a fresh endpoint.
  auto cached = endpoint.Select(
      "PREFIX ex: <http://ex/>\nSELECT ?x WHERE { ?x a ex:Worker }");
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->rows.size(), static_cast<size_t>(kInserts));
}

TEST(EndpointConcurrencyTest, ConcurrentUpdateSessionsSerializeCleanly) {
  Repository::Options options;
  options.inference = Repository::InferenceMode::kIncremental;
  auto opened = Repository::Open(RhoDfFactory(), options);
  ASSERT_TRUE(opened.ok());
  SparqlEndpoint endpoint(opened->get());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&endpoint, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string subject =
            "<http://ex/s" + std::to_string(t) + "_" + std::to_string(i) + ">";
        ASSERT_TRUE(endpoint
                        .Update("INSERT DATA { " + subject +
                                " <http://ex/p> <http://ex/o> }")
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(endpoint.stats().updates,
            static_cast<uint64_t>(kThreads * kPerThread));
  auto rows = endpoint.Select(
      "SELECT ?s WHERE { ?s <http://ex/p> <http://ex/o> }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(EndpointConcurrencyTest, CoalescedNewTermsSurviveRecover) {
  // Sessions insert never-seen IRIs through the coalescer, which parses
  // outside the update lock: ids are bound concurrently, out of order, and
  // some while another batch executes. Whatever the interleaving, every id
  // a stored statement uses must be journaled before that statement, so a
  // Recover — from the snapshot plus a tail of fresh terms — decodes them
  // all.
  Repository::Options options;
  options.storage_dir = FreshDir("endpoint_new_terms");
  options.inference = Repository::InferenceMode::kIncremental;
  auto opened = Repository::Open(RhoDfFactory(), options);
  ASSERT_TRUE(opened.ok());
  Repository* repo = opened->get();

  constexpr int kSessions = 4;
  constexpr int kPerSession = 25;
  std::set<std::string> live;
  {
    SparqlEndpoint endpoint(repo);
    net::UpdateCoalescer coalescer(&endpoint);
    std::atomic<uint64_t> errors{0};
    const auto run_sessions = [&](int phase) {
      std::vector<std::thread> sessions;
      for (int t = 0; t < kSessions; ++t) {
        sessions.emplace_back([&coalescer, &errors, phase, t] {
          for (int i = 0; i < kPerSession; ++i) {
            const std::string tag = std::to_string(phase) + "_" +
                                    std::to_string(t) + "_" +
                                    std::to_string(i);
            const std::string update =
                "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
                "INSERT DATA { <http://new/x" + tag + "> a <http://new/C" +
                tag + "> . <http://new/C" + tag +
                "> rdfs:subClassOf <http://new/Top" + std::to_string(phase) +
                "> }";
            if (!coalescer.Execute(update).ok()) errors.fetch_add(1);
          }
        });
      }
      for (std::thread& session : sessions) session.join();
    };
    run_sessions(0);
    ASSERT_TRUE(repo->Checkpoint().ok());
    run_sessions(1);  // only the log tail holds these terms
    EXPECT_EQ(errors.load(), 0u);

    const Dictionary& dict = *repo->dictionary();
    for (const Triple& t : repo->store().SnapshotSet()) {
      live.insert(std::string(dict.DecodeUnchecked(t.s)) + " " +
                  std::string(dict.DecodeUnchecked(t.p)) + " " +
                  std::string(dict.DecodeUnchecked(t.o)));
    }
  }
  // Every insert derives (x a Top<phase>) on top of its two statements.
  EXPECT_GE(live.size(), static_cast<size_t>(2 * kSessions * kPerSession * 3));
  opened->reset();  // crash: no final checkpoint

  auto recovered = Repository::Recover(RhoDfFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const Dictionary& dict = *(*recovered)->dictionary();
  std::set<std::string> decoded;
  for (const Triple& t : (*recovered)->store().SnapshotSet()) {
    std::string line;
    for (const TermId id : {t.s, t.p, t.o}) {
      Result<std::string> term = dict.Decode(id);
      ASSERT_TRUE(term.ok()) << term.status().ToString();
      line += (line.empty() ? "" : " ") + *term;
    }
    decoded.insert(line);
  }
  EXPECT_EQ(decoded, live);
}

}  // namespace
}  // namespace slider
