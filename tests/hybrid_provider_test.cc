// Unit tests for the hybrid answering stack's routing layer:
// HybridProvider's route decisions (the completeness → cost cascade), the
// structural-delta route-memo flush,
// the per-route latency EWMAs behind route_stats(), and the endpoint's
// per-pattern route recording in cached plans (PlanEntry::routes /
// CachedRoutes).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "query/endpoint.h"
#include "query/hybrid.h"
#include "reason/repository.h"

namespace slider {
namespace {

constexpr char kSubClassOf[] =
    "<http://www.w3.org/2000/01/rdf-schema#subClassOf>";

Repository::Options WithMode(Repository::InferenceMode mode) {
  Repository::Options options;
  options.inference = mode;
  return options;
}

class HybridRoutingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto opened = Repository::Open(
        RhoDfFactory(), WithMode(Repository::InferenceMode::kOnDemand));
    ASSERT_TRUE(opened.ok());
    repo_ = std::move(*opened);
    Dictionary* dict = repo_->dictionary();
    plain_ = dict->Encode("<http://r/plain>");
    sub_ = dict->Encode("<http://r/sub>");
    folded_ = dict->Encode("<http://r/folded>");
    c_ = dict->Encode("<http://r/C>");
    d_ = dict->Encode("<http://r/D>");
    x_ = dict->Encode("<http://r/x>");
    y_ = dict->Encode("<http://r/y>");
    const Vocabulary& v = repo_->vocabulary();
    ASSERT_TRUE(repo_->AddTriples({{sub_, v.sub_property_of, folded_},
                                   {c_, v.sub_class_of, d_},
                                   {x_, plain_, y_},
                                   {x_, sub_, y_},
                                   {x_, v.type, c_}})
                    .ok());
  }

  std::unique_ptr<Repository> repo_;
  TermId plain_ = 0, sub_ = 0, folded_ = 0, c_ = 0, d_ = 0, x_ = 0, y_ = 0;
};

TEST_F(HybridRoutingTest, CompletenessGateDecidesTheRoute) {
  const HybridProvider* hybrid = repo_->hybrid_provider();
  ASSERT_NE(hybrid, nullptr);
  const Vocabulary& v = repo_->vocabulary();
  // No subPropertyOf edge points at `plain`: the explicit store already
  // holds every answer, so the cheap forward route is sound.
  EXPECT_EQ(hybrid->RouteFor({kAnyTerm, plain_, kAnyTerm}),
            HybridProvider::Route::kForward);
  // `folded` absorbs `sub` triples through PRP-SPO1: forward would miss
  // them over the explicit-only store.
  EXPECT_EQ(hybrid->RouteFor({kAnyTerm, folded_, kAnyTerm}),
            HybridProvider::Route::kBackward);
  // With subClassOf evidence live, rdf:type and subClassOf patterns are
  // not forward-complete under kOnDemand (nothing is materialized).
  EXPECT_EQ(hybrid->RouteFor({x_, v.type, kAnyTerm}),
            HybridProvider::Route::kBackward);
  EXPECT_EQ(hybrid->RouteFor({kAnyTerm, v.sub_class_of, kAnyTerm}),
            HybridProvider::Route::kBackward);
  // Unbound predicate: any predicate's answers may be incomplete.
  EXPECT_EQ(hybrid->RouteFor({x_, kAnyTerm, kAnyTerm}),
            HybridProvider::Route::kBackward);
}

TEST(HybridCompletenessTest, EmptySchemaMakesEverythingForwardComplete) {
  // A store with no schema evidence at all: the clause-driven liveness
  // probe finds every deriving clause dead, so even rdf:type reads the
  // store directly — the old hardcoded "type is never forward-complete"
  // rule was strictly more conservative.
  auto opened = Repository::Open(
      RhoDfFactory(), WithMode(Repository::InferenceMode::kOnDemand));
  ASSERT_TRUE(opened.ok());
  Repository& repo = **opened;
  Dictionary* dict = repo.dictionary();
  const Vocabulary& v = repo.vocabulary();
  const TermId p = dict->Encode("<http://r/p>");
  const TermId klass = dict->Encode("<http://r/K>");
  const TermId s = dict->Encode("<http://r/s>");
  const TermId o = dict->Encode("<http://r/o>");
  ASSERT_TRUE(repo.AddTriples({{s, p, o}, {s, v.type, klass}}).ok());
  EXPECT_EQ(repo.hybrid_provider()->RouteFor({kAnyTerm, v.type, kAnyTerm}),
            HybridProvider::Route::kForward);
}

TEST_F(HybridRoutingTest, SchemaDeltaRedecidesMemoizedRoutes) {
  const HybridProvider* hybrid = repo_->hybrid_provider();
  ASSERT_NE(hybrid, nullptr);
  ASSERT_EQ(hybrid->RouteFor({kAnyTerm, plain_, kAnyTerm}),
            HybridProvider::Route::kForward);  // memoized
  // A new subPropertyOf edge makes `plain` absorb `sub`: the memoized
  // forward decision is no longer complete and must be re-made.
  const Vocabulary& v = repo_->vocabulary();
  ASSERT_TRUE(
      repo_->AddTriples({{sub_, v.sub_property_of, plain_}}).ok());
  EXPECT_EQ(hybrid->RouteFor({kAnyTerm, plain_, kAnyTerm}),
            HybridProvider::Route::kBackward);
}

TEST_F(HybridRoutingTest, FullyMaterializedOptionForcesForward) {
  // Direct construction over the repository's store, as a materialized
  // mode would: every pattern becomes forward-eligible regardless of shape.
  HybridProvider::Options options;
  options.fully_materialized = true;
  const Vocabulary& v = repo_->vocabulary();
  HybridProvider provider(&repo_->store(), v, Fragment::RhoDf(v).rules(),
                          options);
  EXPECT_EQ(provider.RouteFor({kAnyTerm, folded_, kAnyTerm}),
            HybridProvider::Route::kForward);
  EXPECT_EQ(provider.RouteFor({x_, v.type, kAnyTerm}),
            HybridProvider::Route::kForward);
}

TEST_F(HybridRoutingTest, RouteLatencyEwmaFeedsRouteStats) {
  const HybridProvider* hybrid = repo_->hybrid_provider();
  ASSERT_NE(hybrid, nullptr);
  // Drive one Match down each route; both EWMAs must pick up samples.
  hybrid->Match({kAnyTerm, plain_, kAnyTerm}, [](const Triple&) {});
  hybrid->Match({kAnyTerm, folded_, kAnyTerm}, [](const Triple&) {});
  HybridProvider::RouteStats stats = hybrid->route_stats();
  EXPECT_GT(stats.forward_samples, 0u);
  EXPECT_GT(stats.backward_samples, 0u);
  EXPECT_GE(stats.forward_ms_per_row, 0.0);
  EXPECT_GE(stats.backward_ms_per_row, 0.0);
  // Feeding an outsized sample moves the EWMA toward it but not onto it
  // (exponential smoothing, not last-sample-wins).
  const double before = stats.backward_ms_per_row;
  hybrid->RecordRouteLatency(HybridProvider::Route::kBackward,
                             /*millis=*/1000.0, /*rows=*/1);
  stats = hybrid->route_stats();
  EXPECT_GT(stats.backward_ms_per_row, before);
  EXPECT_LT(stats.backward_ms_per_row, 1000.0);
}

TEST(HybridSchemaMaterializedTest, SchemaPatternsReadTheStoreUnderKHybrid) {
  auto opened = Repository::Open(
      RhoDfFactory(), WithMode(Repository::InferenceMode::kHybrid));
  ASSERT_TRUE(opened.ok());
  Repository& repo = **opened;
  Dictionary* dict = repo.dictionary();
  const Vocabulary& v = repo.vocabulary();
  const TermId a = dict->Encode("<http://r/A>");
  const TermId b = dict->Encode("<http://r/B>");
  const TermId c = dict->Encode("<http://r/C>");
  const TermId x = dict->Encode("<http://r/x>");
  ASSERT_TRUE(repo.AddTriples({{a, v.sub_class_of, b},
                               {b, v.sub_class_of, c},
                               {x, v.type, a}})
                  .ok());
  const HybridProvider* hybrid = repo.hybrid_provider();
  ASSERT_NE(hybrid, nullptr);
  // The eager schema closure makes schema patterns forward-complete, and
  // reading the materialized edges is cheaper than re-deriving them.
  EXPECT_EQ(hybrid->RouteFor({kAnyTerm, v.sub_class_of, kAnyTerm}),
            HybridProvider::Route::kForward);
  // The transitive edge is served straight from the store.
  EXPECT_TRUE(repo.store().Contains({a, v.sub_class_of, c}));
  // Instance patterns stay on demand.
  EXPECT_EQ(hybrid->RouteFor({x, v.type, kAnyTerm}),
            HybridProvider::Route::kBackward);
}

TEST(HybridEndpointTest, CachedPlansRecordPerPatternRoutes) {
  auto opened = Repository::Open(
      RhoDfFactory(), WithMode(Repository::InferenceMode::kHybrid));
  ASSERT_TRUE(opened.ok());
  Repository& repo = **opened;
  Dictionary* dict = repo.dictionary();
  const Vocabulary& v = repo.vocabulary();
  const TermId a = dict->Encode("<http://r/A>");
  const TermId b = dict->Encode("<http://r/B>");
  const TermId x = dict->Encode("<http://r/x>");
  ASSERT_TRUE(
      repo.AddTriples({{a, v.sub_class_of, b}, {x, v.type, a}}).ok());

  SparqlEndpoint endpoint(&repo);
  const std::string query = std::string("SELECT ?s ?c WHERE { ?s a ?c . ?c ") +
                            kSubClassOf + " ?d }";
  // Not cached yet: no routes to report.
  EXPECT_TRUE(endpoint.CachedRoutes(query).empty());
  auto rows = endpoint.Select(query);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_FALSE(rows->rows.empty());

  const auto routes = endpoint.CachedRoutes(query);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[0], HybridProvider::Route::kBackward);  // ?s a ?c
  EXPECT_EQ(routes[1], HybridProvider::Route::kForward);   // schema pattern
  // A materialized-mode repository records no routes.
  auto forward_only = Repository::Open(
      RhoDfFactory(), WithMode(Repository::InferenceMode::kIncremental));
  ASSERT_TRUE(forward_only.ok());
  ASSERT_TRUE(
      (*forward_only)->AddTriples({{a, v.sub_class_of, b}}).ok());
  SparqlEndpoint plain_endpoint(forward_only->get());
  const std::string schema_query =
      std::string("SELECT ?c WHERE { ?c ") + kSubClassOf + " ?d }";
  ASSERT_TRUE(plain_endpoint.Select(schema_query).ok());
  EXPECT_TRUE(plain_endpoint.CachedRoutes(schema_query).empty());
}

TEST(HybridEndpointTest, RouteStatsCountBothPaths) {
  auto opened = Repository::Open(
      RhoDfFactory(), WithMode(Repository::InferenceMode::kHybrid));
  ASSERT_TRUE(opened.ok());
  Repository& repo = **opened;
  Dictionary* dict = repo.dictionary();
  const Vocabulary& v = repo.vocabulary();
  const TermId a = dict->Encode("<http://r/A>");
  const TermId b = dict->Encode("<http://r/B>");
  const TermId x = dict->Encode("<http://r/x>");
  ASSERT_TRUE(
      repo.AddTriples({{a, v.sub_class_of, b}, {x, v.type, a}}).ok());
  SparqlEndpoint endpoint(&repo);
  ASSERT_TRUE(endpoint
                  .Select(std::string("SELECT ?c WHERE { ?c ") + kSubClassOf +
                          " ?d }")
                  .ok());
  ASSERT_TRUE(endpoint.Select("SELECT ?s WHERE { ?s a ?c }").ok());
  const HybridProvider::RouteStats stats =
      repo.hybrid_provider()->route_stats();
  EXPECT_GT(stats.forward, 0u);
  EXPECT_GT(stats.backward, 0u);
}

}  // namespace
}  // namespace slider
