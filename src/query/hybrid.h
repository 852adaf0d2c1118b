#ifndef SLIDER_QUERY_HYBRID_H_
#define SLIDER_QUERY_HYBRID_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "query/backward.h"
#include "query/evaluator.h"
#include "query/tabling.h"
#include "rdf/vocabulary.h"
#include "store/triple_store.h"

namespace slider {

/// \brief Clause-derived delta classification, shared by the provider's
/// tabling invalidation and the repository's schema-closure triggers.
///
/// Extracted once from a rule set's clause templates:
///  - `structural` specs: a delta triple matching one (predicate equal;
///    object equal unless the spec's object is kAnyTerm) can rewire
///    expansions globally — it matches a constant-predicate body atom
///    (schema edges: subClassOf/subPropertyOf/domain/range; meta links:
///    owl:inverseOf; guarded declarations: (· type TransitiveProperty),
///    (· type Class), …). Such deltas flush every table and the route
///    memo. Plain data atoms (constant predicate rdf:type with a
///    *variable* object, or variable predicate) are not structural.
///  - `link_predicates`: predicates whose edges link one predicate's data
///    to another predicate's answers (a body atom whose subject/object
///    variable occurs in predicate position elsewhere in its clause —
///    subPropertyOf via PRP-SPO1, owl:inverseOf via PRP-INV). Instance
///    deltas walk these links to find the affected tables.
///  - `schema_trigger_classes`: K where (· type K) can create a
///    schema-predicate head (RDFS6/8/10/12/13 triggers) — the repository
///    refreshes its kHybrid schema closure on those deltas.
///  - `var_head_rules`: some rule emits arbitrary predicates; with meta
///    edges landing *on* schema predicates, any delta can then extend the
///    schema closure (the repository probes for that situation).
///  - `spo_derivable`: subPropertyOf edges can be derived from
///    non-subPropertyOf facts (RDFS12's ContainerMembershipProperty ⇒
///    member), so instance-delta link walks must consult the chainer, not
///    just explicit edges.
struct RuleSetAnalysis {
  struct Spec {
    TermId p = kAnyTerm;
    TermId o = kAnyTerm;  ///< kAnyTerm = any object
  };
  std::vector<Spec> structural;
  std::vector<TermId> link_predicates;
  std::vector<TermId> schema_trigger_classes;
  bool var_head_rules = false;
  bool spo_derivable = false;

  bool MatchesStructural(const Triple& t) const {
    for (const Spec& s : structural) {
      if (t.p == s.p && (s.o == kAnyTerm || t.o == s.o)) return true;
    }
    return false;
  }
};

RuleSetAnalysis AnalyzeRuleSet(const std::vector<RulePtr>& rules,
                               const Vocabulary& v);

/// \brief Cost-routed hybrid match provider — the query-layer tentpole of
/// the materialize/on-demand answering stack.
///
/// Per triple pattern the provider chooses between two complete routes:
///
///   forward  — read the store's indexes directly (ForwardProvider path;
///              correct when the store already holds every answer);
///   backward — resolve the fragment's rules at query time
///              (BackwardChainer path; correct over a raw explicit-only
///              store), memoized through a TablingCache so repeated
///              patterns cost a table scan.
///
/// Routing runs two checks, in order (vlog's chooseMostEfficientAlgo
/// shape: completeness, then cost):
///
///  1. *Completeness.* The forward route is only eligible when the store
///     provably holds every answer for the pattern: always under
///     Options::fully_materialized; for schema patterns (subClassOf,
///     subPropertyOf, domain, range) under Options::schema_materialized
///     (the kHybrid mode's eager schema closure); otherwise by a
///     clause-driven liveness probe — the pattern is forward-complete iff
///     every rule clause that could derive into its partition is *dead*
///     (its leading declaration/schema atom has no backward-provable
///     solutions) or derives only identities (the reflexive <p spo p>
///     RDFS6 emits). The probe subsumes the old "no subPropertyOf edge
///     points at p" check and extends it to inverse/symmetric/transitive
///     declarations and derived subPropertyOf edges.
///  2. *Cost.* When both routes are complete, compare estimated rows
///     touched — materialized partition size vs the chainer's expansion
///     estimate — each side calibrated by its measured per-row latency
///     EWMA (route_stats) once both routes have samples.
///
/// Decisions are memoized per predicate (the inputs above depend only on
/// the predicate and store-wide stats); the memo is cleared by structural
/// deltas through OnDelta — the same delta stream that invalidates the
/// answer tables. PlanRoutes exposes the per-pattern decisions so the
/// endpoint's plan cache can record them alongside the join order.
///
/// Thread-safety: Match/EstimateCount are safe to call concurrently with
/// each other; OnDelta must be externally ordered against updates the same
/// way the repository orders its engine deltas (its update mutex).
class HybridProvider : public MatchProvider {
 public:
  enum class Route : uint8_t {
    kForward = 0,  ///< materialized store lookup
    kBackward = 1, ///< backward chaining (tabled)
  };

  struct Options {
    /// Store holds the full closure (kHybrid over a schema-only workload
    /// does not; kIncremental/batch modes would). Forces every route
    /// forward-eligible.
    bool fully_materialized = false;
    /// Store holds the schema closure (kHybrid): schema patterns are
    /// forward-complete even though instance patterns are not.
    bool schema_materialized = false;
    /// TablingCache bounds (see tabling.h); table_capacity 0 disables.
    size_t table_capacity = 256;
    size_t table_max_rows = 4096;
  };

  struct RouteStats {
    uint64_t forward = 0;   ///< Match calls routed to the store
    uint64_t backward = 0;  ///< Match calls routed to the chainer
    uint64_t forward_samples = 0;   ///< latency samples folded per route
    uint64_t backward_samples = 0;
    /// Per-row latency EWMAs (milliseconds, alpha 0.2); 0 until sampled.
    /// Consulted by the cost check once both routes have samples.
    double forward_ms_per_row = 0.0;
    double backward_ms_per_row = 0.0;
  };

  /// Chains over `rules` (the repository passes its fragment's rule set).
  HybridProvider(const TripleStore* store, const Vocabulary& v,
                 std::vector<RulePtr> rules, Options options);
  HybridProvider(const TripleStore* store, const Vocabulary& v,
                 std::vector<RulePtr> rules);

  void Match(const TriplePattern& pattern,
             const std::function<void(const Triple&)>& sink) const override;

  size_t EstimateCount(const TriplePattern& pattern) const override;

  /// The route Match would take for `pattern` (memoizing it).
  Route RouteFor(const TriplePattern& pattern) const;

  /// Routes for each WHERE pattern of `query` under its constants-only
  /// instantiation — what the endpoint's plan cache records. Also primes
  /// the route memo so the subsequent evaluation decides identically.
  std::vector<Route> PlanRoutes(const Query& query) const;

  /// Delta hook: the repository calls this after every add/retract batch
  /// (both directions drop affected tables — a stale answer set can grow
  /// *or* shrink). Structural deltas (RuleSetAnalysis) flush all tables
  /// and the route memo; instance deltas drop only the tables whose
  /// expansion could consume the touched predicates — their closure over
  /// the link predicates (subPropertyOf up-closure, inverse neighbors;
  /// chainer-derived when subPropertyOf edges can themselves be derived),
  /// plus rdf:type and predicate-unbound tables.
  void OnDelta(const TripleVec& delta);

  /// Folds one measured Match latency into the per-route EWMA. Match does
  /// this itself; exposed so callers that time end-to-end evaluation (the
  /// endpoint) can contribute samples too.
  void RecordRouteLatency(Route route, double millis, size_t rows) const;

  const TablingCache& tables() const { return tables_; }
  const RuleSetAnalysis& analysis() const { return analysis_; }
  RouteStats route_stats() const;

 private:
  bool IsSchemaPredicate(TermId p) const;

  /// Forward-route completeness for a pattern with predicate `p`
  /// (see the class comment, check 2). `p` may be kAnyTerm.
  bool ForwardComplete(TermId p) const;

  /// Uncached routing decision for predicate `p`.
  Route DecideRoute(TermId p) const;

  /// Backward expansion answers for `pattern`, through the answer tables.
  void MatchBackward(const TriplePattern& pattern,
                     const std::function<void(const Triple&)>& sink) const;

  /// Closure of `q` over the analysis' link predicates (q included):
  /// every predicate whose tables a delta on q can affect.
  std::vector<TermId> LinkedPredicatesOf(TermId q) const;

  const TripleStore* store_;
  Vocabulary v_;
  Options options_;
  BackwardChainer chainer_;
  RuleSetAnalysis analysis_;
  TablingCache tables_;

  mutable std::mutex route_mu_;
  mutable std::unordered_map<TermId, Route> route_memo_;
  mutable std::atomic<uint64_t> forward_routes_{0};
  mutable std::atomic<uint64_t> backward_routes_{0};
  mutable std::atomic<uint64_t> forward_samples_{0};
  mutable std::atomic<uint64_t> backward_samples_{0};
  mutable std::atomic<double> forward_ms_per_row_{0.0};
  mutable std::atomic<double> backward_ms_per_row_{0.0};
};

}  // namespace slider

#endif  // SLIDER_QUERY_HYBRID_H_
