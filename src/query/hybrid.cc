#include "query/hybrid.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

namespace slider {

namespace {

GoalTerm SubstituteTerm(const GoalTerm& t, const TermId* env) {
  if (t.IsVar() && env[t.var] != kAnyTerm) return GoalTerm::Const(env[t.var]);
  return t;
}

bool SameGoalTerm(const GoalTerm& a, const GoalTerm& b) {
  if (a.IsVar() != b.IsVar()) return false;
  return a.IsVar() ? a.var == b.var : a.term == b.term;
}

bool SameGoalAtom(const GoalAtom& a, const GoalAtom& b) {
  return SameGoalTerm(a.s, b.s) && SameGoalTerm(a.p, b.p) &&
         SameGoalTerm(a.o, b.o);
}

void ResetEnv(TermId* env) {
  for (int i = 0; i < kMaxGoalVars; ++i) env[i] = kAnyTerm;
}

}  // namespace

RuleSetAnalysis AnalyzeRuleSet(const std::vector<RulePtr>& rules,
                               const Vocabulary& v) {
  RuleSetAnalysis out;
  const auto add_structural = [&out](TermId p, TermId o) {
    for (const RuleSetAnalysis::Spec& s : out.structural) {
      if (s.p == p && (s.o == o || s.o == kAnyTerm)) return;
    }
    out.structural.push_back(RuleSetAnalysis::Spec{p, o});
  };
  const auto add_unique = [](std::vector<TermId>* vec, TermId p) {
    for (const TermId q : *vec) {
      if (q == p) return;
    }
    vec->push_back(p);
  };
  const auto is_schema_pred = [&v](TermId p) {
    return p == v.sub_class_of || p == v.sub_property_of || p == v.domain ||
           p == v.range;
  };
  for (const RulePtr& rule : rules) {
    for (const GoalClause& clause : rule->clauses()) {
      if (clause.head.p.IsVar()) out.var_head_rules = true;
      // Variable slots used in predicate position anywhere in the clause:
      // an edge binding two of them relates one predicate's data to
      // another predicate's answers.
      bool pred_vars[kMaxGoalVars] = {};
      if (clause.head.p.IsVar()) pred_vars[clause.head.p.var] = true;
      for (const GoalAtom& a : clause.body) {
        if (a.p.IsVar()) pred_vars[a.p.var] = true;
      }
      for (const GoalAtom& a : clause.body) {
        if (a.p.IsVar()) continue;  // variable-predicate data atom
        const TermId bp = a.p.term;
        if (bp == v.type) {
          // Guarded declaration (· type K): structural for exactly those
          // triples. A type atom with a variable object is plain data.
          if (!a.o.IsVar()) add_structural(v.type, a.o.term);
        } else {
          add_structural(bp, kAnyTerm);
        }
        if (a.s.IsVar() && pred_vars[a.s.var] && a.o.IsVar() &&
            pred_vars[a.o.var]) {
          add_unique(&out.link_predicates, bp);
        }
      }
      if (!clause.head.p.IsVar() && is_schema_pred(clause.head.p.term)) {
        for (const GoalAtom& a : clause.body) {
          if (!a.p.IsVar() && a.p.term == v.type && !a.o.IsVar()) {
            add_unique(&out.schema_trigger_classes, a.o.term);
          }
        }
      }
      if (!clause.head.p.IsVar() && clause.head.p.term == v.sub_property_of) {
        for (const GoalAtom& a : clause.body) {
          if (a.p.IsVar() || a.p.term != v.sub_property_of) {
            out.spo_derivable = true;
            break;
          }
        }
      }
    }
  }
  return out;
}

HybridProvider::HybridProvider(const TripleStore* store, const Vocabulary& v,
                               std::vector<RulePtr> rules, Options options)
    : store_(store),
      v_(v),
      options_(options),
      chainer_(store, v, rules),
      analysis_(AnalyzeRuleSet(rules, v)),
      tables_(options.table_capacity, options.table_max_rows) {}

HybridProvider::HybridProvider(const TripleStore* store, const Vocabulary& v,
                               std::vector<RulePtr> rules)
    : HybridProvider(store, v, std::move(rules), Options()) {}

bool HybridProvider::IsSchemaPredicate(TermId p) const {
  return p == v_.sub_class_of || p == v_.sub_property_of || p == v_.domain ||
         p == v_.range;
}

bool HybridProvider::ForwardComplete(TermId p) const {
  if (options_.fully_materialized) return true;
  if (p == kAnyTerm) return false;  // every rule head can contribute
  if (IsSchemaPredicate(p) && options_.schema_materialized) return true;
  // Clause-driven liveness probe: the store's partition is the complete
  // answer set iff every rule clause that could derive into it is dead.
  // A clause instance is dead when its leading (most selective:
  // declaration/schema) atom has no backward-provable solutions, or when
  // every solution reduces the instance to an identity — remaining body
  // equal to the head, deriving only rows already matched (the reflexive
  // <p spo p> RDFS6 emits, fed through PRP-SPO1).
  const TriplePattern goal{kAnyTerm, p, kAnyTerm};
  std::vector<GoalClause> instances;
  for (const RulePtr& rule : chainer_.rules()) {
    rule->ExpandGoal(goal, &instances);
  }
  const StoreView view = store_->GetView();
  for (const GoalClause& inst : instances) {
    if (inst.body.empty()) return false;
    const GoalAtom& first = inst.body.front();
    TermId env[kMaxGoalVars];
    ResetEnv(env);
    const TriplePattern probe = GoalAtomPattern(first, env);
    if (probe.p == kAnyTerm) {
      // Universal data atom (the RDFS4 shape): live whenever any triple
      // exists at all.
      if (view.size() > 0) return false;
      continue;
    }
    bool alive = false;
    chainer_.Match(probe, [&](const Triple& t) {
      if (alive) return;
      TermId bound[kMaxGoalVars];
      ResetEnv(bound);
      if (!BindGoalAtom(first, t, bound)) return;
      if (inst.body.size() == 1) {
        alive = true;
        return;
      }
      const GoalAtom head{SubstituteTerm(inst.head.s, bound),
                          SubstituteTerm(inst.head.p, bound),
                          SubstituteTerm(inst.head.o, bound)};
      for (size_t i = 1; i < inst.body.size(); ++i) {
        const GoalAtom a{SubstituteTerm(inst.body[i].s, bound),
                         SubstituteTerm(inst.body[i].p, bound),
                         SubstituteTerm(inst.body[i].o, bound)};
        if (!SameGoalAtom(a, head)) {
          alive = true;
          return;
        }
      }
    });
    if (alive) return false;
  }
  return true;
}

HybridProvider::Route HybridProvider::DecideRoute(TermId p) const {
  if (!ForwardComplete(p)) return Route::kBackward;
  // Both routes are complete: estimated materialized rows touched vs the
  // chainer's estimated expansion fan-out, over the whole partition (the
  // routing unit is the predicate; endpoint-bound refinements shrink both
  // sides proportionally). Once both routes carry latency samples, each
  // side is calibrated by its measured per-row cost, so a chainer whose
  // expansions run, say, 20× slower per row than an index scan stops
  // winning ties on raw row counts.
  const TriplePattern whole{kAnyTerm, p, kAnyTerm};
  const StoreView view = store_->GetView();
  double forward_cost = static_cast<double>(
      p == kAnyTerm ? view.size() : view.CountWithPredicate(p));
  double backward_cost = static_cast<double>(chainer_.EstimateCount(whole));
  const double fwd_ms = forward_ms_per_row_.load(std::memory_order_relaxed);
  const double bwd_ms = backward_ms_per_row_.load(std::memory_order_relaxed);
  if (forward_samples_.load(std::memory_order_relaxed) > 0 &&
      backward_samples_.load(std::memory_order_relaxed) > 0 && fwd_ms > 0.0 &&
      bwd_ms > 0.0) {
    forward_cost *= fwd_ms;
    backward_cost *= bwd_ms;
  }
  return forward_cost <= backward_cost ? Route::kForward : Route::kBackward;
}

HybridProvider::Route HybridProvider::RouteFor(
    const TriplePattern& pattern) const {
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    const auto it = route_memo_.find(pattern.p);
    if (it != route_memo_.end()) return it->second;
  }
  const Route route = DecideRoute(pattern.p);
  std::lock_guard<std::mutex> lock(route_mu_);
  route_memo_.emplace(pattern.p, route);
  return route;
}

std::vector<HybridProvider::Route> HybridProvider::PlanRoutes(
    const Query& query) const {
  std::vector<Route> routes;
  routes.reserve(query.where.size());
  for (const QueryPattern& pattern : query.where) {
    const TriplePattern constants{
        pattern.s.IsVariable() ? kAnyTerm : pattern.s.term,
        pattern.p.IsVariable() ? kAnyTerm : pattern.p.term,
        pattern.o.IsVariable() ? kAnyTerm : pattern.o.term};
    routes.push_back(RouteFor(constants));
  }
  return routes;
}

void HybridProvider::Match(
    const TriplePattern& pattern,
    const std::function<void(const Triple&)>& sink) const {
  const Route route = RouteFor(pattern);
  size_t rows = 0;
  const std::function<void(const Triple&)> counting = [&](const Triple& t) {
    ++rows;
    sink(t);
  };
  const auto start = std::chrono::steady_clock::now();
  if (route == Route::kForward) {
    forward_routes_.fetch_add(1, std::memory_order_relaxed);
    store_->GetView().ForEachMatch(pattern, counting);
  } else {
    backward_routes_.fetch_add(1, std::memory_order_relaxed);
    MatchBackward(pattern, counting);
  }
  const double millis = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  RecordRouteLatency(route, millis, rows);
}

void HybridProvider::MatchBackward(
    const TriplePattern& pattern,
    const std::function<void(const Triple&)>& sink) const {
  if (const TablingCache::AnswerPtr table = tables_.Lookup(pattern)) {
    for (const Triple& t : *table) sink(t);
    return;
  }
  // Read the generation *before* expanding: if a delta invalidates while we
  // chain, Store refuses the then-stale table.
  const uint64_t fill_generation = tables_.generation();
  TripleVec answers;
  chainer_.Match(pattern, [&](const Triple& t) { answers.push_back(t); });
  for (const Triple& t : answers) sink(t);
  tables_.Store(pattern, std::move(answers), fill_generation);
}

void HybridProvider::RecordRouteLatency(Route route, double millis,
                                        size_t rows) const {
  const double per_row = millis / static_cast<double>(rows == 0 ? 1 : rows);
  std::atomic<double>& ewma = route == Route::kForward ? forward_ms_per_row_
                                                       : backward_ms_per_row_;
  std::atomic<uint64_t>& samples =
      route == Route::kForward ? forward_samples_ : backward_samples_;
  constexpr double kAlpha = 0.2;
  const bool first = samples.load(std::memory_order_relaxed) == 0;
  double observed = ewma.load(std::memory_order_relaxed);
  double next;
  do {
    next = first ? per_row : observed + kAlpha * (per_row - observed);
  } while (!ewma.compare_exchange_weak(observed, next,
                                       std::memory_order_relaxed));
  samples.fetch_add(1, std::memory_order_relaxed);
}

size_t HybridProvider::EstimateCount(const TriplePattern& pattern) const {
  if (RouteFor(pattern) == Route::kForward) {
    return ForwardProvider(store_).EstimateCount(pattern);
  }
  if (const TablingCache::AnswerPtr table = tables_.Lookup(pattern)) {
    return table->size();  // tabled answers make the estimate exact
  }
  return chainer_.EstimateCount(pattern);
}

std::vector<TermId> HybridProvider::LinkedPredicatesOf(TermId q) const {
  const StoreView view = store_->GetView();
  std::vector<TermId> closure{q};
  std::unordered_set<TermId> seen{q};
  const auto push = [&](TermId p) {
    if (p != kAnyTerm && seen.insert(p).second) closure.push_back(p);
  };
  for (size_t i = 0; i < closure.size(); ++i) {
    const TermId node = closure[i];
    for (const TermId link : analysis_.link_predicates) {
      if (link == v_.sub_property_of) {
        // Data flows *up* the property hierarchy (PRP-SPO1). When the
        // fragment can derive subPropertyOf edges from non-subPropertyOf
        // facts (RDFS12), an explicit-edge walk misses them — ask the
        // chainer for the derived closure instead.
        if (analysis_.spo_derivable) {
          chainer_.Match(TriplePattern{node, v_.sub_property_of, kAnyTerm},
                         [&](const Triple& t) { push(t.o); });
        } else {
          view.ForEachObject(v_.sub_property_of, node,
                             [&](TermId super) { push(super); });
        }
      } else {
        // Generic predicate link (owl:inverseOf): declarations point either
        // way, so walk both directions.
        view.ForEachObject(link, node, [&](TermId other) { push(other); });
        view.ForEachSubject(link, node, [&](TermId other) { push(other); });
      }
    }
  }
  return closure;
}

void HybridProvider::OnDelta(const TripleVec& delta) {
  if (delta.empty()) return;
  std::unordered_set<TermId> instance_predicates;
  bool structural = false;
  for (const Triple& t : delta) {
    if (analysis_.MatchesStructural(t)) {
      structural = true;
      break;
    }
    instance_predicates.insert(t.p);
  }
  if (structural) {
    // Structural edges (schema, meta links, guarded declarations)
    // parameterize every expansion *and* every routing decision: flush the
    // tables and forget the memoized routes.
    tables_.InvalidateAll();
    std::lock_guard<std::mutex> lock(route_mu_);
    route_memo_.clear();
    return;
  }
  // Instance-only delta: drop the tables whose expansion could have
  // consumed the touched predicates — each predicate's closure over the
  // fragment's link predicates (sub-property consumers, inverse
  // neighbors), plus rdf:type and predicate-unbound tables (handled inside
  // InvalidateInstance). Routing is unaffected.
  std::unordered_set<TermId> affected;
  for (const TermId q : instance_predicates) {
    for (const TermId linked : LinkedPredicatesOf(q)) affected.insert(linked);
  }
  tables_.InvalidateInstance(
      std::vector<TermId>(affected.begin(), affected.end()), v_.type);
}

HybridProvider::RouteStats HybridProvider::route_stats() const {
  RouteStats out;
  out.forward = forward_routes_.load(std::memory_order_relaxed);
  out.backward = backward_routes_.load(std::memory_order_relaxed);
  out.forward_samples = forward_samples_.load(std::memory_order_relaxed);
  out.backward_samples = backward_samples_.load(std::memory_order_relaxed);
  out.forward_ms_per_row = forward_ms_per_row_.load(std::memory_order_relaxed);
  out.backward_ms_per_row =
      backward_ms_per_row_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace slider
