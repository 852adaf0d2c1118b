#include "query/backward.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "reason/fragment.h"

namespace slider {

namespace {

/// The eight ρdf rule names priced by the shape-based backbone of
/// EstimateCount (everything else goes through the clause estimator).
bool IsRhoDfName(const std::string& name) {
  static const char* kNames[] = {"CAX-SCO",  "SCM-SCO", "SCM-SPO",
                                 "PRP-SPO1", "PRP-DOM", "PRP-RNG",
                                 "SCM-DOM2", "SCM-RNG2"};
  for (const char* n : kNames) {
    if (name == n) return true;
  }
  return false;
}

/// Memo key: one tabled subgoal. `base` marks the restricted variant used
/// by the transitive fast path (same goal with self-transitive clauses
/// cut), tabled separately from the full goal.
struct GoalKey {
  TermId s, p, o;
  bool base;
  bool operator==(const GoalKey& k) const {
    return s == k.s && p == k.p && o == k.o && base == k.base;
  }
};

struct GoalKeyHash {
  size_t operator()(const GoalKey& k) const {
    size_t h = std::hash<TermId>()(k.s);
    h = h * 1315423911u ^ std::hash<TermId>()(k.p);
    h = h * 1315423911u ^ std::hash<TermId>()(k.o);
    return h * 2u + (k.base ? 1u : 0u);
  }
};

void ResetEnv(TermId* env) {
  for (int i = 0; i < kMaxGoalVars; ++i) env[i] = kAnyTerm;
}

/// \brief Recognition of the self-transitive clause shape
/// `(A P B) ⇐ guards ∧ (A P M) ∧ (M P B)`, on an *instantiated* clause.
///
/// Requirements: the head predicate is a constant P; exactly two body atoms
/// carry predicate P and at least one variable (the chain atoms), every
/// other body atom is ground (the guards); the chain atoms share a middle
/// variable M that does not occur in the head; the chain endpoints coincide
/// with the head endpoints (same constant or same variable slot).
struct TransitiveShape {
  TermId predicate = kAnyTerm;
  std::vector<const GoalAtom*> guards;  // ground atoms
};

bool SameGoalTerm(const GoalTerm& a, const GoalTerm& b) {
  if (a.IsVar() != b.IsVar()) return false;
  return a.IsVar() ? a.var == b.var : a.term == b.term;
}

bool TermIsGround(const GoalTerm& t) { return !t.IsVar(); }

bool AtomIsGround(const GoalAtom& a) {
  return TermIsGround(a.s) && TermIsGround(a.p) && TermIsGround(a.o);
}

bool VarInAtom(int16_t var, const GoalAtom& a) {
  return (a.s.IsVar() && a.s.var == var) || (a.p.IsVar() && a.p.var == var) ||
         (a.o.IsVar() && a.o.var == var);
}

bool RecognizeTransitive(const GoalClause& inst, TransitiveShape* shape) {
  const GoalAtom& h = inst.head;
  if (h.p.IsVar()) return false;
  const TermId p = h.p.term;
  const GoalAtom* chain[2] = {nullptr, nullptr};
  std::vector<const GoalAtom*> guards;
  for (const GoalAtom& a : inst.body) {
    if (AtomIsGround(a)) {
      guards.push_back(&a);
      continue;
    }
    if (a.p.IsVar() || a.p.term != p) return false;
    if (chain[0] == nullptr) {
      chain[0] = &a;
    } else if (chain[1] == nullptr) {
      chain[1] = &a;
    } else {
      return false;
    }
  }
  if (chain[1] == nullptr) return false;
  // chain[0] = (head.s, P, M), chain[1] = (M, P, head.o).
  if (!SameGoalTerm(chain[0]->s, h.s) || !SameGoalTerm(chain[1]->o, h.o)) {
    return false;
  }
  const GoalTerm& m1 = chain[0]->o;
  const GoalTerm& m2 = chain[1]->s;
  if (!m1.IsVar() || !m2.IsVar() || m1.var != m2.var) return false;
  if (VarInAtom(m1.var, h)) return false;
  shape->predicate = p;
  shape->guards = std::move(guards);
  return true;
}

/// \brief One top-level Match resolution: a tabled SLD evaluation over one
/// pinned StoreView, iterated to a global fixpoint.
class SldResolver {
 public:
  SldResolver(const StoreView& store, const std::vector<RulePtr>& rules)
      : store_(store), rules_(rules) {}

  const TripleVec& Solve(const TriplePattern& pattern) {
    GoalState& root = memo_[GoalKey{pattern.s, pattern.p, pattern.o, false}];
    do {
      ++pass_;
      new_answers_ = false;
      Expand(pattern, /*base=*/false);
    } while (new_answers_);
    return root.answers;
  }

 private:
  struct GoalState {
    TripleVec answers;
    TripleSet answer_set;
    uint32_t pass = 0;    ///< last pass this goal was expanded in
    bool scanned = false; ///< explicit store scan already folded in
  };

  void Insert(GoalState* st, const Triple& t) {
    if (st->answer_set.insert(t).second) {
      st->answers.push_back(t);
      new_answers_ = true;
    }
  }

  /// Expands `pattern` once per pass: explicit scan, then every rule
  /// clause whose head unifies. Returns the goal's state (answers tabled
  /// so far; re-entrant calls within the pass return immediately, which is
  /// the cycle cut — the outer fixpoint loop supplies completeness).
  GoalState* Expand(const TriplePattern& pattern, bool base) {
    GoalState& st = memo_[GoalKey{pattern.s, pattern.p, pattern.o, base}];
    if (st.pass == pass_) return &st;
    st.pass = pass_;
    if (!st.scanned) {
      st.scanned = true;
      store_.ForEachMatch(pattern,
                          [&](const Triple& t) { Insert(&st, t); });
    }
    std::vector<GoalClause> instances;
    for (const RulePtr& rule : rules_) {
      rule->ExpandGoal(pattern, &instances);
    }
    for (const GoalClause& inst : instances) {
      TransitiveShape shape;
      if (RecognizeTransitive(inst, &shape)) {
        // Base goals exist to *exclude* self-transitive derivations; a
        // recognized instance there is exactly the clause being cut.
        if (base) continue;
        SolveTransitive(inst, shape, &st);
      } else {
        TermId env[kMaxGoalVars];
        ResetEnv(env);
        Join(inst, 0, env, &st);
      }
    }
    return &st;
  }

  /// Left-to-right body join: each atom resolves (under the bindings so
  /// far) to a subgoal, every tabled answer of which extends the
  /// environment. A full body solution grounds the head into an answer.
  void Join(const GoalClause& inst, size_t idx, TermId* env, GoalState* st) {
    if (idx == inst.body.size()) {
      const TriplePattern head = GoalAtomPattern(inst.head, env);
      // Clause invariant: head variables occur in the body, so a full
      // solution grounds every position.
      if (head.s == kAnyTerm || head.p == kAnyTerm || head.o == kAnyTerm) {
        return;
      }
      Insert(st, Triple(head.s, head.p, head.o));
      return;
    }
    const GoalAtom& atom = inst.body[idx];
    GoalState* sub = Expand(GoalAtomPattern(atom, env), /*base=*/false);
    // Index loop over a size snapshot: the vector may grow while nested
    // expansion runs (later passes pick up the late answers).
    const size_t n = sub->answers.size();
    for (size_t i = 0; i < n; ++i) {
      const Triple t = sub->answers[i];
      TermId next[kMaxGoalVars];
      std::memcpy(next, env, sizeof(TermId) * kMaxGoalVars);
      if (BindGoalAtom(atom, t, next)) Join(inst, idx + 1, next, st);
    }
  }

  /// Transitive fast path: guards first (each a ground subgoal solved in
  /// full), then breadth-first reachability over the goal's base relation
  /// — the same predicate solved with the transitive clause cut. At the
  /// outer fixpoint the transitive closure of the base relation equals the
  /// full relation (induction on derivation trees: a derivation rooted in
  /// the transitive clause is a chain of base-derivable edges).
  void SolveTransitive(const GoalClause& inst, const TransitiveShape& shape,
                       GoalState* st) {
    for (const GoalAtom* g : shape.guards) {
      const Triple guard(g->s.term, g->p.term, g->o.term);
      GoalState* gs =
          Expand(TriplePattern{guard.s, guard.p, guard.o}, /*base=*/false);
      if (gs->answer_set.count(guard) == 0) return;  // not (yet) provable
    }
    const TermId P = shape.predicate;
    const TermId src = inst.head.s.IsVar() ? kAnyTerm : inst.head.s.term;
    const TermId dst = inst.head.o.IsVar() ? kAnyTerm : inst.head.o.term;
    if (src != kAnyTerm) {
      for (TermId n : Reach(src, P, /*down=*/false)) {
        if (dst == kAnyTerm || dst == n) Insert(st, Triple(src, P, n));
      }
      return;
    }
    if (dst != kAnyTerm) {
      for (TermId n : Reach(dst, P, /*down=*/true)) {
        Insert(st, Triple(n, P, dst));
      }
      return;
    }
    // Fully unbound: closure from every subject of the base relation.
    GoalState* all = Expand(TriplePattern{kAnyTerm, P, kAnyTerm}, true);
    std::unordered_set<TermId> subjects;
    const size_t n = all->answers.size();
    for (size_t i = 0; i < n; ++i) subjects.insert(all->answers[i].s);
    for (TermId s0 : subjects) {
      for (TermId reached : Reach(s0, P, /*down=*/false)) {
        Insert(st, Triple(s0, P, reached));
      }
    }
  }

  /// BFS along base-relation edges of `predicate`; `down` follows
  /// object→subject. Nodes are emitted only when reached through at least
  /// one edge (no reflexive closure), so `start` appears only on a cycle.
  /// Each frontier node's edges come from a lazily tabled base goal, so
  /// derived edges (other rules' heads) participate in the walk.
  std::vector<TermId> Reach(TermId start, TermId predicate, bool down) {
    std::vector<TermId> out;
    std::unordered_set<TermId> seen;
    std::deque<TermId> frontier{start};
    std::unordered_set<TermId> expanded;
    while (!frontier.empty()) {
      const TermId cur = frontier.front();
      frontier.pop_front();
      if (!expanded.insert(cur).second) continue;
      const TriplePattern step = down
                                     ? TriplePattern{kAnyTerm, predicate, cur}
                                     : TriplePattern{cur, predicate, kAnyTerm};
      GoalState* edges = Expand(step, /*base=*/true);
      const size_t n = edges->answers.size();
      for (size_t i = 0; i < n; ++i) {
        const TermId next = down ? edges->answers[i].s : edges->answers[i].o;
        if (seen.insert(next).second) out.push_back(next);
        frontier.push_back(next);
      }
    }
    return out;
  }

  const StoreView& store_;
  const std::vector<RulePtr>& rules_;
  std::unordered_map<GoalKey, GoalState, GoalKeyHash> memo_;
  uint32_t pass_ = 0;
  bool new_answers_ = false;
};

/// Pattern cardinality over the explicit store, all boundness combinations
/// (unbound-predicate cases sum over the stored predicates).
size_t CountPattern(const StoreView& store, const TriplePattern& p) {
  if (p.p != kAnyTerm) {
    if (p.s != kAnyTerm && p.o != kAnyTerm) {
      return store.Contains(Triple(p.s, p.p, p.o)) ? 1 : 0;
    }
    if (p.s != kAnyTerm) return store.CountObjects(p.p, p.s);
    if (p.o != kAnyTerm) return store.CountSubjects(p.p, p.o);
    return store.CountWithPredicate(p.p);
  }
  size_t total = 0;
  for (TermId pred : store.Predicates()) {
    TriplePattern bound = p;
    bound.p = pred;
    total += CountPattern(store, bound);
  }
  return total;
}

constexpr size_t kEnumBudget = 256;
constexpr size_t kEstimateCap = size_t{1} << 20;

/// Budgeted depth-1 enumeration of a clause body over the explicit store;
/// counts satisfying bindings. Returns false when the budget tripped (the
/// caller falls back to the product bound).
bool EnumerateBody(const StoreView& store, const std::vector<GoalAtom>& body,
                   size_t idx, TermId* env, size_t* budget, size_t* count) {
  if (idx == body.size()) {
    ++*count;
    if (*budget == 0) return false;
    --*budget;
    return true;
  }
  const TriplePattern pattern = GoalAtomPattern(body[idx], env);
  TripleVec matches;
  bool truncated = false;
  store.ForEachMatch(pattern, [&](const Triple& t) {
    if (matches.size() >= kEnumBudget) {
      truncated = true;
      return;
    }
    matches.push_back(t);
  });
  if (truncated) return false;
  for (const Triple& t : matches) {
    if (*budget == 0) return false;
    TermId next[kMaxGoalVars];
    std::memcpy(next, env, sizeof(TermId) * kMaxGoalVars);
    if (!BindGoalAtom(body[idx], t, next)) continue;
    if (!EnumerateBody(store, body, idx + 1, next, budget, count)) {
      return false;
    }
  }
  return true;
}

/// Product-of-atom-counts upper bound on a clause instance's depth-1
/// derivations (join size ≤ product of relation sizes). Ground atoms count
/// 1 whether or not they are explicitly present — their satisfaction may
/// be derived, and pricing them 0 is exactly the undercount this estimator
/// exists to avoid.
size_t ProductBound(const StoreView& store, const GoalClause& inst) {
  TermId env[kMaxGoalVars];
  ResetEnv(env);
  size_t product = 1;
  for (const GoalAtom& atom : inst.body) {
    if (AtomIsGround(atom)) continue;
    const size_t c = CountPattern(store, GoalAtomPattern(atom, env));
    if (c == 0) continue;  // other atoms still bound the join
    if (product > kEstimateCap / c) return kEstimateCap;
    product *= c;
  }
  return product;
}

size_t EstimateInstance(const StoreView& store, const GoalClause& inst) {
  TermId env[kMaxGoalVars];
  ResetEnv(env);
  size_t budget = kEnumBudget;
  size_t count = 0;
  if (EnumerateBody(store, inst.body, 0, env, &budget, &count)) {
    return count;
  }
  return std::max(count, ProductBound(store, inst));
}

}  // namespace

BackwardChainer::BackwardChainer(const TripleStore* store, const Vocabulary& v)
    : BackwardChainer(store, v, Fragment::RhoDf(v).rules()) {}

BackwardChainer::BackwardChainer(const TripleStore* store, const Vocabulary& v,
                                 std::vector<RulePtr> rules)
    : store_(store), v_(v), rules_(std::move(rules)) {
  for (const RulePtr& rule : rules_) {
    if (!IsRhoDfName(rule->name())) {
      extension_rules_.push_back(rule.get());
    }
  }
}

void BackwardChainer::Match(
    const TriplePattern& pattern,
    const std::function<void(const Triple&)>& sink) const {
  // One pin covers the whole resolution: zero locks, one monotone
  // snapshot. The resolver's tabling dedups, so answers stream through
  // unfiltered.
  const StoreView store = store_->GetView();
  SldResolver resolver(store, rules_);
  for (const Triple& t : resolver.Solve(pattern)) {
    sink(t);
  }
}

std::vector<TermId> BackwardChainer::SubPropertiesOf(const StoreView& store,
                                                     TermId p) const {
  std::vector<TermId> out;
  std::unordered_set<TermId> seen{p};
  std::deque<TermId> frontier{p};
  out.push_back(p);
  while (!frontier.empty()) {
    const TermId cur = frontier.front();
    frontier.pop_front();
    store.ForEachSubject(v_.sub_property_of, cur, [&](TermId sub) {
      if (seen.insert(sub).second) {
        out.push_back(sub);
        frontier.push_back(sub);
      }
    });
  }
  return out;
}

size_t BackwardChainer::BackboneEstimate(const StoreView& store,
                                         const TriplePattern& pattern) const {
  // Shape-based pricing of the ρdf expansions, from the explicit
  // partitions each walk reads. (Delegating to materialized-store counts —
  // the old throwaway-ForwardProvider shortcut — priced the *stored* rows,
  // not the rows the expansion visits and emits, which over a raw store
  // don't exist yet.)
  if (pattern.p == v_.sub_class_of || pattern.p == v_.sub_property_of) {
    // Transitive reachability (SCM-SCO/SCM-SPO). Both endpoints bound is a
    // path test (≤ 1 answer); one bound endpoint yields at most the
    // hierarchy's node count (≤ edges + 1); fully unbound, the closure of
    // the typical shallow hierarchy lands between |E| and the |V|² worst
    // case — price it at 2|E|.
    const size_t edges = store.CountWithPredicate(pattern.p);
    if (pattern.s != kAnyTerm && pattern.o != kAnyTerm) return 1;
    if (pattern.s != kAnyTerm || pattern.o != kAnyTerm) return edges + 1;
    return edges * 2 + 1;
  }
  if (pattern.p == v_.domain || pattern.p == v_.range) {
    // Explicit axioms plus SCM-DOM2/SCM-RNG2 inheritance along
    // super-property chains: each sp edge can copy an axiom down.
    const size_t axioms = store.CountWithPredicate(pattern.p);
    const size_t sp_edges = store.CountWithPredicate(v_.sub_property_of);
    const size_t total = axioms + std::min(axioms, sp_edges) + 1;
    return pattern.s != kAnyTerm ? total / 4 + 1 : total;
  }
  if (pattern.p == v_.type) {
    // Explicit typing inherited up subclass chains (CAX-SCO) plus
    // domain/range evidence: every triple of a property carrying a
    // (possibly inherited) domain/range axiom types its subject/object.
    size_t total = store.CountWithPredicate(v_.type) +
                   store.CountWithPredicate(v_.sub_class_of);
    store.ForEachWithPredicate(v_.domain, [&](TermId prop, TermId) {
      total += store.CountWithPredicate(prop);
    });
    store.ForEachWithPredicate(v_.range, [&](TermId prop, TermId) {
      total += store.CountWithPredicate(prop);
    });
    if (pattern.s != kAnyTerm) return total / 16 + 1;  // one subject's types
    if (pattern.o != kAnyTerm) return total / 4 + 1;   // one class's members
    return total;
  }
  if (pattern.p != kAnyTerm) {
    // Plain instance pattern: the union of p's partition and every
    // sub-property partition (PRP-SPO1), priced from the actual sp-down
    // closure.
    size_t total = 0;
    for (const TermId sub : SubPropertiesOf(store, pattern.p)) {
      TriplePattern bound = pattern;
      bound.p = sub;
      total += CountPattern(store, bound);
    }
    return total;
  }
  // Predicate unbound: everything above, over every predicate.
  return store.size() * 2 + 16;
}

size_t BackwardChainer::ExtensionEstimate(const StoreView& store,
                                          const TriplePattern& pattern) const {
  if (extension_rules_.empty()) return 0;
  size_t total = 0;
  std::vector<GoalClause> instances;
  for (const Rule* rule : extension_rules_) {
    instances.clear();
    rule->ExpandGoal(pattern, &instances);
    for (const GoalClause& inst : instances) {
      // A clause that recurses on the goal's own predicate (the transitive
      // shape: two body atoms over pattern.p) chains to unbounded depth,
      // which the depth-1 enumeration undercounts — price the reachability
      // ceiling of the explicit base partition instead: the closure is a
      // set of node pairs, and the base's e edges touch ≤ 2e nodes.
      size_t self_atoms = 0;
      if (pattern.p != kAnyTerm) {
        for (const GoalAtom& a : inst.body) {
          if (!a.p.IsVar() && a.p.term == pattern.p) ++self_atoms;
        }
      }
      if (self_atoms >= 2) {
        const size_t base = store.CountWithPredicate(pattern.p);
        total += base >= 1024 ? kEstimateCap : 4 * base * base + 1;
      } else {
        total += EstimateInstance(store, inst);
      }
      if (total >= kEstimateCap) return kEstimateCap;
    }
  }
  // Instance patterns additionally widen through *derived* subPropertyOf
  // edges landing on the queried predicate (e.g. RDFS12's
  // ContainerMembershipProperty ⇒ member edges), which the backbone's
  // explicit sp-down closure cannot see: enumerate the depth-1 producers
  // of <q subPropertyOf p> and price q's own partition into the union.
  const bool schema_shape =
      pattern.p == v_.sub_class_of || pattern.p == v_.sub_property_of ||
      pattern.p == v_.domain || pattern.p == v_.range || pattern.p == v_.type;
  if (pattern.p != kAnyTerm && !schema_shape) {
    const TriplePattern sp_goal{kAnyTerm, v_.sub_property_of, pattern.p};
    for (const Rule* rule : extension_rules_) {
      instances.clear();
      rule->ExpandGoal(sp_goal, &instances);
      for (const GoalClause& inst : instances) {
        TermId env[kMaxGoalVars];
        ResetEnv(env);
        size_t budget = 64;
        size_t solutions = 0;
        // Enumerate head bindings <q subPropertyOf p>; each derived q adds
        // its partition, restricted to the pattern's bound endpoints.
        std::vector<TriplePattern> sub_heads;
        const std::function<void(size_t, TermId*)> walk = [&](size_t idx,
                                                              TermId* e) {
          if (budget == 0) return;
          if (idx == inst.body.size()) {
            --budget;
            ++solutions;
            const TriplePattern head = GoalAtomPattern(inst.head, e);
            if (head.s != kAnyTerm) {
              sub_heads.push_back(TriplePattern{pattern.s, head.s, pattern.o});
            }
            return;
          }
          TripleVec matches;
          store.ForEachMatch(GoalAtomPattern(inst.body[idx], e),
                             [&](const Triple& t) {
                               if (matches.size() < 64) matches.push_back(t);
                             });
          for (const Triple& t : matches) {
            TermId next[kMaxGoalVars];
            std::memcpy(next, e, sizeof(TermId) * kMaxGoalVars);
            if (BindGoalAtom(inst.body[idx], t, next)) walk(idx + 1, next);
          }
        };
        walk(0, env);
        for (const TriplePattern& sub : sub_heads) {
          total += CountPattern(store, sub);
          if (total >= kEstimateCap) return kEstimateCap;
        }
      }
    }
  }
  return total;
}

size_t BackwardChainer::EstimateCount(const TriplePattern& pattern) const {
  const StoreView store = store_->GetView();
  const size_t backbone = BackboneEstimate(store, pattern);
  const size_t extension = ExtensionEstimate(store, pattern);
  return std::min(backbone + extension, kEstimateCap);
}

}  // namespace slider
