#include "reason/rule.h"

#include <algorithm>

#include "common/macros.h"

namespace slider {

namespace {

void ResetEnv(TermId* env) { std::fill(env, env + kMaxGoalVars, kAnyTerm); }

/// Binds one head position: a constant template position must equal the
/// bound goal term; a variable position binds it into `env` (kAnyTerm in
/// `env` = unbound). Unbound goal positions constrain nothing.
bool UnifyPosition(const GoalTerm& tmpl, TermId goal, TermId* env) {
  if (goal == kAnyTerm) return true;
  if (!tmpl.IsVar()) return tmpl.term == goal;
  TermId& slot = env[tmpl.var];
  if (slot == kAnyTerm) {
    slot = goal;
    return true;
  }
  return slot == goal;
}

GoalTerm Substitute(const GoalTerm& t, const TermId* env) {
  if (t.IsVar() && env[t.var] != kAnyTerm) return GoalTerm::Const(env[t.var]);
  return t;
}

GoalAtom Substitute(const GoalAtom& a, const TermId* env) {
  return GoalAtom{Substitute(a.s, env), Substitute(a.p, env),
                  Substitute(a.o, env)};
}

/// JoinStep::fresh bits: the atom positions whose variable is unbound when
/// the step runs. They select how the step reads the store.
constexpr uint8_t kFreshS = 1, kFreshP = 2, kFreshO = 4;

TermId Value(const GoalTerm& g, const TermId* env) {
  return g.IsVar() ? env[g.var] : g.term;
}

}  // namespace

/// The body join shared by Apply and CanDerive: runs `steps[k..]` of a
/// compiled plan over `body`, binding each step's fresh variables in `env`
/// in place (a later step overwrites a fresh variable before it reads it,
/// so `env` is never copied). `emit(env)` sees each complete binding and
/// returns true to stop the enumeration; Join returns true iff it was
/// stopped.
template <typename Emit>
bool Rule::Join(const std::vector<GoalAtom>& body,
                const std::vector<JoinStep>& steps, size_t k, TermId* env,
                const StoreView& store, Emit& emit) {
  if (k == steps.size()) return emit(env);
  const JoinStep& step = steps[k];
  const GoalAtom& a = body[step.atom];
  bool stopped = false;
  const bool last = k + 1 == steps.size();
  const auto next = [&] {
    stopped = last ? emit(env) : Join(body, steps, k + 1, env, store, emit);
  };
  switch (step.fresh) {
    case 0:  // ground: a membership probe
      return store.Contains(
                 Triple(Value(a.s, env), Value(a.p, env), Value(a.o, env))) &&
             Join(body, steps, k + 1, env, store, emit);
    case kFreshO:
      store.ForEachObject(Value(a.p, env), Value(a.s, env), [&](TermId o) {
        if (stopped) return;
        env[a.o.var] = o;
        next();
      });
      break;
    case kFreshS:
      store.ForEachSubject(Value(a.p, env), Value(a.o, env), [&](TermId s) {
        if (stopped) return;
        env[a.s.var] = s;
        next();
      });
      break;
    case kFreshS | kFreshO:
      store.ForEachWithPredicate(Value(a.p, env), [&](TermId s, TermId o) {
        if (stopped || (a.s.var == a.o.var && s != o)) return;
        env[a.s.var] = s;
        env[a.o.var] = o;
        next();
      });
      break;
    default: {
      // The predicate is unbound. Fresh positions are wildcards, and are
      // unbound before each match so that binding checks a variable
      // repeated within the atom.
      const auto unbind = [&] {
        if (step.fresh & kFreshS) env[a.s.var] = kAnyTerm;
        if (step.fresh & kFreshP) env[a.p.var] = kAnyTerm;
        if (step.fresh & kFreshO) env[a.o.var] = kAnyTerm;
      };
      unbind();
      store.ForEachMatch(GoalAtomPattern(a, env), [&](const Triple& t) {
        if (stopped) return;
        unbind();
        if (BindGoalAtom(a, t, env)) next();
      });
    }
  }
  return stopped;
}

Rule::Rule(std::string name, std::string definition,
           std::vector<GoalClause> clauses)
    : name_(std::move(name)),
      definition_(std::move(definition)),
      clauses_(std::move(clauses)) {
  SLIDER_CHECK(!clauses_.empty());
  bool universal = false;
  const auto add_unique = [](std::vector<TermId>* set, TermId p) {
    if (!Lists(*set, p)) set->push_back(p);
  };
  for (const GoalClause& clause : clauses_) {
    SLIDER_CHECK(!clause.body.empty());
    for (const GoalAtom& atom : clause.body) {
      for (const GoalTerm& term : {atom.s, atom.p, atom.o}) {
        SLIDER_CHECK(term.var < kMaxGoalVars);
      }
      if (atom.p.IsVar()) {
        universal = true;
      } else {
        add_unique(&inputs_, atom.p.term);
      }
    }
    if (clause.head.p.IsVar()) {
      outputs_any_ = true;
    } else {
      add_unique(&outputs_, clause.head.p.term);
    }
  }
  if (universal) inputs_.clear();
  if (outputs_any_) outputs_.clear();
  for (uint32_t c = 0; c < clauses_.size(); ++c) {
    const uint32_t body_size = static_cast<uint32_t>(clauses_[c].body.size());
    for (uint32_t i = 0; i < body_size; ++i) {
      forward_plans_.push_back(Compile(c, i, body_size));
    }
    std::vector<JoinPlan> leads;
    for (uint32_t lead = 0; lead < body_size; ++lead) {
      leads.push_back(Compile(c, body_size, lead));
    }
    derive_plans_.push_back(std::move(leads));
  }
}

Rule::JoinPlan Rule::Compile(uint32_t clause, uint32_t trigger,
                             uint32_t lead) const {
  const std::vector<GoalAtom>& body = clauses_[clause].body;
  bool bound[kMaxGoalVars] = {};
  const auto bind_all = [&bound](const GoalAtom& a) {
    for (const GoalTerm& g : {a.s, a.p, a.o}) {
      if (g.IsVar()) bound[g.var] = true;
    }
  };
  // The entry triple grounds the trigger atom, or the head for CanDerive.
  bind_all(trigger < body.size() ? body[trigger] : clauses_[clause].head);
  JoinPlan plan;
  plan.clause = clause;
  plan.trigger = trigger;
  std::vector<uint32_t> order;
  if (lead < body.size()) order.push_back(lead);
  for (uint32_t i = 0; i < body.size(); ++i) {
    if (i != trigger && i != lead) order.push_back(i);
  }
  for (const uint32_t i : order) {
    const GoalAtom& a = body[i];
    const auto is_bound = [&bound](const GoalTerm& g) {
      return !g.IsVar() || bound[g.var];
    };
    JoinStep step;
    step.atom = i;
    step.fresh = (is_bound(a.s) ? 0 : kFreshS) |
                 (is_bound(a.p) ? 0 : kFreshP) |
                 (is_bound(a.o) ? 0 : kFreshO);
    plan.steps.push_back(step);
    bind_all(a);
  }
  return plan;
}

RulePtr MakeRule(std::string name, std::string definition,
                 std::vector<GoalClause> clauses) {
  return std::make_shared<const Rule>(std::move(name), std::move(definition),
                                      std::move(clauses));
}

void Rule::Apply(const TripleVec& delta, const StoreView& store,
                 TripleVec* out) const {
  TermId env[kMaxGoalVars];
  for (const Triple& t : delta) {
    for (const JoinPlan& plan : forward_plans_) {
      const GoalClause& clause = clauses_[plan.clause];
      const GoalAtom& trigger = clause.body[plan.trigger];
      if (!trigger.p.IsVar() && trigger.p.term != t.p) continue;
      ResetEnv(env);
      if (!BindGoalAtom(trigger, t, env)) continue;
      const auto emit = [&](const TermId* bound) {
        out->push_back(Triple(Value(clause.head.s, bound),
                              Value(clause.head.p, bound),
                              Value(clause.head.o, bound)));
        return false;
      };
      Join(clause.body, plan.steps, 0, env, store, emit);
    }
  }
}

void Rule::ExpandGoal(const TriplePattern& head,
                      std::vector<GoalClause>* out) const {
  for (const GoalClause& clause : clauses_) {
    TermId env[kMaxGoalVars];
    ResetEnv(env);
    if (!UnifyPosition(clause.head.s, head.s, env) ||
        !UnifyPosition(clause.head.p, head.p, env) ||
        !UnifyPosition(clause.head.o, head.o, env)) {
      continue;
    }
    GoalClause instance;
    instance.head = Substitute(clause.head, env);
    instance.body.reserve(clause.body.size());
    for (const GoalAtom& atom : clause.body) {
      instance.body.push_back(Substitute(atom, env));
    }
    out->push_back(std::move(instance));
  }
}

size_t Rule::LeadEstimate(const JoinPlan& plan, const TermId* env,
                          const StoreView& store) const {
  const JoinStep& step = plan.steps.front();
  const GoalAtom& a = clauses_[plan.clause].body[step.atom];
  switch (step.fresh) {
    case 0:
      return 0;
    case kFreshO:
      return store.CountObjects(Value(a.p, env), Value(a.s, env));
    case kFreshS:
      return store.CountSubjects(Value(a.p, env), Value(a.o, env));
    case kFreshS | kFreshO:
      return store.CountWithPredicate(Value(a.p, env));
    default:
      return SIZE_MAX;  // unbound predicate: a scan
  }
}

bool Rule::CanDerive(const Triple& t, const StoreView& store) const {
  const auto found = [](const TermId*) { return true; };
  for (const std::vector<JoinPlan>& leads : derive_plans_) {
    const GoalClause& clause = clauses_[leads.front().clause];
    TermId env[kMaxGoalVars];
    ResetEnv(env);
    if (!BindGoalAtom(clause.head, t, env)) continue;
    // Lead with the atom that fans out least under the head's bindings:
    // CAX-SCO proving <x type C> should walk x's few types, not every
    // subclass of a hub class C.
    const JoinPlan* best = &leads.front();
    size_t best_estimate =
        leads.size() > 1 ? LeadEstimate(*best, env, store) : 0;
    for (size_t i = 1; i < leads.size() && best_estimate > 0; ++i) {
      const size_t estimate = LeadEstimate(leads[i], env, store);
      if (estimate < best_estimate) {
        best = &leads[i];
        best_estimate = estimate;
      }
    }
    if (Join(clause.body, best->steps, 0, env, store, found)) return true;
  }
  return false;
}

bool BindGoalAtom(const GoalAtom& atom, const Triple& t, TermId* env) {
  const auto bind = [env](const GoalTerm& slot, TermId value) {
    if (!slot.IsVar()) return slot.term == value;
    TermId& bound = env[slot.var];
    if (bound == kAnyTerm) bound = value;
    return bound == value;
  };
  return bind(atom.s, t.s) && bind(atom.p, t.p) && bind(atom.o, t.o);
}

TriplePattern GoalAtomPattern(const GoalAtom& atom, const TermId* env) {
  const auto resolve = [env](const GoalTerm& t) {
    if (!t.IsVar()) return t.term;
    return env[t.var];  // kAnyTerm when unbound
  };
  return TriplePattern{resolve(atom.s), resolve(atom.p), resolve(atom.o)};
}

}  // namespace slider
