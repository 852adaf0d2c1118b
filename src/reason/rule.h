#ifndef SLIDER_REASON_RULE_H_
#define SLIDER_REASON_RULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rdf/term.h"
#include "rdf/vocabulary.h"
#include "store/triple_store.h"

namespace slider {

/// Maximum number of distinct variable slots a GoalClause may use. Shipped
/// rules use at most five; the bound lets evaluators keep bindings in a
/// fixed-size environment.
inline constexpr int kMaxGoalVars = 8;

/// \brief One term slot of a goal clause: a constant TermId or a
/// clause-scoped variable.
///
/// Variables carrying the same index within one GoalClause denote the same
/// binding (join variables); an index used once is an unconstrained
/// existential. Constants are real term ids (never kAnyTerm).
struct GoalTerm {
  TermId term = kAnyTerm;  ///< constant value; meaningful iff !IsVar()
  int16_t var = -1;        ///< variable slot in [0, kMaxGoalVars); -1 = const

  static GoalTerm Const(TermId t) {
    GoalTerm g;
    g.term = t;
    return g;
  }
  static GoalTerm Var(int v) {
    GoalTerm g;
    g.var = static_cast<int16_t>(v);
    return g;
  }
  bool IsVar() const { return var >= 0; }
};

/// A triple template over GoalTerms.
struct GoalAtom {
  GoalTerm s, p, o;
};

/// \brief One Horn clause of a rule: `head` holds under every variable
/// binding that satisfies all atoms of `body`.
///
/// Body order is significant: it is the join order every evaluator uses
/// (the forward delta join, CanDerive, the chainer), so clauses put their
/// most selective (schema/declaration) atom first. Every head variable must
/// also occur in the body, so a full body solution grounds the head.
struct GoalClause {
  GoalAtom head;
  std::vector<GoalAtom> body;
};

/// \brief One inference rule, defined by its Horn clauses; in Slider each
/// rule is mapped onto an independent rule module (§2).
///
/// The clauses are the rule's single definition. Everything the engines
/// need is compiled from them:
///  - *InputPredicates* (the module buffer's admission filter) are the
///    constant predicates of the body atoms; a body atom with a variable
///    predicate makes the input universal (PRP-SPO1, PRP-DOM, PRP-RNG).
///  - *OutputPredicates* (the edges of the rules dependency graph, §2.3)
///    are the head predicates; a variable head predicate makes the rule
///    emit any predicate (OutputsAnyPredicate).
///  - *Apply* is the incremental forward join of Algorithm 1. Each delta
///    triple takes the place of every body atom it matches, and the other
///    atoms are joined against the store in declaration order. This is the
///    two-direction delta-vs-store join of the paper.
///  - *ExpandGoal* instantiates the clauses against a head pattern for the
///    BackwardChainer (query/backward.h), and *CanDerive* is its depth-1
///    case: the body of each clause whose head matches a ground triple is
///    joined directly against the store.
/// Apply and CanDerive share one body-join enumerator (Apply takes every
/// binding, CanDerive the first). The constructor compiles each clause
/// once per entry point (each body atom for Apply, the head for CanDerive)
/// into a plan whose steps know which variables are bound when they run,
/// so each step reads the store the way its boundness allows: a Contains
/// probe for a ground atom, else ForEachObject, ForEachSubject or
/// ForEachWithPredicate, and ForEachMatch when the predicate is unbound.
///
/// The engine guarantees that the store already contains the delta when
/// Apply runs, which is what makes delta-vs-store joins complete: a pair
/// whose two antecedents arrive in the same delta is found from both sides,
/// so its consequence is emitted twice and the store's duplicate filter
/// drops the second copy (see the note in rules_rhodf.cc).
///
/// Rules never see the store directly: they read through a pinned
/// StoreView (store/triple_store.h), a lock-free monotone snapshot handed
/// in by the engine, so a rule execution acquires no lock at all. A Rule is
/// immutable after construction, so the same rule can run as several
/// concurrent module instances, as in the paper.
///
/// Deletion mode (DRed). Reasoner::Retract drives rules in two extra ways:
///  - *over-delete* reuses Apply itself: a deletion delta is joined against
///    the store (while the delta is still stored) to enumerate the
///    consequences that may have lost support;
///  - *rederive* uses CanDerive: checking each over-deleted triple directly
///    keeps the rederivation cost proportional to the deleted cone.
class Rule {
 public:
  /// Builds a rule from its clauses (at least one; each variable slot below
  /// kMaxGoalVars). `definition` is the human-readable form shown by the
  /// demo GUI and the trace player.
  Rule(std::string name, std::string definition,
       std::vector<GoalClause> clauses);

  /// Stable rule name in the paper's notation, e.g. "CAX-SCO".
  const std::string& name() const { return name_; }

  /// Human-readable rule definition, e.g. for the demo GUI panel.
  const std::string& Definition() const { return definition_; }

  /// The Horn clauses defining the rule.
  const std::vector<GoalClause>& clauses() const { return clauses_; }

  /// Predicates admitted into this rule's buffer. Empty means *universal
  /// input*: the rule consumes triples of every predicate.
  const std::vector<TermId>& InputPredicates() const { return inputs_; }

  /// Predicates this rule can emit. Ignored if OutputsAnyPredicate().
  const std::vector<TermId>& OutputPredicates() const { return outputs_; }

  /// True if the rule can emit triples of arbitrary predicate (PRP-SPO1
  /// emits <x p2 y> for any property p2).
  bool OutputsAnyPredicate() const { return outputs_any_; }

  /// True if the rule consumes every predicate (universal input).
  bool HasUniversalInput() const { return inputs_.empty(); }

  /// True if a triple with predicate `p` is admitted into this rule's
  /// buffer.
  bool AcceptsPredicate(TermId p) const {
    return inputs_.empty() || Lists(inputs_, p);
  }

  /// True if the rule can emit a triple with predicate `p`.
  bool EmitsPredicate(TermId p) const {
    return outputs_any_ || Lists(outputs_, p);
  }

  /// Joins `delta` (newly arrived triples, already present in the viewed
  /// store) against `store` and appends every produced triple to `out`
  /// (duplicates included; the caller deduplicates through the store).
  void Apply(const TripleVec& delta, const StoreView& store,
             TripleVec* out) const;

  /// Emits, for every clause whose head unifies with `head` (kAnyTerm =
  /// unconstrained position), the instantiated clause: variables bound by
  /// the head are replaced with the head's constants throughout, remaining
  /// variables stay as fresh join slots. Appends to `out`.
  void ExpandGoal(const TriplePattern& head,
                  std::vector<GoalClause>* out) const;

  /// Deletion-mode backward check: true iff this rule can produce `t` in
  /// one step from the triples visible through `store` (first satisfying
  /// body binding wins).
  bool CanDerive(const Triple& t, const StoreView& store) const;

 private:
  static bool Lists(const std::vector<TermId>& predicates, TermId p) {
    for (TermId candidate : predicates) {
      if (candidate == p) return true;
    }
    return false;
  }

  /// One body atom of a compiled join. `fresh` marks the positions (bit 0
  /// s, 1 p, 2 o) whose variable is still unbound when the step runs; it
  /// selects the store access (see rule.cc).
  struct JoinStep {
    uint32_t atom = 0;  ///< index into the clause body
    uint8_t fresh = 0;
  };

  /// A clause compiled for one entry point: a delta triple matching body
  /// atom `trigger` (Apply), or a ground head (CanDerive; trigger is the
  /// body size). `steps` are the other atoms: atom `lead` first when it
  /// names one, the rest in declaration order.
  struct JoinPlan {
    uint32_t clause = 0;
    uint32_t trigger = 0;
    std::vector<JoinStep> steps;
  };

  JoinPlan Compile(uint32_t clause, uint32_t trigger, uint32_t lead) const;

  /// The store's estimate of how many bindings `plan`'s first step yields
  /// under `env`: 0 for a membership probe, the row or partition length
  /// for one or two fresh positions, SIZE_MAX for an unbound predicate.
  size_t LeadEstimate(const JoinPlan& plan, const TermId* env,
                      const StoreView& store) const;

  template <typename Emit>
  static bool Join(const std::vector<GoalAtom>& body,
                   const std::vector<JoinStep>& steps, size_t k, TermId* env,
                   const StoreView& store, Emit& emit);

  std::string name_;
  std::string definition_;
  std::vector<GoalClause> clauses_;
  std::vector<TermId> inputs_;   // empty = universal
  std::vector<TermId> outputs_;  // ignored when outputs_any_
  bool outputs_any_ = false;
  std::vector<JoinPlan> forward_plans_;  // per (clause, body atom), in order
  // Per clause, one plan per lead body atom; CanDerive picks the one whose
  // first step the store estimates smallest.
  std::vector<std::vector<JoinPlan>> derive_plans_;
};

using RulePtr = std::shared_ptr<const Rule>;

/// Builds a shared rule (the form fragments hold).
RulePtr MakeRule(std::string name, std::string definition,
                 std::vector<GoalClause> clauses);

/// Tries to extend `env` (kAnyTerm slots = unbound) so that `atom` matches
/// triple `t`; constants must equal, variables bind-or-check. Returns false
/// (env partially updated, discard it) on mismatch.
bool BindGoalAtom(const GoalAtom& atom, const Triple& t, TermId* env);

/// The store pattern `atom` denotes under `env`: constants and bound
/// variables become concrete terms, unbound variables become kAnyTerm
/// wildcards.
TriplePattern GoalAtomPattern(const GoalAtom& atom, const TermId* env);

}  // namespace slider

#endif  // SLIDER_REASON_RULE_H_
