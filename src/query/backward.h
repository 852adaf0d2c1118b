#ifndef SLIDER_QUERY_BACKWARD_H_
#define SLIDER_QUERY_BACKWARD_H_

#include <functional>
#include <vector>

#include "query/evaluator.h"
#include "rdf/vocabulary.h"
#include "reason/rule.h"
#include "store/triple_store.h"

namespace slider {

/// \brief Goal-directed (backward/SLD) match provider over an arbitrary
/// rule set.
///
/// This is the approach Slider argues against (§1): instead of
/// materialising the closure up-front, each query pattern is resolved
/// through the rules *at query time* over the raw (non-materialised)
/// store. The engine is generic: it consumes the Horn clauses that define
/// every rule, through Rule::ExpandGoal (reason/rule.h) — the same clauses
/// the forward join and the DRed rederivation check compile from — so any
/// fragment is answered without chainer changes.
///
/// Resolution strategy, per top-level Match call:
///  - every subgoal (a triple pattern) is *tabled*: its answers accumulate
///    in a per-call memo, each pattern is expanded at most once per pass,
///    and re-entrant goals (cycles through the rule graph or through
///    cyclic hierarchies) read the answers tabled so far instead of
///    recursing forever;
///  - a goal expands by (a) scanning the explicit store and (b)
///    instantiating every rule clause whose head unifies with it
///    (ExpandGoal), joining the instantiated body left-to-right, each body
///    atom being a recursive subgoal;
///  - passes repeat until a global fixpoint (no subgoal gained an answer),
///    which makes the engine complete on recursive rules without
///    SCC-completeness bookkeeping;
///  - clause instances of the self-transitive shape
///    `(a P b) ⇐ guards ∧ (a P m) ∧ (m P b)` — SCM-SCO, SCM-SPO, and
///    PRP-TRP once its declaration guard is pinned — are recognized
///    structurally and answered by breadth-first reachability over the
///    goal's *base relation* (the same goal solved with the transitive
///    clause cut), turning the worst recursive case into the linear graph
///    walk the ρdf chainer always had. The recognition is shape-based, not
///    name-based: custom transitive rules get the fast path for free.
///
/// The memo lives for one Match call; cross-query reuse is the
/// TablingCache's job (query/tabling.h), where the HybridProvider
/// memoizes whole per-pattern answer sets. All reads go through one
/// StoreView pinned for the whole call: zero locks, one monotone snapshot.
///
/// Its cost profile — recursive expansion and set bookkeeping on *every*
/// pattern — is the "more complex query evaluation that adversely affects
/// performance and scalability" the paper quotes; bench_query_modes
/// measures it against the ForwardProvider. Besides serving as the
/// standalone worst case, the chainer is the backward half of the hybrid
/// answering stack (query/hybrid.h), and the Repository's kHybrid mode
/// uses it as the oracle that materialises its eager schema closure.
class BackwardChainer : public MatchProvider {
 public:
  /// Chains over the ρdf fragment's eight rules (the paper's Figure 2) —
  /// the historical default.
  BackwardChainer(const TripleStore* store, const Vocabulary& v);

  /// Chains over an explicit rule set.
  BackwardChainer(const TripleStore* store, const Vocabulary& v,
                  std::vector<RulePtr> rules);

  void Match(const TriplePattern& pattern,
             const std::function<void(const Triple&)>& sink) const override;

  /// Expansion-aware answer-cardinality estimate, the backward half of the
  /// HybridProvider's cost model. A shape-based model prices the ρdf
  /// backbone (transitive closures, schema inheritance, type evidence,
  /// sub-property unions) from the explicit partition counts; clauses of
  /// rules outside that backbone are priced by a budgeted depth-1
  /// enumeration of their instantiated bodies (falling back to a product
  /// upper bound when the budget trips), so patterns only extension rules
  /// can produce — symmetric/inverse/transitive properties, rdfs:member
  /// via derived subPropertyOf edges — no longer estimate to ~0.
  size_t EstimateCount(const TriplePattern& pattern) const override;

  const std::vector<RulePtr>& rules() const { return rules_; }

 private:
  size_t BackboneEstimate(const StoreView& store,
                          const TriplePattern& pattern) const;
  size_t ExtensionEstimate(const StoreView& store,
                           const TriplePattern& pattern) const;

  /// Explicit sp-down closure used by the backbone estimate.
  std::vector<TermId> SubPropertiesOf(const StoreView& store, TermId p) const;

  const TripleStore* store_;
  Vocabulary v_;
  std::vector<RulePtr> rules_;
  /// Rules outside the shape-priced ρdf backbone (EstimateCount only).
  std::vector<const Rule*> extension_rules_;
};

}  // namespace slider

#endif  // SLIDER_QUERY_BACKWARD_H_
