#ifndef SLIDER_REASON_TRREE_REASONER_H_
#define SLIDER_REASON_TRREE_REASONER_H_

#include <deque>

#include "reason/batch_reasoner.h"
#include "reason/fragment.h"
#include "store/statement_log.h"
#include "store/triple_store.h"

namespace slider {

/// \brief Statement-at-a-time forward-chaining materialiser, modelled on
/// the inference architecture of OWLIM-SE's TRREE engine (the baseline
/// system of the paper's evaluation).
///
/// OWLIM performs total materialisation by pushing each statement —
/// explicit or inferred — individually through the entire ruleset upon
/// insertion, recursing on the consequences. This engine reproduces that
/// scheme with an explicit worklist:
///
///   pop statement t → insert into store (dedup) → for every rule R of the
///   fragment: R({t} ⋈ store) → enqueue unseen consequences.
///
/// The joins performed are the same as Slider's; the architectural
/// difference the paper exploits is the *granularity*: one statement and
/// the full ruleset per step (no batching, no predicate-routed buffers), so
/// the per-statement dispatch and index-probe overhead is paid |closure| ×
/// |rules| times. Used by Repository as the default baseline inference
/// core; also a third correctness oracle in the property tests.
class TrreeReasoner {
 public:
  /// `store` is borrowed. `log`, if non-null, receives every distinct
  /// statement with its support flag (repository durability path).
  TrreeReasoner(Fragment fragment, TripleStore* store,
                StatementLog* log = nullptr);

  /// Inserts `input` with explicit support and processes the worklist to
  /// exhaustion; consequences are stored and journaled as inferred. An
  /// input already stored as inferred is promoted in the store but not
  /// re-journaled (Repository's batch modes never offer one: each of their
  /// recomputes starts from an empty store). MaterializeStats::rounds
  /// counts processed statements here.
  Result<MaterializeStats> Materialize(const TripleVec& input);

  const MaterializeStats& cumulative_stats() const { return cumulative_; }

  const Fragment& fragment() const { return fragment_; }

 private:
  Fragment fragment_;
  TripleStore* store_;
  StatementLog* log_;
  MaterializeStats cumulative_;
  /// Statements ever enqueued; keeps the worklist duplicate-free so queue
  /// growth is bounded by the closure size.
  TripleSet seen_;
};

}  // namespace slider

#endif  // SLIDER_REASON_TRREE_REASONER_H_
