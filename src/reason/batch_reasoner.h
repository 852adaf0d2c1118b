#ifndef SLIDER_REASON_BATCH_REASONER_H_
#define SLIDER_REASON_BATCH_REASONER_H_

#include <cstdint>

#include "common/result.h"
#include "reason/fragment.h"
#include "store/statement_log.h"
#include "store/triple_store.h"

namespace slider {

/// \brief Counters describing one materialisation run.
struct MaterializeStats {
  size_t input_count = 0;    ///< triples offered to the engine
  size_t input_new = 0;      ///< offered triples that were not duplicates
  size_t inferred_new = 0;   ///< distinct new triples produced by rules
  size_t rounds = 0;         ///< fixpoint rounds executed
  uint64_t derivations = 0;  ///< rule outputs before deduplication
};

/// \brief Classic batch forward-chaining materialiser using semi-naive
/// fixpoint evaluation.
///
/// This engine plays two roles in the reproduction:
///  1. inference core of the OWLIM-SE substitute (see Repository): per
///     round, *every* rule of the fragment is evaluated against the round's
///     delta joined with the full store — a global fixpoint loop with no
///     per-rule routing, the batch scheme the paper contrasts Slider with;
///  2. correctness oracle: property tests assert that Slider's concurrent
///     incremental closure equals this engine's closure on every workload.
class BatchReasoner {
 public:
  /// `store` is borrowed and must outlive the reasoner. `log`, if non-null,
  /// receives every distinct statement with its support flag (the
  /// repository's durability path).
  BatchReasoner(Fragment fragment, TripleStore* store,
                StatementLog* log = nullptr);

  /// Inserts `input` with explicit support and runs rules to fixpoint;
  /// consequences are stored and journaled as inferred. May be called
  /// repeatedly; each call continues from the current store contents (the
  /// *closure maintenance* entry point — Repository models the
  /// full-recompute behaviour of batch systems on top of this). An input
  /// already stored as inferred is promoted in the store but not
  /// re-journaled; Repository never offers one.
  Result<MaterializeStats> Materialize(const TripleVec& input);

  /// Cumulative counters across all Materialize calls.
  const MaterializeStats& cumulative_stats() const { return cumulative_; }

  const Fragment& fragment() const { return fragment_; }

 private:
  Fragment fragment_;
  TripleStore* store_;
  StatementLog* log_;
  MaterializeStats cumulative_;
};

}  // namespace slider

#endif  // SLIDER_REASON_BATCH_REASONER_H_
