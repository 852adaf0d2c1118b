#include "reason/batch_reasoner.h"

#include <utility>

namespace slider {

BatchReasoner::BatchReasoner(Fragment fragment, TripleStore* store,
                             StatementLog* log)
    : fragment_(std::move(fragment)), store_(store), log_(log) {}

Result<MaterializeStats> BatchReasoner::Materialize(const TripleVec& input) {
  MaterializeStats stats;
  stats.input_count = input.size();

  TripleVec delta;
  stats.input_new = store_->AddAll(input, &delta);
  if (log_ != nullptr) {
    SLIDER_RETURN_NOT_OK(log_->AppendBatch(delta));
  }

  TripleVec produced;
  while (!delta.empty()) {
    ++stats.rounds;
    produced.clear();
    // Global round: every rule sees the full delta, whether or not any of
    // its triples are relevant to the rule — the scan Slider's
    // predicate-routed buffers avoid.
    const StoreView view = store_->GetView();
    for (const RulePtr& rule : fragment_.rules()) {
      rule->Apply(delta, view, &produced);
    }
    stats.derivations += produced.size();
    TripleVec next;
    stats.inferred_new +=
        store_->AddAll(produced, &next, /*is_explicit=*/false);
    if (log_ != nullptr) {
      for (const Triple& t : next) {
        SLIDER_RETURN_NOT_OK(log_->Append(t, /*is_explicit=*/false));
      }
    }
    delta = std::move(next);
  }

  cumulative_.input_count += stats.input_count;
  cumulative_.input_new += stats.input_new;
  cumulative_.inferred_new += stats.inferred_new;
  cumulative_.rounds += stats.rounds;
  cumulative_.derivations += stats.derivations;
  return stats;
}

}  // namespace slider
