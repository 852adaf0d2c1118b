#include "reason/trree_reasoner.h"

#include <utility>

namespace slider {

TrreeReasoner::TrreeReasoner(Fragment fragment, TripleStore* store,
                             StatementLog* log)
    : fragment_(std::move(fragment)), store_(store), log_(log) {}

Result<MaterializeStats> TrreeReasoner::Materialize(const TripleVec& input) {
  MaterializeStats stats;
  stats.input_count = input.size();

  // The inputs lead the worklist, so the first input.size() pops are the
  // inputs: stored and journaled as explicit, everything after as inferred.
  std::deque<Triple> worklist(input.begin(), input.end());
  for (const Triple& t : input) stats.input_new += seen_.insert(t).second;

  TripleVec single(1);
  TripleVec produced;
  size_t inputs_left = input.size();
  while (!worklist.empty()) {
    const Triple t = worklist.front();
    worklist.pop_front();
    const bool is_input = inputs_left > 0;
    if (is_input) --inputs_left;
    // Statement-at-a-time: insert, then push this one statement through
    // every rule of the fragment.
    if (!store_->Add(t, is_input)) {
      continue;  // already stored (an input may be promoted, see header)
    }
    if (log_ != nullptr) {
      SLIDER_RETURN_NOT_OK(log_->Append(t, is_input));
    }
    ++stats.rounds;  // = statements processed
    if (!is_input) ++stats.inferred_new;
    single[0] = t;
    produced.clear();
    const StoreView view = store_->GetView();
    for (const RulePtr& rule : fragment_.rules()) {
      if (!rule->AcceptsPredicate(t.p)) continue;
      rule->Apply(single, view, &produced);
    }
    stats.derivations += produced.size();
    for (const Triple& consequence : produced) {
      if (seen_.insert(consequence).second) {
        worklist.push_back(consequence);
      }
    }
  }

  cumulative_.input_count += stats.input_count;
  cumulative_.input_new += stats.input_new;
  cumulative_.inferred_new += stats.inferred_new;
  cumulative_.rounds += stats.rounds;
  cumulative_.derivations += stats.derivations;
  return stats;
}

}  // namespace slider
