#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// The traced run's in-process replay: the seeded request log, one request
// at a time, with spans and counters around the public call of each layer.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "reason/repository.h"
#include "requests.h"

namespace perfbench {

struct ReplayOutcome {
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t selects = 0;
  uint64_t updates = 0;
  std::vector<std::string> errors;
  Tracer tracer;

  /// Replay-side per-layer metrics (names as in BENCHMARK.json).
  std::vector<Metric> metrics;
  /// p50 of a whole SELECT, HTTP head parse to last serialized byte (ms).
  double select_p50_ms = 0;

  /// Deterministic work counters: identical across runs of one seed.
  uint64_t derivations = 0;
  uint64_t match_rows = 0;
  /// Not deterministic: Reasoner::Flush hands buffers to the pool while a
  /// pool thread may refill them, so batch boundaries depend on timing.
  uint64_t rule_executions = 0;
  /// Explicit statements inserted plus removed by the log's updates.
  uint64_t explicit_changes = 0;
};

/// Replays `log` against `repo` on the calling thread. SELECTs run through
/// ParseRequestHead, SparqlParser::Parse, QueryEvaluator::PlanJoinOrder and
/// QueryEvaluator::Stream over a counting MatchProvider into a timed
/// JsonSerializer; updates through ParseRequestHead,
/// SparqlParser::ParseUpdate and one Repository::ExecuteUpdate per
/// operation, a DELETE WHERE first expanded by ExpandDeleteWhere and applied
/// as the DELETE DATA of its matches.
ReplayOutcome Replay(slider::Repository* repo, const std::vector<Request>& log);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
