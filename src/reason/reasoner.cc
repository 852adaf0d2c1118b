#include "reason/reasoner.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "rdf/ntriples.h"

namespace slider {

namespace {

/// Rounds of up to this many triples run on the caller's thread (see the
/// class comment), and larger deletion rounds go to the pool in chunks of
/// this size.
constexpr size_t kSmallRound = 2048;

}  // namespace

Reasoner::Reasoner(const FragmentFactory& factory, ReasonerOptions options)
    : Reasoner(factory, options, nullptr, nullptr, nullptr) {}

Reasoner::Reasoner(const FragmentFactory& factory, ReasonerOptions options,
                   Dictionary* dict, TripleStore* store, StatementLog* log)
    : options_(options),
      owned_dict_(dict == nullptr ? std::make_unique<Dictionary>() : nullptr),
      dict_(dict == nullptr ? owned_dict_.get() : dict),
      vocab_(Vocabulary::Register(dict_)),
      fragment_(factory(vocab_, dict_)),
      graph_(DependencyGraph::Build(fragment_)),
      owned_store_(store == nullptr ? std::make_unique<TripleStore>()
                                    : nullptr),
      store_(store == nullptr ? owned_store_.get() : store),
      log_(log) {
  // An attached non-empty store (recovery) seeds the live counters from its
  // support flags; a fresh store seeds zeros either way.
  const size_t pre_explicit = store_->ExplicitCount();
  explicit_count_.store(pre_explicit);
  inferred_count_.store(store_->size() - pre_explicit);
  const auto& rules = fragment_.rules();
  modules_.reserve(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    auto module = std::make_unique<RuleModule>();
    module->rule = rules[i];
    module->buffer = std::make_unique<Buffer>(options_.buffer_size);
    module->successors = graph_.SuccessorsOf(static_cast<int>(i));
    modules_.push_back(std::move(module));
    all_modules_.push_back(static_cast<int>(i));
  }
  int threads = options_.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 2;
  }
  pool_ = std::make_unique<ThreadPool>(threads);
  if (options_.enable_timeout_flusher) {
    timeout_thread_ = std::thread([this] { TimeoutLoop(); });
  }
}

Reasoner::~Reasoner() {
  // Complete outstanding work so no triples are silently dropped, then stop
  // the scanner before tearing down the pool.
  Flush();
  stop_timeout_.store(true);
  if (timeout_thread_.joinable()) {
    timeout_thread_.join();
  }
  pool_->Shutdown();
}

void Reasoner::AddTriple(const Triple& t) { AddTriples({t}); }

void Reasoner::AddTriples(const TripleVec& batch) {
  StoreAndRoute(batch, all_modules_, /*is_input=*/true);
}

Status Reasoner::AddNTriples(std::string_view document) {
  // Statements are fed in parser-sized chunks so inference overlaps with
  // parsing, as in streamed ingestion.
  constexpr size_t kChunk = 4096;
  TripleVec chunk;
  chunk.reserve(kChunk);
  Status st = NTriplesParser::ParseDocument(
      document, [&](const ParsedTriple& t) -> Status {
        chunk.push_back(dict_->EncodeTriple(t.subject, t.predicate, t.object));
        if (chunk.size() >= kChunk) {
          AddTriples(chunk);
          chunk.clear();
        }
        return Status::OK();
      });
  SLIDER_RETURN_NOT_OK(st);
  if (!chunk.empty()) {
    AddTriples(chunk);
  }
  return Status::OK();
}

void Reasoner::StoreAndRoute(const TripleVec& batch,
                             const std::vector<int>& candidates, bool is_input) {
  if (batch.empty()) return;
  // Store first: the completeness invariant requires a triple to be visible
  // to store-side joins before any buffer holds it. Input carries explicit
  // support; a re-asserted inferred triple is promoted without re-routing
  // (its consequences are already materialised).
  TripleVec delta;
  delta.reserve(batch.size());
  TripleVec promoted;
  store_->AddAll(batch, &delta, /*is_explicit=*/is_input,
                is_input ? &promoted : nullptr);
  if (!promoted.empty()) {
    // Journaled as explicit additions, which replay applies as promotions.
    LogAdditions(promoted, /*is_explicit=*/true);
    explicit_count_.fetch_add(promoted.size());
    inferred_count_.fetch_sub(promoted.size());
  }
  if (delta.empty()) return;
  LogAdditions(delta, /*is_explicit=*/is_input);
  if (is_input) {
    explicit_count_.fetch_add(delta.size());
    Trace(TraceEventType::kInput, "", delta.size());
  } else {
    Trace(TraceEventType::kRouted, "", delta.size());
  }
  RouteToModules(delta, candidates);
}

void Reasoner::RouteToModules(const TripleVec& delta,
                              const std::vector<int>& candidates) {
  // Group the delta per target module and push each group under a single
  // buffer lock; routing triple-by-triple would serialise every module on
  // its buffer mutex.
  TripleVec accepted;
  std::vector<TripleVec> flushed;
  for (int idx : candidates) {
    RuleModule& module = *modules_[static_cast<size_t>(idx)];
    accepted.clear();
    if (module.rule->HasUniversalInput()) {
      accepted = delta;
    } else {
      for (const Triple& t : delta) {
        if (module.rule->AcceptsPredicate(t.p)) accepted.push_back(t);
      }
    }
    if (accepted.empty()) continue;
    module.accepted.fetch_add(accepted.size());
    flushed.clear();
    module.buffer->PushBatch(accepted, &flushed);
    for (TripleVec& batch : flushed) {
      Trace(TraceEventType::kBufferFull, module.rule->name(), batch.size());
      SubmitTask(idx, std::move(batch));
    }
  }
}

void Reasoner::SubmitTask(int idx, TripleVec batch) {
  const size_t batch_size = batch.size();
  const bool accepted = pool_->Submit([this, idx, batch = std::move(batch)] {
    ExecuteRule(idx, batch);
  });
  if (!accepted) {
    // Only reachable when a flusher races the destructor's Shutdown();
    // Flush() has already drained every batch that matters by then, but a
    // silently dropped non-empty batch is still worth a trace in the log.
    SLIDER_LOG(kWarning) << "rule batch of " << batch_size
                         << " dropped: pool already shut down";
  }
}

void Reasoner::ExecuteRule(int idx, const TripleVec& batch) {
  RuleModule& module = *modules_[static_cast<size_t>(idx)];
  TripleVec produced;
  // One pinned view per execution: the join reads take no lock, and the
  // store-before-route invariant guarantees the view contains the batch.
  module.rule->Apply(batch, store_->GetView(), &produced);
  module.executions.fetch_add(1);
  module.derivations.fetch_add(produced.size());
  Trace(TraceEventType::kRuleExecuted, module.rule->name(), batch.size());
  if (produced.empty()) return;

  // Distributor: store (dedup, inferred support) then route only the new
  // triples to the dependency-graph successors.
  TripleVec delta;
  delta.reserve(produced.size());
  store_->AddAll(produced, &delta, /*is_explicit=*/false);
  if (delta.empty()) return;
  LogAdditions(delta, /*is_explicit=*/false);
  module.inferred_new.fetch_add(delta.size());
  inferred_count_.fetch_add(delta.size());
  Trace(TraceEventType::kInferred, module.rule->name(), delta.size());
  RouteToModules(delta, module.successors);
}

void Reasoner::Flush() {
  std::vector<std::pair<int, TripleVec>> batches;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(transfer_mu_);
      batches.clear();
      size_t total = 0;
      for (size_t i = 0; i < modules_.size(); ++i) {
        std::optional<TripleVec> batch = modules_[i]->buffer->FlushNow();
        if (batch.has_value()) {
          Trace(TraceEventType::kForcedFlush, modules_[i]->rule->name(),
                batch->size());
          total += batch->size();
          batches.emplace_back(static_cast<int>(i), std::move(*batch));
        }
      }
      // A small round, one that fills no buffer, runs on this thread:
      // handing a few triples to the pool costs more in wake-ups than the
      // joins do. It runs inside the critical section, so a concurrent
      // Flush() cannot observe its triples in neither a buffer nor the
      // pool; what it derives lands in the buffers (or the pool, if one
      // fills) before the lock is released.
      const bool run_here =
          total < options_.buffer_size && total <= kSmallRound;
      for (auto& [idx, batch] : batches) {
        if (run_here) {
          ExecuteRule(idx, batch);
        } else {
          SubmitTask(idx, std::move(batch));
        }
      }
    }
    pool_->WaitIdle();
    // Tasks may have refilled buffers below their thresholds; loop until
    // the whole pipeline is drained. The quiescence check must hold
    // transfer_mu_: the timeout scanner moves triples from a buffer into a
    // task inside the same critical section, so under the lock
    // "buffers empty ∧ pool idle" cannot hide an in-flight transfer.
    {
      std::lock_guard<std::mutex> lock(transfer_mu_);
      if (AllBuffersEmpty() && pool_->IsIdle()) {
        return;
      }
    }
  }
}

Reasoner::RetractStats Reasoner::Retract(const TripleVec& batch) {
  RetractStats stats;
  stats.requested = batch.size();
  // Quiescence: the DRed phases assume no in-flight rule task mutates the
  // store while the cone is walked. Flush() drains the pipeline; the
  // timeout scanner stays harmless because every buffer remains empty until
  // the rederive phase feeds them again.
  Flush();
  std::lock_guard<std::mutex> guard(retract_mu_);

  // Phase 1 (demote): victims lose their explicit support. Offers that are
  // absent or inferred-only are not assertions and are ignored; SetSupport
  // also deduplicates repeated offers, since only the first flips the flag.
  TripleVec round;
  for (const Triple& t : batch) {
    if (store_->SetSupport(t, /*is_explicit=*/false) != 1) continue;
    round.push_back(t);
  }
  stats.retracted = round.size();
  if (round.empty()) return stats;
  explicit_count_.fetch_sub(round.size());

  // One-step derivability from the *surviving explicit facts only*. A hit
  // is a sound survival proof: one-step derivable from the explicit set E'
  // implies membership in closure(E'). Used by the counting fast path; the
  // head-shape pre-filter mirrors phase 3's.
  const auto can_derive_explicit = [&](const Triple& t,
                                       const StoreView& explicit_view) {
    for (const auto& module : modules_) {
      const Rule& rule = *module->rule;
      if (!rule.EmitsPredicate(t.p)) continue;
      ++stats.count_checks;
      if (rule.CanDerive(t, explicit_view)) return true;
    }
    return false;
  };

  // Phase 1.5 (counting gate): a victim whose derivation count says "other
  // derivations exist" — exact, nonzero, not saturated — is offered a
  // survival proof against the explicit view. Survivors simply stay stored
  // as inferred facts; their entire over-delete/rederive cone is skipped.
  // The explicit set is stable for the rest of this call (phase 2 erases
  // inferred triples only), so one pinned view serves every probe.
  const bool counting = options_.enable_counting;
  std::optional<StoreView> explicit_view;
  if (counting) {
    explicit_view.emplace(store_->GetExplicitView());
    TripleVec into_cone;
    TripleVec survivors;
    for (const Triple& t : round) {
      const int count = store_->DerivationCount(t);
      if (count > 0 && count < LfRow::kCountSaturated &&
          can_derive_explicit(t, *explicit_view)) {
        survivors.push_back(t);
        continue;
      }
      into_cone.push_back(t);
    }
    round.swap(into_cone);
    // Fast-path victims flipped from the explicit to the inferred
    // population without passing through the cone. Replay never demotes on
    // an inferred record alone, so the flip is journaled as a tombstone
    // followed by an inferred re-add.
    stats.count_fast_path = survivors.size();
    inferred_count_.fetch_add(survivors.size());
    LogTombstones(survivors);
    LogAdditions(survivors, /*is_explicit=*/false);
  }

  // Phase 2 (over-delete): walk the deletion cone in rounds. Each round's
  // delta is joined against the store by every module that admits it —
  // while the delta is still stored, so a pair whose two antecedents die in
  // the same retraction is seen by whichever side is processed first, the
  // mirror of the insert path's store-before-route invariant — and only
  // then erased. Consequences that survive as explicit facts stop the cone;
  // the rest become the next round's delta, routed along the dependency
  // graph exactly like inserted triples are.
  const size_t num_modules = modules_.size();
  std::vector<TripleVec> pending(num_modules);
  for (size_t m = 0; m < num_modules; ++m) {
    for (const Triple& t : round) {
      if (modules_[m]->rule->AcceptsPredicate(t.p)) pending[m].push_back(t);
    }
  }
  TripleSet deleted;
  // Deletion-mode joins run on the pool: every module's round delta is
  // chunked into parallel tasks, so one hot module no longer serializes a
  // round, and — reads being pinned lock-free views — the tasks never
  // convoy with each other either.
  struct DeleteTask {
    size_t module;
    const TripleVec* borrowed;  // whole-delta case: points into `pending`
    TripleVec owned;            // split case: one chunk, copied
    TripleVec out;
  };
  while (!round.empty()) {
    ++stats.delete_rounds;
    std::vector<DeleteTask> tasks;
    size_t round_size = 0;
    for (size_t m = 0; m < num_modules; ++m) {
      const TripleVec& p = pending[m];
      if (p.empty()) continue;
      round_size += p.size();
      if (p.size() <= kSmallRound) {
        // Common case, zero copy: `pending` is immutable until after
        // WaitIdle, so the task can borrow the whole delta.
        tasks.push_back(DeleteTask{m, &p, TripleVec{}, TripleVec{}});
        continue;
      }
      for (size_t start = 0; start < p.size(); start += kSmallRound) {
        const size_t end = std::min(p.size(), start + kSmallRound);
        tasks.push_back(DeleteTask{
            m, nullptr,
            TripleVec(p.begin() + static_cast<ptrdiff_t>(start),
                      p.begin() + static_cast<ptrdiff_t>(end)),
            TripleVec{}});
      }
    }
    // A round of at most one chunk runs on this thread; larger rounds go to
    // the pool. `tasks` is fully built before the first submit: element
    // addresses stay stable while the pool writes the per-task outputs.
    const auto apply = [this](DeleteTask& task) {
      const TripleVec& batch =
          task.borrowed != nullptr ? *task.borrowed : task.owned;
      modules_[task.module]->rule->Apply(batch, store_->GetView(), &task.out);
    };
    if (round_size <= kSmallRound) {
      for (DeleteTask& task : tasks) apply(task);
    } else {
      for (DeleteTask& task : tasks) {
        pool_->Submit([&apply, &task] { apply(task); });
      }
      pool_->WaitIdle();
    }
    TripleVec erased_round;
    for (const Triple& t : round) {
      if (store_->Erase(t)) {
        deleted.insert(t);
        erased_round.push_back(t);
        ++stats.overdeleted;
      }
    }
    // Tombstones are logged as the cone is erased; rederivation re-logs
    // whatever comes back, so an ordered replay lands on the final store.
    LogTombstones(erased_round);
    // Route the fresh candidates. `routed` both deduplicates the round and
    // records which successor buffers a candidate already reached when two
    // producers feed the same module (the mask degrades to per-producer
    // routing past 64 rules, which only costs duplicate deletion work).
    // One view covers the filter probes; the erases above happened on this
    // thread, so the view observes them.
    const StoreView view = store_->GetView();
    std::unordered_map<Triple, uint64_t, TripleHash> routed;
    std::vector<TripleVec> next_pending(num_modules);
    TripleVec next_round;
    for (const DeleteTask& task : tasks) {
      const size_t m = task.module;
      stats.delete_derivations += task.out.size();
      for (const Triple& c : task.out) {
        if (!view.Contains(c) || view.IsExplicit(c)) continue;
        auto [it, fresh] = routed.try_emplace(c, 0);
        if (fresh) {
          if (counting) {
            // One derivation of c — through the antecedents this round just
            // deleted — is gone; decrement, and if the count still reports
            // other derivations, try the explicit-view survival proof. A
            // hit prunes c's whole cone: c stays stored (never erased, so
            // the inferred counter is untouched) and routes nowhere.
            const int remaining_count = store_->DecrementDerivations(c);
            if (remaining_count > 0 &&
                can_derive_explicit(c, *explicit_view)) {
              ++stats.cone_pruned;
              it->second = ~uint64_t{0};  // block successor routing
              continue;
            }
          }
          next_round.push_back(c);
        }
        for (int s : modules_[m]->successors) {
          if (!modules_[s]->rule->AcceptsPredicate(c.p)) continue;
          if (s < 64) {
            const uint64_t bit = 1ull << s;
            if ((it->second & bit) != 0) continue;
            it->second |= bit;
          }
          next_pending[static_cast<size_t>(s)].push_back(c);
        }
      }
    }
    round.swap(next_round);
    pending.swap(next_pending);
  }
  // Victims were demoted before the cone walk, so every erased triple held
  // inferred support at erase time; the victims that entered the cone were
  // never part of the inferred population (fast-path survivors joined it in
  // phase 1.5 and were not erased), which the counter arithmetic restores
  // here in one step.
  inferred_count_.fetch_sub(stats.overdeleted -
                            (stats.retracted - stats.count_fast_path));

  // Phase 3 (rederive): over-deletion is conservative — a deleted triple
  // may still be derivable from the survivors. Each over-deleted triple is
  // tested directly with the rules' deletion-mode backward checks
  // (Rule::CanDerive: one-step derivability from the current store);
  // restored triples re-enter with inferred support and can support further
  // restorations, so the passes iterate to a fixpoint. This keeps the
  // rederivation cost proportional to the deleted cone — forward re-seeding
  // would re-join entire hub neighborhoods (every rdf:type survivor for one
  // retracted type assertion) to restore a handful of facts.
  const size_t size_before = store_->size();
  TripleVec remaining(deleted.begin(), deleted.end());
  while (!remaining.empty()) {
    TripleVec restored;
    TripleVec still_missing;
    // One view per pass: the pass checks against the store state at pass
    // start; triples restored by this pass are added below and a fresh
    // view picks them up next iteration.
    const StoreView check_view = store_->GetView();
    for (const Triple& t : remaining) {
      bool derivable = false;
      for (const auto& module : modules_) {
        const Rule& rule = *module->rule;
        // Head-shape pre-filter: skip rules that cannot emit t's predicate.
        if (!rule.EmitsPredicate(t.p)) continue;
        ++stats.rederive_checks;
        if (rule.CanDerive(t, check_view)) {
          derivable = true;
          break;
        }
      }
      if (derivable) {
        restored.push_back(t);
      } else {
        still_missing.push_back(t);
      }
    }
    if (restored.empty()) break;
    // Restored triples need no routing: anything they can support is
    // either a survivor (already stored) or over-deleted (checked again
    // next pass against the store that now contains them).
    store_->AddAll(restored, nullptr, /*is_explicit=*/false);
    LogAdditions(restored, /*is_explicit=*/false);
    inferred_count_.fetch_add(restored.size());
    remaining.swap(still_missing);
  }
  stats.rederived = store_->size() - size_before;
  return stats;
}

bool Reasoner::AllBuffersEmpty() const {
  for (const auto& module : modules_) {
    if (!module->buffer->empty()) return false;
  }
  return true;
}

void Reasoner::TimeoutLoop() {
  while (!stop_timeout_.load()) {
    std::this_thread::sleep_for(options_.timeout_check_interval);
    const Buffer::Clock::time_point now = Buffer::Clock::now();
    for (size_t i = 0; i < modules_.size(); ++i) {
      // Extraction and submission form one critical section so Flush()'s
      // quiescence check can never observe the triples in neither place.
      std::lock_guard<std::mutex> lock(transfer_mu_);
      std::optional<TripleVec> batch =
          modules_[i]->buffer->FlushIfStale(now, options_.buffer_timeout);
      if (batch.has_value()) {
        Trace(TraceEventType::kTimeoutFlush, modules_[i]->rule->name(),
              batch->size());
        SubmitTask(static_cast<int>(i), std::move(*batch));
      }
    }
  }
}

std::vector<Reasoner::RuleModuleStats> Reasoner::rule_stats() const {
  std::vector<RuleModuleStats> out;
  out.reserve(modules_.size());
  for (const auto& module : modules_) {
    RuleModuleStats s;
    s.rule_name = module->rule->name();
    s.accepted = module->accepted.load();
    const Buffer::Counters counters = module->buffer->counters();
    s.full_flushes = counters.full_flushes;
    s.timeout_flushes = counters.timeout_flushes;
    s.forced_flushes = counters.forced_flushes;
    s.executions = module->executions.load();
    s.derivations = module->derivations.load();
    s.inferred_new = module->inferred_new.load();
    out.push_back(std::move(s));
  }
  return out;
}

uint64_t Reasoner::total_derivations() const {
  uint64_t total = 0;
  for (const auto& module : modules_) {
    total += module->derivations.load();
  }
  return total;
}

ThreadPool::Stats Reasoner::pool_stats() const { return pool_->stats(); }

void Reasoner::LogAdditions(const TripleVec& batch, bool is_explicit) {
  if (log_ == nullptr || batch.empty()) return;
  std::lock_guard<std::mutex> lock(log_mu_);
  if (!log_error_.ok()) return;  // sticky: keep the log a clean prefix
  for (const Triple& t : batch) {
    const Status appended = log_->Append(t, is_explicit);
    if (!appended.ok()) {
      log_error_ = appended;
      SLIDER_LOG(kWarning) << "statement log append failed: "
                           << appended.ToString();
      return;
    }
  }
}

void Reasoner::LogTombstones(const TripleVec& batch) {
  if (log_ == nullptr || batch.empty()) return;
  std::lock_guard<std::mutex> lock(log_mu_);
  if (!log_error_.ok()) return;
  for (const Triple& t : batch) {
    const Status appended = log_->AppendTombstone(t);
    if (!appended.ok()) {
      log_error_ = appended;
      SLIDER_LOG(kWarning) << "statement log tombstone append failed: "
                           << appended.ToString();
      return;
    }
  }
}

Status Reasoner::log_status() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return log_error_;
}

}  // namespace slider
