#include "reason/repository.h"

#include <algorithm>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/fs.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "query/backward.h"
#include "rdf/dictionary_image.h"
#include "rdf/graph_io.h"
#include "store/lockfree_index.h"
#include "store/snapshot.h"

namespace slider {

Result<std::unique_ptr<Repository>> Repository::Open(
    const FragmentFactory& factory, Options options) {
  auto repo = std::unique_ptr<Repository>(new Repository());
  repo->options_ = std::move(options);
  repo->factory_ = factory;
  repo->vocab_ = Vocabulary::Register(&repo->dict_);
  repo->store_ = std::make_unique<TripleStore>();
  if (!repo->options_.storage_dir.empty()) {
    SLIDER_ASSIGN_OR_RETURN(
        repo->log_, StatementLog::Open(repo->LogPath(),
                                       repo->options_.log_flush_interval));
  }
  repo->ResetEngine();
  // The vocabulary and the fragment's own terms (rule constants) are bound
  // before any statement: journal them up front, since inferred
  // statements use them without AddTriples ever seeing them.
  Status journaled = Status::OK();
  repo->dict_.ForEach([&](TermId id, std::string_view) {
    if (journaled.ok()) journaled = repo->JournalTerm(id);
  });
  SLIDER_RETURN_NOT_OK(journaled);
  return repo;
}

void Repository::ResetEngine() {
  // Work done by the outgoing engine stays in the lifetime counter, so
  // total_derivations() keeps growing monotonically across the batch modes'
  // per-update engine resets.
  if (semi_naive_ != nullptr) {
    retired_derivations_ += semi_naive_->cumulative_stats().derivations;
  }
  if (trree_ != nullptr) {
    retired_derivations_ += trree_->cumulative_stats().derivations;
  }
  if (slider_ != nullptr) {
    retired_derivations_ += slider_->total_derivations();
  }
  semi_naive_.reset();
  trree_.reset();
  slider_.reset();
  forward_provider_.reset();
  hybrid_provider_.reset();
  if (options_.inference == InferenceMode::kSemiNaive) {
    semi_naive_ = std::make_unique<BatchReasoner>(factory_(vocab_, &dict_),
                                                  store_.get(), log_.get());
  } else if (options_.inference == InferenceMode::kIncremental) {
    // The Slider engine borrows the repository's dictionary, store and log:
    // it logs its own additions and tombstones, so replaying the log still
    // reconstructs the store even though updates never recompute.
    slider_ = std::make_unique<Reasoner>(factory_, options_.incremental,
                                         &dict_, store_.get(), log_.get());
  } else if (OnDemandMode()) {
    // No inference core at all: queries answer through the hybrid provider.
    // The fragment is still instantiated — its rules are what the chainer
    // resolves, and what fragment() reports.
    if (fragment_ == nullptr) {
      fragment_ = std::make_unique<Fragment>(factory_(vocab_, &dict_));
    }
    HybridProvider::Options provider_options;
    provider_options.schema_materialized =
        options_.inference == InferenceMode::kHybrid;
    hybrid_provider_ = std::make_unique<HybridProvider>(
        store_.get(), vocab_, fragment_->rules(), provider_options);
    if (options_.inference == InferenceMode::kHybrid) {
      // A recovered store replays only explicit/journaled statements; the
      // schema closure is derived state and must be rebuilt here.
      RefreshSchemaClosure();
    }
  } else {
    trree_ = std::make_unique<TrreeReasoner>(factory_(vocab_, &dict_),
                                             store_.get(), log_.get());
  }
  if (hybrid_provider_ == nullptr) {
    forward_provider_ = std::make_unique<ForwardProvider>(store_.get());
  }
}

const MatchProvider* Repository::provider() const {
  return hybrid_provider_ != nullptr
             ? static_cast<const MatchProvider*>(hybrid_provider_.get())
             : static_cast<const MatchProvider*>(forward_provider_.get());
}

bool Repository::SchemaClosureStale(const TripleVec& delta) const {
  if (schema_meta_live_) return !delta.empty();
  const RuleSetAnalysis& analysis = hybrid_provider_->analysis();
  for (const Triple& t : delta) {
    if (t.p == vocab_.sub_class_of || t.p == vocab_.sub_property_of ||
        t.p == vocab_.domain || t.p == vocab_.range) {
      return true;
    }
    // Structural clause atoms beyond the four schema predicates:
    // (· type Class/Property/…) feeding the RDFS axiom rules' schema heads,
    // meta-link edges (owl:inverseOf) that could land on a schema
    // predicate, guarded declarations pinning one.
    if (analysis.MatchesStructural(t)) return true;
  }
  return false;
}

bool Repository::ProbeSchemaMetaLive() const {
  const RuleSetAnalysis& analysis = hybrid_provider_->analysis();
  if (!analysis.var_head_rules) return false;
  const TermId schema_predicates[] = {vocab_.sub_class_of,
                                      vocab_.sub_property_of, vocab_.domain,
                                      vocab_.range};
  const StoreView view = store_->GetView();
  bool live = false;
  for (const TermId s : schema_predicates) {
    for (const TermId link : analysis.link_predicates) {
      view.ForEachSubject(link, s, [&](TermId x) { live |= x != s; });
      view.ForEachObject(link, s, [&](TermId x) { live |= x != s; });
    }
    for (const RuleSetAnalysis::Spec& spec : analysis.structural) {
      if (spec.p == vocab_.type && spec.o != kAnyTerm &&
          view.Contains(Triple(s, vocab_.type, spec.o))) {
        live = true;
      }
    }
  }
  return live;
}

void Repository::RefreshSchemaClosure() {
  // Drop the derived rows of the four schema partitions, then re-chain the
  // closure from the surviving explicit statements. The chainer — running
  // the fragment's own rules — is the closure oracle here: its (? sc ?) …
  // solutions are exactly the fragment's schema closure, stored back as
  // inferred and never journaled, so Recover's replay stays purely
  // explicit.
  const TermId schema_predicates[] = {vocab_.sub_class_of,
                                      vocab_.sub_property_of, vocab_.domain,
                                      vocab_.range};
  TripleVec stale;
  {
    const StoreView view = store_->GetView();
    for (const TermId p : schema_predicates) {
      view.ForEachWithPredicate(p, [&](TermId s, TermId o) {
        const Triple t(s, p, o);
        if (!view.IsExplicit(t)) stale.push_back(t);
      });
    }
  }
  store_->EraseAll(stale);
  const BackwardChainer chainer(store_.get(), vocab_, fragment_->rules());
  TripleVec closure;
  for (const TermId p : schema_predicates) {
    chainer.Match(TriplePattern{kAnyTerm, p, kAnyTerm},
                  [&](const Triple& t) {
                    if (!store_->Contains(t)) closure.push_back(t);
                  });
  }
  store_->AddAll(closure, nullptr, /*is_explicit=*/false);
  schema_meta_live_ = ProbeSchemaMetaLive();
}

Result<MaterializeStats> Repository::ApplyOnDemand(const TripleVec& input) {
  MaterializeStats stats;
  stats.input_count = input.size();
  TripleVec delta;
  store_->AddAll(input, &delta, /*is_explicit=*/true);
  // AddTriples already dedupped `input` against the store's explicit rows,
  // so every statement here is newly explicit — including the ones AddAll
  // merely *promoted* (already present as kHybrid schema-closure
  // inferences).
  stats.input_new = input.size();
  // Journaling is unchanged: explicit additions append directly (there is
  // no engine to do it), tombstones are handled by RemoveTriples. Append
  // `input`, not the insert delta: a promoted statement left out of the log
  // would lose its explicit standing across Recover (the rebuilt schema
  // closure is derived state, not a substitute for the assertion).
  if (log_ != nullptr && !input.empty()) {
    SLIDER_RETURN_NOT_OK(log_->AppendBatch(input));
  }
  if (options_.inference == InferenceMode::kHybrid &&
      SchemaClosureStale(input)) {
    const size_t before = store_->size();
    RefreshSchemaClosure();
    const size_t after = store_->size();
    stats.inferred_new = after >= before ? after - before : 0;
  }
  // Invalidate *after* the store (and schema closure) mutations: any table
  // filled from the pre-delta snapshot is either refused by the tabling
  // generation check or dropped here.
  if (!delta.empty()) hybrid_provider_->OnDelta(delta);
  return stats;
}

Result<MaterializeStats> Repository::RunInference(const TripleVec& input) {
  if (OnDemandMode()) return ApplyOnDemand(input);
  if (slider_ != nullptr) {
    MaterializeStats stats;
    stats.input_count = input.size();
    stats.rounds = 1;
    const size_t size_before = store_->size();
    const size_t explicit_before = slider_->explicit_count();
    const uint64_t deriv_before = slider_->total_derivations();
    slider_->AddTriples(input);
    slider_->Flush();
    SLIDER_RETURN_NOT_OK(slider_->log_status());
    stats.input_new = slider_->explicit_count() - explicit_before;
    const size_t grown = store_->size() - size_before;
    stats.inferred_new = grown >= stats.input_new ? grown - stats.input_new : 0;
    stats.derivations = slider_->total_derivations() - deriv_before;
    return stats;
  }
  if (semi_naive_ != nullptr) {
    return semi_naive_->Materialize(input);
  }
  return trree_->Materialize(input);
}

Result<MaterializeStats> Repository::Recompute(const TripleVec& added,
                                               const TripleSet& removed) {
  TripleVec input = added;
  input.reserve(added.size() + store_->ExplicitCount());
  store_->GetExplicitView().ForEachMatch(
      TriplePattern{kAnyTerm, kAnyTerm, kAnyTerm}, [&](const Triple& t) {
        if (removed.count(t) == 0) input.push_back(t);
      });
  std::sort(input.begin(), input.end());
  std::unique_ptr<TripleStore> old_store = std::move(store_);
  store_ = std::make_unique<TripleStore>();
  ResetEngine();
  const auto rollback = [&] {
    store_ = std::move(old_store);
    ResetEngine();
  };
  Result<MaterializeStats> materialized = RunInference(input);
  if (!materialized.ok()) {
    // Only a failing log append fails a run. What it journaled re-asserts
    // members of the old closure, or of `added`'s closure; a retry
    // re-journals all of it.
    rollback();
    return materialized.status();
  }
  // Rules are monotone: without removals nothing is dropped or demoted.
  if (log_ == nullptr || removed.empty()) return materialized;
  // The new closure is journaled already; tombstone what it dropped, and
  // re-journal a demoted statement (explicit before, inferred now) as
  // inferred after its tombstone — an inferred record alone never demotes.
  TripleVec dropped;
  TripleVec demoted;
  {
    const StoreView before = old_store->GetView();
    const StoreView after = store_->GetView();
    before.ForEachMatch(
        TriplePattern{kAnyTerm, kAnyTerm, kAnyTerm}, [&](const Triple& t) {
          if (!after.Contains(t)) {
            dropped.push_back(t);
          } else if (before.IsExplicit(t) && !after.IsExplicit(t)) {
            dropped.push_back(t);
            demoted.push_back(t);
          }
        });
  }
  Status logged = Status::OK();
  for (const Triple& t : dropped) {
    if (logged.ok()) logged = log_->AppendTombstone(t);
  }
  for (const Triple& t : demoted) {
    if (logged.ok()) logged = log_->Append(t, /*is_explicit=*/false);
  }
  if (!logged.ok()) {
    // A retry re-runs the recompute and re-journals the closure and the
    // diff, after which an ordered replay converges again.
    rollback();
    return logged;
  }
  return materialized;
}

const Fragment& Repository::fragment() const {
  if (fragment_ != nullptr) return *fragment_;
  if (slider_ != nullptr) return slider_->fragment();
  return semi_naive_ != nullptr ? semi_naive_->fragment() : trree_->fragment();
}

uint64_t Repository::total_derivations() const {
  uint64_t total = retired_derivations_;
  if (semi_naive_ != nullptr) total += semi_naive_->cumulative_stats().derivations;
  if (trree_ != nullptr) total += trree_->cumulative_stats().derivations;
  if (slider_ != nullptr) total += slider_->total_derivations();
  return total;
}

std::string Repository::LogPath() const {
  return options_.storage_dir + "/statements.log";
}

std::string Repository::SnapshotDictPath() const {
  return options_.storage_dir + "/snapshot.dict";
}

std::string Repository::SnapshotTriplesPath() const {
  return options_.storage_dir + "/snapshot.triples";
}

Result<Repository::LoadStats> Repository::Load(std::string_view ntriples_document) {
  Stopwatch watch;
  // Parallel parser instances encode concurrently against the sharded
  // dictionary; triples come back in document order, so load semantics are
  // unchanged.
  SLIDER_ASSIGN_OR_RETURN(
      TripleVec parsed, LoadNTriplesStringParallel(ntriples_document, &dict_));
  SLIDER_ASSIGN_OR_RETURN(LoadStats stats, AddTriples(parsed));
  stats.parsed = parsed.size();
  stats.seconds = watch.ElapsedSeconds();  // include parsing, as OWLIM does
  return stats;
}

Status Repository::JournalTerms(const TripleVec& triples) {
  if (log_ == nullptr) return Status::OK();
  for (const Triple& t : triples) {
    for (const TermId id : {t.s, t.p, t.o}) {
      SLIDER_RETURN_NOT_OK(JournalTerm(id));
    }
  }
  return Status::OK();
}

Status Repository::JournalTerm(TermId id) {
  // kAnyTerm binds nothing: the store drops statements that use it.
  if (log_ == nullptr || id == kAnyTerm ||
      (id < durable_terms_.size() && durable_terms_[id])) {
    return Status::OK();
  }
  SLIDER_ASSIGN_OR_RETURN(const std::string term, dict_.Decode(id));
  SLIDER_RETURN_NOT_OK(log_->AppendTerm(id, term));
  MarkDurable(id);
  return Status::OK();
}

void Repository::MarkDurable(TermId id) {
  if (id >= durable_terms_.size()) durable_terms_.resize(id + 1);
  durable_terms_[id] = true;
}

Result<Repository::LoadStats> Repository::AddTriples(const TripleVec& triples) {
  Stopwatch watch;
  // Journal the input's new terms ahead of every statement record that can
  // use them: rules never mint terms, and Open journaled the vocabulary
  // and rule constants.
  SLIDER_RETURN_NOT_OK(JournalTerms(triples));
  // First occurrences of the statements not yet explicit, in input order.
  TripleVec fresh;
  fresh.reserve(triples.size());
  {
    TripleSet batch;
    const StoreView view = store_->GetView();
    for (const Triple& t : triples) {
      if (!view.IsExplicit(t) && batch.insert(t).second) fresh.push_back(t);
    }
  }

  LoadStats stats;
  if (BatchMode() && store_->size() != 0) {
    // Batch semantics: new data restarts inference from the start over the
    // full explicit statement set.
    SLIDER_ASSIGN_OR_RETURN(stats.materialize, Recompute(fresh, {}));
  } else {
    SLIDER_ASSIGN_OR_RETURN(stats.materialize, RunInference(fresh));
  }
  stats.seconds = watch.ElapsedSeconds();
  return stats;
}

Result<Repository::LoadStats> Repository::RemoveTriples(const TripleVec& triples) {
  Stopwatch watch;
  LoadStats stats;
  // Plan the removal without mutating any member state, so a failed
  // recompute leaves the repository consistent and the call retryable.
  TripleSet removed;
  {
    const StoreView view = store_->GetView();
    for (const Triple& t : triples) {
      if (view.IsExplicit(t)) removed.insert(t);
    }
  }
  if (removed.empty()) {
    stats.seconds = watch.ElapsedSeconds();
    return stats;
  }

  if (OnDemandMode()) {
    // Nothing was materialized, so nothing needs maintenance: erase the
    // victims, journal their tombstones, refresh the schema closure
    // (kHybrid) and drop the affected answer tables. The tables must be
    // invalidated on *retraction* deltas exactly as on additions — a
    // tabled answer set can shrink, too.
    TripleVec victims(removed.begin(), removed.end());
    TripleVec erased;
    store_->EraseAll(victims, &erased);
    Status logged = Status::OK();
    if (log_ != nullptr) {
      for (const Triple& t : erased) {
        logged = log_->AppendTombstone(t);
        if (!logged.ok()) break;
      }
    }
    if (options_.inference == InferenceMode::kHybrid &&
        SchemaClosureStale(erased)) {
      RefreshSchemaClosure();
    }
    if (!erased.empty()) hybrid_provider_->OnDelta(erased);
    SLIDER_RETURN_NOT_OK(logged);
    stats.removed = erased.size();
    stats.materialize.input_count = victims.size();
    stats.seconds = watch.ElapsedSeconds();
    return stats;
  }

  if (slider_ != nullptr) {
    // Incremental mode: DRed maintenance instead of a recompute. The engine
    // appends its own tombstone / rederivation records to the statement
    // log, so the replay contract below holds without the closure diff.
    TripleVec victims(removed.begin(), removed.end());
    const Reasoner::RetractStats retract = slider_->Retract(victims);
    // The store mutation is already applied: a log failure degrades
    // durability, the in-memory state stays consistent.
    SLIDER_RETURN_NOT_OK(slider_->log_status());
    stats.removed = retract.retracted;
    stats.materialize.input_count = victims.size();
    stats.materialize.rounds = retract.delete_rounds;
    // Complete maintenance work in derivation-sized units: deletion-mode
    // rule outputs plus one per rederive check.
    stats.materialize.derivations =
        retract.delete_derivations + retract.rederive_checks;
    stats.seconds = watch.ElapsedSeconds();
    return stats;
  }
  // Batch semantics, deletions included: wipe and re-materialise from the
  // surviving explicit statements.
  SLIDER_ASSIGN_OR_RETURN(stats.materialize, Recompute({}, removed));
  stats.removed = removed.size();
  stats.seconds = watch.ElapsedSeconds();
  return stats;
}

Result<UpdateResult> Repository::ExecuteUpdate(const UpdateRequest& request) {
  Stopwatch watch;
  UpdateResult result;
  for (const UpdateOp& op : request.ops) {
    switch (op.kind) {
      case UpdateOp::Kind::kInsertData: {
        // Count by population delta, not by MaterializeStats: under the
        // batch modes a recompute's stats cover the whole re-materialised
        // set, not the request's contribution.
        const size_t explicit_before = explicit_count();
        const size_t inferred_before = inferred_count();
        SLIDER_ASSIGN_OR_RETURN(LoadStats stats, AddTriples(op.data));
        result.inserted += explicit_count() - explicit_before;
        const size_t inferred_now = inferred_count();
        result.inferred +=
            inferred_now >= inferred_before ? inferred_now - inferred_before : 0;
        result.derivations += stats.materialize.derivations;
        break;
      }
      case UpdateOp::Kind::kDeleteData: {
        SLIDER_ASSIGN_OR_RETURN(LoadStats stats, RemoveTriples(op.data));
        result.removed += stats.removed;
        result.derivations += stats.materialize.derivations;
        break;
      }
      case UpdateOp::Kind::kDeleteWhere: {
        // Instantiate the pattern block against the current store, then
        // retract the matches; non-explicit matches are ignored by the
        // retraction path (inferred knowledge only dies with its support).
        SLIDER_ASSIGN_OR_RETURN(TripleVec victims,
                                ExpandDeleteWhere(op, *store_));
        result.matched += victims.size();
        SLIDER_ASSIGN_OR_RETURN(LoadStats stats, RemoveTriples(victims));
        result.removed += stats.removed;
        result.derivations += stats.materialize.derivations;
        break;
      }
      case UpdateOp::Kind::kModify: {
        // INSERT/DELETE ... WHERE: both template instantiations are
        // computed against the pre-update store, then deletions apply
        // before insertions (SPARQL 1.1 Update semantics), each through
        // the mode's ordinary maintenance path.
        SLIDER_ASSIGN_OR_RETURN(ModifyDelta delta, ExpandModify(op, *store_));
        result.matched += delta.matched;
        if (!delta.deletes.empty()) {
          SLIDER_ASSIGN_OR_RETURN(LoadStats stats,
                                  RemoveTriples(delta.deletes));
          result.removed += stats.removed;
          result.derivations += stats.materialize.derivations;
        }
        if (!delta.inserts.empty()) {
          const size_t explicit_before = explicit_count();
          const size_t inferred_before = inferred_count();
          SLIDER_ASSIGN_OR_RETURN(LoadStats stats, AddTriples(delta.inserts));
          result.inserted += explicit_count() - explicit_before;
          const size_t inferred_now = inferred_count();
          result.inferred += inferred_now >= inferred_before
                                 ? inferred_now - inferred_before
                                 : 0;
          result.derivations += stats.materialize.derivations;
        }
        break;
      }
    }
  }
  if (LogTailPastBound()) {
    // The update itself is applied and journaled; a failed checkpoint only
    // leaves the tail long, and the next update retries it.
    const Status checkpointed = Checkpoint();
    if (!checkpointed.ok()) {
      SLIDER_LOG(kWarning) << "automatic checkpoint failed: "
                           << checkpointed.ToString();
    }
  }
  result.seconds = watch.ElapsedSeconds();
  return result;
}

bool Repository::LogTailPastBound() const {
  if (log_ == nullptr || !snapshot_triples_.has_value() ||
      !options_.truncate_log_on_checkpoint) {
    return false;
  }
  const uint64_t bound = std::max<uint64_t>(
      kLogTailMinRecords, *snapshot_triples_ / kLogTailSnapshotFraction);
  return log_->next_lsn() - snapshot_lsn_ > bound;
}

Status Repository::Checkpoint() {
  if (log_ != nullptr) {
    SLIDER_RETURN_NOT_OK(log_->Flush());
  }
  if (options_.storage_dir.empty()) {
    return Status::OK();
  }
  // The snapshot anchors at the log's next LSN: it covers every record
  // appended so far, so the tail a later Recover must replay is exactly
  // what arrives after this point.
  const uint64_t lsn = log_ != nullptr ? log_->next_lsn() : 0;
  // The two images are built at once: the calling thread writes the
  // triple image (index 0, itself spread over the pool) while a pool task
  // writes the dictionary image. The engine has just flushed, so its pool
  // is idle; modes without one write both images inline.
  ThreadPool* pool = slider_ != nullptr ? slider_->pool() : nullptr;
  Status written[2];
  std::vector<bool> imaged;
  ThreadPool::ParallelFor(pool, 2, [&](size_t i) {
    if (i == 0) {
      written[0] =
          WriteTripleSnapshot(*store_, lsn, SnapshotTriplesPath(), pool);
      return;
    }
    // Collected before the image is written, so every id here is in it
    // (bound ids never unbind; a parser may bind more in between).
    dict_.ForEach([&](TermId id, std::string_view) {
      if (id >= imaged.size()) imaged.resize(id + 1);
      imaged[id] = true;
    });
    written[1] = WriteDictionaryImage(dict_, SnapshotDictPath());
  });
  SLIDER_RETURN_NOT_OK(written[0]);
  SLIDER_RETURN_NOT_OK(written[1]);
  snapshot_lsn_ = lsn;
  snapshot_triples_ = store_->size();
  // Truncation strictly after the snapshot renames in: a crash between the
  // two leaves a log whose prefix the snapshot already covers (replay skips
  // records below the LSN); the reverse order would lose the prefix.
  if (log_ != nullptr && options_.truncate_log_on_checkpoint) {
    SLIDER_RETURN_NOT_OK(log_->TruncateTo(lsn));
    // The truncated log now needs the image anyway, so its terms count as
    // durable. An untruncated log keeps journaling on its own, so it can
    // still rebuild everything if the snapshot is lost.
    if (log_->base_lsn() > 0) durable_terms_ = std::move(imaged);
  }
#ifdef __GLIBC__
  // Hand freed heap pages back to the OS at this quiescent point. glibc
  // otherwise keeps a Load's parse and materialization transients, and
  // the images just written, resident in its arenas, and a long-running
  // server grows by each arena's high-water mark.
  malloc_trim(0);
#endif
  return Status::OK();
}

Status Repository::CompactLog() {
  if (log_ == nullptr) {
    return Status::OK();
  }
  if (snapshot_lsn_ > log_->base_lsn()) {
    // Compaction shifts record indexes, which would misalign the snapshot's
    // mid-file anchor; after a truncating Checkpoint the anchor equals the
    // base and compaction is safe again.
    return Status::InvalidArgument(
        "log compaction would shift records under the snapshot's tail "
        "anchor; run a truncating Checkpoint first");
  }
  SLIDER_RETURN_NOT_OK(log_->Flush());
  return log_->Compact();
}

Result<std::unique_ptr<Repository>> Repository::Recover(
    const FragmentFactory& factory, Options options) {
  if (options.storage_dir.empty()) {
    return Status::InvalidArgument("Recover requires a storage_dir");
  }
  SLIDER_ASSIGN_OR_RETURN(
      const StatementLog::Contents log,
      StatementLog::ReadLog(options.storage_dir + "/statements.log"));
  if (log.torn_tail) {
    SLIDER_LOG(kWarning) << "statement log '" << options.storage_dir
                         << "/statements.log' ends in a torn record "
                            "(crash mid-append); recovering without it";
  }
  if (FileExists(options.storage_dir + "/snapshot.dict") &&
      FileExists(options.storage_dir + "/snapshot.triples")) {
    Result<std::unique_ptr<Repository>> snapshot =
        Replay(factory, options, log, /*from_snapshot=*/true);
    if (snapshot.ok()) return snapshot;
    if (log.base_lsn != 0) {
      // The log was truncated against the (now unusable) snapshot: the
      // records below its base exist nowhere else, so a full replay would
      // silently reconstruct a partial store. Surface the loss instead.
      return Status::IOError(
          Format("snapshot unusable (%s) and the statement log was "
                 "truncated to LSN %llu; full replay cannot reconstruct "
                 "the repository",
                 snapshot.status().ToString().c_str(),
                 static_cast<unsigned long long>(log.base_lsn)));
    }
    SLIDER_LOG(kWarning) << "snapshot unusable ("
                         << snapshot.status().ToString()
                         << "); falling back to full log replay";
  } else if (log.base_lsn != 0) {
    // No snapshot at all, yet the log was truncated against one: the
    // records below the base are gone for good.
    return Status::IOError(
        Format("statement log starts at LSN %llu but no snapshot covers "
               "the truncated prefix",
               static_cast<unsigned long long>(log.base_lsn)));
  }
  return Replay(factory, options, log, /*from_snapshot=*/false);
}

Result<std::unique_ptr<Repository>> Repository::Replay(
    const FragmentFactory& factory, const Options& options,
    const StatementLog::Contents& log, bool from_snapshot) {
  auto repo = std::unique_ptr<Repository>(new Repository());
  repo->options_ = options;
  repo->factory_ = factory;
  repo->store_ = std::make_unique<TripleStore>();
  if (from_snapshot) {
    // The images restore (id, term) bindings and the store directly: no
    // re-hashing through the Encode path, exact-capacity LfRow versions,
    // no dedup probes, no reasoner.
    SLIDER_RETURN_NOT_OK(
        LoadDictionaryImage(repo->SnapshotDictPath(), &repo->dict_));
    SLIDER_ASSIGN_OR_RETURN(
        repo->snapshot_lsn_,
        LoadTripleSnapshot(repo->SnapshotTriplesPath(), repo->store_.get()));
    repo->snapshot_triples_ = repo->store_->size();
    if (log.base_lsn > repo->snapshot_lsn_) {
      return Status::IOError(
          Format("statement log starts at LSN %llu but the snapshot only "
                 "covers records below %llu; the gap is unrecoverable",
                 static_cast<unsigned long long>(log.base_lsn),
                 static_cast<unsigned long long>(repo->snapshot_lsn_)));
    }
    if (log.base_lsn > 0) {
      // The log was truncated against an image: only the image still
      // binds the truncated prefix's terms.
      repo->dict_.ForEach(
          [&](TermId id, std::string_view) { repo->MarkDurable(id); });
    }
  }
  // Term records before the vocabulary, so recovered ids stay aligned with
  // the statement records; re-binding a term the image holds is a no-op.
  for (const StatementLog::Record& r : log.records) {
    if (!r.is_term()) continue;
    SLIDER_RETURN_NOT_OK(repo->dict_.Restore(r.term_id, r.term));
    repo->MarkDurable(r.term_id);
  }
  repo->vocab_ = Vocabulary::Register(&repo->dict_);
  // Ordered replay of the statements the snapshot (if any) does not cover,
  // explicit and inferred alike — no inference re-runs. Tombstones erase,
  // additions (re-)add with their journaled support: an explicit re-add of
  // a surviving inferred statement promotes it, mirroring the live store's
  // duplicate-offer semantics.
  for (size_t i = 0; i < log.records.size(); ++i) {
    const StatementLog::Record& r = log.records[i];
    if (log.base_lsn + i < repo->snapshot_lsn_ || r.is_term()) continue;
    if (r.tombstone) {
      repo->store_->Erase(r.triple);
    } else {
      repo->store_->Add(r.triple, /*is_explicit=*/!r.inferred);
    }
  }
  // Reopen the log for appending (never truncating: the snapshot plus the
  // records just replayed are the store), so a recovered repository keeps
  // journaling — updates after a Recover survive the next Recover too.
  SLIDER_ASSIGN_OR_RETURN(repo->log_,
                          StatementLog::OpenAppend(
                              repo->LogPath(), repo->options_.log_flush_interval));
  // ResetEngine also rebuilds the kHybrid schema closure — derived state
  // neither the log nor the snapshot substitutes for.
  repo->ResetEngine();
  return repo;
}

size_t Repository::explicit_count() const { return store_->ExplicitCount(); }

size_t Repository::inferred_count() const {
  const size_t total = store_->size();
  const size_t asserted = store_->ExplicitCount();
  return total >= asserted ? total - asserted : 0;
}

}  // namespace slider
