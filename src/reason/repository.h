#ifndef SLIDER_REASON_REPOSITORY_H_
#define SLIDER_REASON_REPOSITORY_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/hybrid.h"
#include "query/update.h"
#include "rdf/dictionary.h"
#include "rdf/vocabulary.h"
#include "reason/batch_reasoner.h"
#include "reason/fragment.h"
#include "reason/reasoner.h"
#include "reason/trree_reasoner.h"
#include "store/statement_log.h"
#include "store/triple_store.h"

namespace slider {

/// \brief Batch, persistent, fully-materialising semantic repository — the
/// OWLIM-SE substitute of the evaluation (DESIGN.md §5.2).
///
/// OWLIM-SE itself is closed source; this class reimplements the
/// architecture the paper measures against:
///  - load-time full materialisation over the same rulesets as Slider,
///    with TRREE's statement-at-a-time scheme by default (TrreeReasoner;
///    a set-at-a-time semi-naive mode is selectable for ablations);
///  - durability: every explicit and inferred statement, and every term
///    they use, is written through an append-only statement log, which
///    alone rebuilds the repository; Checkpoint persists a snapshot image
///    pair so it can be reopened from disk (Recover) in time proportional
///    to the *state*, not the *history*;
///  - batch update semantics: in the two batch modes, adding statements to
///    a loaded repository (or removing some) recomputes the closure from
///    scratch over all explicit statements — the "batch processing
///    [systems] ... initiate the reasoning process from the start" drawback
///    the paper's introduction targets, measured by bench_incremental.
///
/// Explicit standing has one record in every mode: the store's per-triple
/// support flag. Every core stores and journals what the application
/// asserts as explicit and what its rules derive as inferred, so the
/// explicit/inferred counts, the dedup of AddTriples, the victims of
/// RemoveTriples and the batch recompute input all read the store, and
/// Recover restores them with the flags.
///
/// ## Checkpoint lifecycle and on-disk layout
///
/// A repository directory holds, after at least one Checkpoint, exactly:
///
///   statements.log    the v2 statement log ("SLDRLOG2" header carrying a
///                     base LSN; 28-byte statement records with
///                     tombstone/inferred flag bits on the subject word,
///                     and term records binding each dictionary id before
///                     its first use; per-record CRC32) — the source of
///                     truth
///   snapshot.dict     binary dictionary image ("SLDICT01": varint
///                     id-delta + term bytes, CRC32 trailer)
///   snapshot.triples  delta-encoded, varint-compressed sorted-triple image
///                     ("SLTRIP01": per-predicate section directory so the
///                     loader can mmap and bulk-build; each object carries
///                     its explicit/inferred flag + derivation count byte;
///                     CRC32 trailer), anchored at a log LSN
///
/// Before the first Checkpoint only statements.log exists, and it is
/// enough: Open journals the vocabulary and fragment terms, AddTriples
/// journals every term the first time a statement uses it (rules never
/// mint terms), so replaying the log rebuilds dictionary and store alike.
/// The snapshot pair is an accelerator. Checkpoint writes both images
/// atomically (temp file + rename), so a crash mid-checkpoint leaves the
/// previous images intact; then it truncates the statement log to the
/// records at and above the snapshot's LSN (truncate_log_on_checkpoint),
/// term records included — from then on the image binds the terms of the
/// truncated prefix. The ordering makes the crash window benign: the
/// snapshot renames in *before* the log truncates, and replay skips
/// records below the snapshot LSN either way.
///
/// Automatic checkpoint. Once a snapshot exists (a Checkpoint ran, or
/// Recover loaded one) and truncate_log_on_checkpoint is on, ExecuteUpdate
/// keeps the log tail bounded: an update that leaves more than
/// max(kLogTailMinRecords, snapshot triples / kLogTailSnapshotFraction)
/// records past the snapshot's LSN ends with a Checkpoint — about 1 MB of
/// tail on a 600k-triple closure. Disk use and Recover's tail replay then
/// stay proportional to the state under any update rate. A repository
/// that never checkpoints keeps its full log. Because an automatic
/// checkpoint always truncates, its snapshot anchors at the log base and
/// CompactLog stays legal after it. Direct AddTriples/RemoveTriples calls
/// (bulk loads) do not checkpoint.
///
/// Who does the work. Checkpoint runs on the calling thread (under the
/// HTTP server, the worker that leads the update batch), which the caller
/// guarantees is the only writer. Under kIncremental the engine has just
/// flushed, so its ThreadPool is idle, and Checkpoint lends it to the
/// snapshot pair through ThreadPool::ParallelFor: the caller writes the
/// triple image while one pool task writes the dictionary image, and the
/// triple image's partition sorts and piece encodes spread over the
/// remaining workers and the caller (see WriteTripleSnapshot). The caller
/// waits on that call's own latch, never on WaitIdle, and the engine's
/// pool_stats() counts these helpers apart from rule tasks. The other
/// modes have no engine pool and run the same code inline. The two images
/// rename in in either order: a newer dictionary image only binds more
/// ids, and a newer triple image is covered by the term records of the
/// not-yet-truncated log.
///
/// Recover prefers the snapshot pair: restore dictionary ids from
/// snapshot.dict (no re-hash through the Encode path), bulk-build the
/// store from snapshot.triples (exact-capacity LfRow versions, no dedup
/// probes, no reasoner), then replay only the short log tail at or above
/// the snapshot LSN, term records restoring through Dictionary::Restore —
/// O(state + tail) instead of O(history). Without a snapshot, or with a
/// corrupt or partial one while the full log is still present (base LSN
/// 0, with a warning), it replays the whole log. Torn final log records
/// (crash mid-append) are skipped with a warning. The kHybrid schema
/// closure is derived state: whatever schema rows the snapshot carries
/// are dropped and re-derived after recovery (ResetEngine), so every
/// inference mode recovers a bit-identical closure.
class Repository {
 public:
  /// Inference core selection.
  enum class InferenceMode {
    /// Statement-at-a-time forward chaining, as in OWLIM's TRREE (default).
    kStatementAtATime,
    /// Set-at-a-time semi-naive rounds (ablation / oracle mode).
    kSemiNaive,
    /// The Slider engine embedded over the repository's dictionary, store
    /// and statement log: additions fold in incrementally (buffered rule
    /// modules over the dependency graph) and deletions run DRed
    /// (Reasoner::Retract) instead of a from-scratch recompute. This is the
    /// mode the SPARQL update surface (ExecuteUpdate / SparqlEndpoint) is
    /// designed for: update cost proportional to the touched cone, SELECTs
    /// lock-free against pinned store views throughout.
    kIncremental,
    /// Materialization-free: the store holds *only* explicit statements and
    /// queries answer through the hybrid/backward path (HybridProvider over
    /// the BackwardChainer, memoized in a TablingCache). Updates cost a
    /// store insert/erase plus targeted table invalidation — no inference
    /// at all — and journaling is unchanged (adds and tombstones append to
    /// the statement log exactly as in the other modes). Every rule is
    /// defined by its Horn clauses, so the chainer covers any fragment.
    kOnDemand,
    /// The middle point: the *schema closure* (subClassOf/subPropertyOf
    /// reachability, domain/range inheritance — the hot predicates every
    /// backward expansion walks) is materialized eagerly as inferred
    /// statements and kept fresh across schema updates, while instance
    /// patterns stay on demand. Schema-pattern queries read the store
    /// directly; the materialized schema also flattens the chainer's
    /// walks for everything else. The schema closure is *not* journaled —
    /// it is rebuilt from the explicit statements after Recover. Same
    /// backward-coverage requirement as kOnDemand.
    kHybrid,
  };

  struct Options {
    /// Directory for the statement log and the snapshot pair. Empty
    /// disables persistence (used by tests that only need the inference
    /// core).
    std::string storage_dir;
    /// Statements between flushes of the statement log.
    size_t log_flush_interval = 10000;
    /// The batch modes (kStatementAtATime, kSemiNaive) recompute the
    /// closure on every update of a loaded repository; the others maintain
    /// it (kIncremental) or have none to maintain (kOnDemand, kHybrid).
    InferenceMode inference = InferenceMode::kStatementAtATime;
    /// Engine tunables for kIncremental (buffer size, timeout, threads).
    ReasonerOptions incremental;
    /// If true (default), Checkpoint truncates the statement log to the
    /// tail above the snapshot's LSN. Disable to keep the full log — the
    /// crash-before-truncation window, useful for tests that corrupt a
    /// snapshot and expect the full-replay fallback to reconstruct
    /// everything.
    bool truncate_log_on_checkpoint = true;
  };

  /// Statistics of one Load/AddTriples/RemoveTriples call.
  struct LoadStats {
    size_t parsed = 0;   ///< statements parsed from the document (Load only)
    size_t removed = 0;  ///< explicit statements retracted (RemoveTriples)
    MaterializeStats materialize;
    double seconds = 0.0;  ///< wall-clock of the call, parsing included
  };

  /// Opens a fresh repository with the fragment built by `factory`.
  static Result<std::unique_ptr<Repository>> Open(const FragmentFactory& factory,
                                                  Options options);

  /// Parses an N-Triples document, loads it and fully materialises.
  /// Parsing and inference are timed together, as the paper does for
  /// OWLIM-SE ("the running times include both parsing and inferencing").
  Result<LoadStats> Load(std::string_view ntriples_document);

  /// Adds already-encoded statements; those already explicit are skipped.
  /// Under the batch modes the whole closure is recomputed from scratch
  /// once the store is non-empty. Every id must be bound in
  /// dictionary(): with storage on, each term is journaled the first time
  /// a statement uses it.
  Result<LoadStats> AddTriples(const TripleVec& triples);

  /// Removes explicit statements: the members of `triples` the store holds
  /// with explicit support (one probe each); the rest are ignored. Under
  /// the batch modes the closure is re-materialised from the surviving
  /// explicit statements — the batch systems' "initiate the reasoning
  /// process from the start" update drawback, measurable for deletions
  /// too. Under kIncremental the embedded engine runs DRed (demote →
  /// over-delete the cone → rederive survivors) instead, and under
  /// kOnDemand/kHybrid the victims are simply erased. Either way,
  /// tombstone records for everything dropped are appended to the
  /// statement log, so Recover's ordered replay converges on the new
  /// closure even though earlier log records still assert the old one.
  Result<LoadStats> RemoveTriples(const TripleVec& triples);

  /// Executes a parsed SPARQL Update request, operation by operation:
  /// INSERT DATA routes through AddTriples, DELETE DATA through
  /// RemoveTriples, DELETE WHERE instantiates its pattern block against the
  /// current store (ExpandDeleteWhere) and retracts the matches, and the
  /// templated INSERT/DELETE ... WHERE forms (ExpandModify) ground their
  /// templates from the WHERE solutions — deletes before inserts, both
  /// computed against the pre-update store. Under
  /// kIncremental every operation is maintained incrementally — additions
  /// through the buffered rule pipeline, deletions through DRed — so the
  /// derivation counters stay proportional to the touched cone. The first
  /// failing operation aborts the request; completed operations stay
  /// applied (no cross-operation rollback). A request that leaves the log
  /// tail past its bound ends with an automatic Checkpoint (see the class
  /// comment); a failure there is logged, not returned, since the update
  /// itself is applied and journaled.
  Result<UpdateResult> ExecuteUpdate(const UpdateRequest& request);

  /// The bound on the log tail that ExecuteUpdate keeps: once more than
  /// max(kLogTailMinRecords, snapshot triples / kLogTailSnapshotFraction)
  /// records follow the last snapshot's LSN, the update ends with a
  /// Checkpoint (see the class comment).
  static constexpr uint64_t kLogTailMinRecords = 16384;
  static constexpr uint64_t kLogTailSnapshotFraction = 16;

  /// Commits the repository state to disk: flushes the statement log,
  /// writes the snapshot pair (binary dictionary image + sorted-triple
  /// image anchored at the log's next LSN, built on the engine's idle pool
  /// under kIncremental) and — by default — truncates the statement log
  /// to the tail the snapshot does not cover. Every file write is atomic
  /// (temp file + rename). Must not run concurrently with an update. Part
  /// of a repository load, so the comparative benches include it in the
  /// baseline's measured time. See the class comment for the lifecycle.
  Status Checkpoint();

  /// Rewrites the statement log keeping only the last record per distinct
  /// triple, cancelling add/tombstone pairs outright when no snapshot
  /// precedes the log (see StatementLog::Compact). Only legal while every
  /// snapshot LSN is at or below the log's base — i.e. right after a
  /// Checkpoint, or before the first one.
  Status CompactLog();

  /// Rebuilds a repository from its storage directory. Prefers the
  /// checkpoint snapshot pair — dictionary-image restore, bulk-built
  /// store, short tail replay — and falls back to the full log replay
  /// (ordered replay of every record: terms, additions and tombstones)
  /// when the snapshot is absent, or corrupt while the full log is still
  /// available. A log without the SLDRLOG2 header is an error. See the
  /// class comment.
  static Result<std::unique_ptr<Repository>> Recover(
      const FragmentFactory& factory, Options options);

  Dictionary* dictionary() { return &dict_; }
  const Vocabulary& vocabulary() const { return vocab_; }
  const TripleStore& store() const { return *store_; }
  const Fragment& fragment() const;
  const Options& options() const { return options_; }

  /// The embedded incremental engine, or null outside kIncremental
  /// (introspection: rule-module stats, retract counters).
  const Reasoner* incremental_core() const { return slider_.get(); }

  /// The match provider SELECTs should evaluate over: the cost-routed
  /// HybridProvider under kOnDemand/kHybrid, a plain ForwardProvider over
  /// the materialized store otherwise. Never null after Open/Recover;
  /// recreated whenever the store is replaced (batch recompute, recovery),
  /// so callers must not cache it across updates — SparqlEndpoint re-reads
  /// it per request.
  const MatchProvider* provider() const;

  /// The hybrid provider, or null outside kOnDemand/kHybrid
  /// (introspection: route stats, tabling cache counters).
  const HybridProvider* hybrid_provider() const {
    return hybrid_provider_.get();
  }

  /// Cumulative rule outputs (pre-dedup) across the repository's lifetime —
  /// the hardware-independent "did this recompute?" measure: a batch-mode
  /// update grows it by ~|closure| rule applications, an incremental update
  /// only by the touched cone.
  uint64_t total_derivations() const;

  /// Number of stored statements with inferred support only.
  size_t inferred_count() const;

  /// Number of stored statements with explicit support: asserted and not
  /// yet retracted (TripleStore::ExplicitCount, O(shards)).
  size_t explicit_count() const;

 private:
  Repository() = default;

  /// (Re)creates the inference core over the current store and log.
  void ResetEngine();

  /// Dispatches to the selected inference core.
  Result<MaterializeStats> RunInference(const TripleVec& input);

  /// Batch modes: re-materialises the closure in a fresh store from the
  /// explicit statements minus `removed` plus `added` (none of them
  /// explicit yet), sorted by (s, p, o) so derivation counters never depend
  /// on store layout. The core journals the new closure; the old store is
  /// then walked for what it dropped or demoted. It is kept until both
  /// succeed and restored on failure, so the call can be retried.
  Result<MaterializeStats> Recompute(const TripleVec& added,
                                     const TripleSet& removed);

  /// True iff this repository runs one of the batch modes.
  bool BatchMode() const {
    return options_.inference == InferenceMode::kStatementAtATime ||
           options_.inference == InferenceMode::kSemiNaive;
  }

  /// True iff this repository runs one of the on-demand modes.
  bool OnDemandMode() const {
    return options_.inference == InferenceMode::kOnDemand ||
           options_.inference == InferenceMode::kHybrid;
  }

  /// True iff `delta` can change the materialized schema closure: it
  /// touches a schema predicate (subClassOf, subPropertyOf, domain, range),
  /// matches one of the fragment's structural clause atoms that can create
  /// schema rows ((· type Class) under RDFS, meta-link edges like
  /// owl:inverseOf), or the closure is currently meta-live (see
  /// ProbeSchemaMetaLive) — in which case any delta at all qualifies.
  bool SchemaClosureStale(const TripleVec& delta) const;

  /// True iff a meta edge lands *on* a schema predicate — e.g.
  /// (q subPropertyOf subClassOf) or (q inverseOf domain) — so instance
  /// deltas of arbitrary predicates can extend the schema closure. Probed
  /// after every RefreshSchemaClosure; while true, every delta refreshes.
  bool ProbeSchemaMetaLive() const;

  /// kHybrid only: drops the inferred rows of the four schema partitions
  /// and re-materializes the schema closure from the surviving explicit
  /// statements through the fragment's own rules (backward-chained, stored
  /// as inferred, never journaled), then re-probes meta-liveness.
  void RefreshSchemaClosure();

  /// On-demand AddTriples/RemoveTriples core: store mutation + direct
  /// journaling + schema refresh + table invalidation.
  Result<MaterializeStats> ApplyOnDemand(const TripleVec& input);

  /// True iff a snapshot exists, Checkpoint would truncate the log, and the
  /// log tail past the snapshot exceeds the bound above.
  bool LogTailPastBound() const;

  std::string LogPath() const;
  std::string SnapshotDictPath() const;
  std::string SnapshotTriplesPath() const;

  /// Appends a term record for every id of `triples` not yet durable.
  Status JournalTerms(const TripleVec& triples);

  /// Appends a term record for `id` unless it is already durable.
  Status JournalTerm(TermId id);

  /// Records that `id`'s binding survives a crash without a new record.
  void MarkDurable(TermId id);

  /// Recover's core: the snapshot pair if `from_snapshot`, then the log's
  /// term records and an ordered replay of its statements at or above the
  /// snapshot LSN (all of them without a snapshot); the log is reopened
  /// for appending and the engine reset.
  static Result<std::unique_ptr<Repository>> Replay(
      const FragmentFactory& factory, const Options& options,
      const StatementLog::Contents& log, bool from_snapshot);

  Options options_;
  Dictionary dict_;
  Vocabulary vocab_;
  FragmentFactory factory_;
  std::unique_ptr<TripleStore> store_;
  std::unique_ptr<StatementLog> log_;
  std::unique_ptr<BatchReasoner> semi_naive_;   // set iff kSemiNaive
  std::unique_ptr<TrreeReasoner> trree_;        // set iff kStatementAtATime
  std::unique_ptr<Reasoner> slider_;            // set iff kIncremental
  std::unique_ptr<Fragment> fragment_;          // set iff kOnDemand/kHybrid
  std::unique_ptr<ForwardProvider> forward_provider_;  // materialized modes
  std::unique_ptr<HybridProvider> hybrid_provider_;    // on-demand modes
  bool schema_meta_live_ = false;  // see ProbeSchemaMetaLive (kHybrid)
  uint64_t retired_derivations_ = 0;  // work of engines ResetEngine retired
  uint64_t snapshot_lsn_ = 0;  // LSN the last snapshot (written or recovered
                               // from) anchors at; guards log compaction
  // Triples in that snapshot; unset before the first. Sizes the log-tail
  // bound of the automatic checkpoint.
  std::optional<size_t> snapshot_triples_;
  // Ids a Recover could rebind right now: journaled by a term record, or
  // held by the snapshot image once the log is truncated against it. A
  // bitset, not a watermark: concurrent parsers can bind ids out of order
  // and Restore leaves gaps.
  std::vector<bool> durable_terms_;
};

}  // namespace slider

#endif  // SLIDER_REASON_REPOSITORY_H_
