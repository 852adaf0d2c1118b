#ifndef SLIDER_REASON_REASONER_H_
#define SLIDER_REASON_REASONER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "rdf/dictionary.h"
#include "rdf/vocabulary.h"
#include "reason/buffer.h"
#include "reason/dependency_graph.h"
#include "reason/fragment.h"
#include "reason/inference_trace.h"
#include "reason/options.h"
#include "store/statement_log.h"
#include "store/triple_store.h"

namespace slider {

/// \brief Slider: the incremental, streamed, forward-chaining reasoner
/// (paper Figure 1).
///
/// One rule module per fragment rule, each with a predicate-filtered Buffer;
/// flushed batches become rule tasks on a shared ThreadPool; each task joins
/// its delta against the shared TripleStore (Algorithm 1) and hands the
/// produced triples to its distributor, which stores them (deduplicating)
/// and routes the *new* ones along the rules dependency graph. Explicit
/// triples may arrive at any time and from several threads — "processing
/// data as soon as it is published" (§1).
///
/// Small rounds run on the caller's thread. A Flush() round whose
/// force-flushed buffers hold at most 2,048 triples in total, and fewer
/// than buffer_size, and a Retract() deletion round of at most 2,048
/// triples execute their rules inline instead of waking the pool: for the
/// few triples of a single-statement update the hand-off costs more than
/// the joins. Full buffers and larger rounds still go to the pool, so bulk
/// loads keep the parallel pipeline, and the closure is the same either
/// way.
///
/// Completeness invariant: every triple is inserted into the store *before*
/// it is enqueued to any buffer, and every rule joins its delta with the
/// full store in both directions. For any antecedent pair (t1, t2), the
/// execution that dequeues the later-routed triple finds the earlier one in
/// the store; delta×delta pairs are found because store ⊇ delta at
/// execution time. Property tests verify the resulting closure equals the
/// batch closure under many buffer sizes, timeouts and thread counts.
///
/// Retraction (DRed + counting fast path). Retract() removes explicit
/// triples and maintains the materialisation with the classic
/// over-delete/rederive scheme instead of recomputing from scratch:
///  1. *demote* — the victims lose their explicit support flag;
///  2. *over-delete* — each rule module runs in deletion mode along the
///     rules dependency graph: a deletion delta is joined against the store
///     (Rule::Apply, while the delta is still stored, mirroring the insert
///     path's store-before-route invariant so pairs deleted together are
///     still found), and every non-explicit consequence joins the next
///     round's delta before being erased. Explicit survivors act as base
///     facts and stop the cone.
///  3. *rederive* — over-deletion is conservative, so each over-deleted
///     triple is tested against the surviving closure with the rules'
///     deletion-mode backward checks (Rule::CanDerive), iterated to a
///     fixpoint so restored triples can support further restorations.
///
/// Counting fast path (ReasonerOptions::enable_counting). The insert
/// pipeline maintains a saturating per-triple *derivation count* (one per
/// inferred offer, exact up to LfRow::kCountSaturated). Before the cone is
/// walked — and again for every cone candidate — Retract() consults the
/// count: a triple whose count says "other derivations exist" is handed to
/// a one-step Rule::CanDerive check against the *surviving explicit facts
/// only* (TripleStore::GetExplicitView), and on a hit it is kept alive
/// outright, pruning its whole over-delete/rederive cone. Counts alone are
/// never trusted: under recursive rules a count can be inflated by cyclic
/// derivations with no surviving ancestry, so the count only *gates* the
/// explicit-view check, whose hits are sound (one-step derivable from the
/// surviving explicit set E' implies membership in closure(E')). The fast
/// path falls back to full DRed whenever the count is zero, has saturated
/// (overflowed its 7-bit width), or the explicit-view check misses — so disabling it, or a conservative count,
/// only costs work, never correctness.
///
/// The result equals a from-scratch closure of the surviving explicit set;
/// the randomized closure-oracle property tests assert exactly that, with
/// counting both on and off.
///
/// Thread-safety: AddTriple/AddTriples/AddNTriples may be called
/// concurrently. Flush() blocks until the closure of everything added
/// before the call is complete (adds racing with Flush may or may not be
/// covered). Retract() must not run concurrently with adds: it reaches
/// quiescence via Flush() and assumes the store only changes under its own
/// control until it returns (concurrent Retracts serialize on an internal
/// mutex). Accessors may be called at any time; explicit/inferred counters
/// track the *live* population, so Retract decreases them.
class Reasoner {
 public:
  /// Builds the engine: registers the vocabulary into a fresh dictionary,
  /// instantiates the fragment, derives the dependency graph, creates one
  /// module per rule and starts the thread pool (and timeout scanner).
  explicit Reasoner(const FragmentFactory& factory, ReasonerOptions options = {});

  /// Embedding constructor: runs the engine over *borrowed* resources
  /// instead of owning them. `dict` (required) supplies term ids — the
  /// vocabulary is registered into it, which is idempotent if the embedder
  /// already did. `store` (may be null → owned) holds the materialisation;
  /// when it is non-empty the live explicit/inferred counters are seeded
  /// from its support flags, so an engine attached to a recovered store
  /// reports the recovered population. `log` (may be null) receives a
  /// durable record of every store mutation the engine makes: an addition
  /// record per distinct stored triple, a tombstone per erased one,
  /// re-addition records for rederived triples, an explicit addition per
  /// promoted (re-asserted inferred) triple, and a tombstone plus an
  /// inferred re-addition per victim the counting fast path keeps — so an
  /// ordered replay of the log converges on the store contents and support
  /// flags even across Retract calls.
  /// Log appends are serialized internally; an append failure is sticky
  /// (see log_status()) and stops further logging. All borrowed resources
  /// must outlive the reasoner. This is how Repository embeds the
  /// incremental engine behind its SPARQL update surface.
  Reasoner(const FragmentFactory& factory, ReasonerOptions options,
           Dictionary* dict, TripleStore* store, StatementLog* log);

  /// Completes outstanding work, stops the scanner and joins the pool.
  ~Reasoner();

  Reasoner(const Reasoner&) = delete;
  Reasoner& operator=(const Reasoner&) = delete;

  /// Feeds one explicit triple (encoded against dictionary()).
  void AddTriple(const Triple& t);

  /// Feeds a batch of explicit triples.
  void AddTriples(const TripleVec& batch);

  /// Parses an N-Triples document and feeds every statement. Parsing and
  /// inference overlap, as in the paper's streamed ingestion.
  Status AddNTriples(std::string_view document);

  /// Blocks until the closure of all previously added triples is complete:
  /// force-flushes buffers and waits for the task cascade to drain.
  void Flush();

  /// Counters of one Retract() call (hardware-independent work measures;
  /// the demo GUI and bench_incremental report them).
  struct RetractStats {
    size_t requested = 0;      ///< triples offered for retraction
    size_t retracted = 0;      ///< distinct victims that were asserted
    size_t overdeleted = 0;    ///< triples erased by over-deletion (incl. victims)
    size_t rederived = 0;      ///< over-deleted triples restored by rederivation
    size_t delete_rounds = 0;  ///< over-deletion rounds until the cone closed
    uint64_t delete_derivations = 0;   ///< rule outputs in deletion mode
    uint64_t rederive_checks = 0;      ///< CanDerive probes during rederivation
    size_t count_fast_path = 0;  ///< victims kept alive by the counting gate
    size_t cone_pruned = 0;      ///< cone candidates pruned by the gate
    uint64_t count_checks = 0;   ///< explicit-view CanDerive probes it issued
  };

  /// Retracts a batch of explicit triples and incrementally maintains the
  /// materialisation (DRed; see the class comment). Offers that are not
  /// currently asserted — absent or inferred-only — are ignored. Blocks
  /// until the closure is consistent again.
  RetractStats Retract(const TripleVec& batch);

  /// Retracts one explicit triple.
  RetractStats RetractTriple(const Triple& t) { return Retract({t}); }

  Dictionary* dictionary() { return dict_; }
  const Dictionary& dictionary() const { return *dict_; }
  const Vocabulary& vocabulary() const { return vocab_; }
  const TripleStore& store() const { return *store_; }
  const Fragment& fragment() const { return fragment_; }
  const DependencyGraph& dependency_graph() const { return graph_; }
  const ReasonerOptions& options() const { return options_; }

  /// First error hit while appending to the borrowed statement log, or OK.
  /// Sticky: once an append fails, later mutations stop logging so the log
  /// is a clean prefix of the store history rather than a gapped one.
  Status log_status() const;

  /// Distinct explicit triples currently asserted (retraction demotes or
  /// removes; re-asserting an inferred triple promotes).
  size_t explicit_count() const { return explicit_count_.load(); }

  /// Distinct inferred triples currently stored (explicit_count() +
  /// inferred_count() == store().size() at quiescence).
  size_t inferred_count() const { return inferred_count_.load(); }

  /// Per-module counters — the numbers shown by the demo GUI (§4).
  struct RuleModuleStats {
    std::string rule_name;
    uint64_t accepted = 0;         ///< triples admitted into the buffer
    uint64_t full_flushes = 0;     ///< capacity-triggered executions
    uint64_t timeout_flushes = 0;  ///< timeout-triggered executions
    uint64_t forced_flushes = 0;   ///< Flush()-triggered executions
    uint64_t executions = 0;       ///< rule tasks completed
    uint64_t derivations = 0;      ///< triples produced before dedup
    uint64_t inferred_new = 0;     ///< distinct new triples produced
  };
  std::vector<RuleModuleStats> rule_stats() const;

  /// Sum of derivations across modules (pre-dedup work measure).
  uint64_t total_derivations() const;

  /// tasks_executed counts rule tasks only: ParallelFor helpers that an
  /// embedder runs on pool() are counted in parallel_tasks.
  ThreadPool::Stats pool_stats() const;

  /// The rule-module pool, lent to work an embedder runs while the engine
  /// is quiescent: Repository::Checkpoint builds its snapshot pair on it
  /// through ThreadPool::ParallelFor right after a flush.
  ThreadPool* pool() { return pool_.get(); }

 private:
  /// One rule module: rule + buffer + distributor routing list + counters.
  struct RuleModule {
    RulePtr rule;
    std::unique_ptr<Buffer> buffer;
    std::vector<int> successors;  // distributor's target modules
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> executions{0};
    std::atomic<uint64_t> derivations{0};
    std::atomic<uint64_t> inferred_new{0};
  };

  /// Inserts `batch` into the store and routes the delta to `candidates`'
  /// buffers (the modules whose filter admits each triple).
  void StoreAndRoute(const TripleVec& batch, const std::vector<int>& candidates,
                     bool is_input);

  /// Routes `delta` into the buffers of the candidate modules whose filter
  /// admits each triple, submitting tasks for every batch that filled.
  void RouteToModules(const TripleVec& delta, const std::vector<int>& candidates);

  /// Submits one rule execution over `batch`.
  void SubmitTask(int idx, TripleVec batch);

  /// Task body: Algorithm 1 + distribution.
  void ExecuteRule(int idx, const TripleVec& batch);

  /// Background scanner enforcing ReasonerOptions::buffer_timeout.
  void TimeoutLoop();

  bool AllBuffersEmpty() const;

  void Trace(TraceEventType type, const std::string& rule, uint64_t count) {
    if (options_.trace != nullptr) options_.trace->Record(type, rule, count);
  }

  /// Appends `batch` as addition records to the borrowed log (no-op when
  /// detached), flagged explicit or rule-derived so a snapshot-anchored
  /// tail replay can restore support. Thread-safe; called from rule tasks.
  void LogAdditions(const TripleVec& batch, bool is_explicit);

  /// Appends `batch` as tombstone records to the borrowed log.
  void LogTombstones(const TripleVec& batch);

  ReasonerOptions options_;
  std::unique_ptr<Dictionary> owned_dict_;  // set iff the dictionary is owned
  Dictionary* dict_;
  Vocabulary vocab_;
  Fragment fragment_;
  DependencyGraph graph_;
  std::unique_ptr<TripleStore> owned_store_;  // set iff the store is owned
  TripleStore* store_;
  StatementLog* log_;  // borrowed durability sink; may be null
  std::vector<std::unique_ptr<RuleModule>> modules_;
  std::vector<int> all_modules_;  // input routing candidates: every module
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<size_t> explicit_count_{0};
  std::atomic<size_t> inferred_count_{0};
  std::atomic<bool> stop_timeout_{false};
  std::thread timeout_thread_;
  /// Serialises buffer→task transfers against Flush()'s quiescence check.
  std::mutex transfer_mu_;
  /// Serialises Retract() calls against each other.
  std::mutex retract_mu_;
  /// Serialises appends to the borrowed statement log (rule tasks log their
  /// deltas concurrently) and guards log_error_.
  mutable std::mutex log_mu_;
  Status log_error_;
};

}  // namespace slider

#endif  // SLIDER_REASON_REASONER_H_
