#ifndef SLIDER_STORE_TRIPLE_STORE_H_
#define SLIDER_STORE_TRIPLE_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "common/status.h"
#include "rdf/term.h"
#include "store/lockfree_index.h"

namespace slider {

class StoreView;
class ThreadPool;

/// \brief In-memory, vertically partitioned, sharded concurrent RDF triple
/// store (paper §2.2, scaled out) with an epoch-published, lock-free read
/// path.
///
/// Layout. Triples are indexed by predicate first, then by subject and by
/// object inside each predicate partition — Abadi et al.'s vertical
/// partitioning, which the paper picks because every ρdf/RDFS/OWL rule
/// antecedent either walks all triples or accesses them by predicate first.
/// Partitions are distributed over N shards (N is a power of two derived
/// from hardware concurrency; see TripleStore(size_t)), where
/// shard(p) = mix(p) & (N-1). Each shard owns a writer mutex plus a
/// lock-free-read predicate table, so distributors writing different
/// predicates never contend and readers never contend with anyone.
///
/// Inside a partition both directions are LfRow maps (store/
/// lockfree_index.h): by_subject maps s -> object row, by_object mirrors it
/// as o -> subject row. Both rows are the same deduplicating, tombstone-
/// aware structure with an O(1) spill index for hub rows, so forward and
/// reverse joins are symmetric and mass-retraction around a hub object
/// costs amortized O(k) instead of the old O(k·n) vector scans.
///
/// Concurrency. The paper's ReentrantReadWriteLock design is gone: *reads
/// take no locks at all*. Writers (Add/AddAll/Erase/EraseAll/SetSupport)
/// serialize per shard on a plain mutex and publish their changes as
/// atomically visible entries inside immutable-in-shape index versions;
/// structural replacements (table growth, row growth, tombstone compaction,
/// row/partition unlinking) publish a fresh version and hand the old one to
/// an EpochManager (common/epoch.h), which frees it once no pinned reader
/// can still reference it. Readers — rule executions, backward queries, the
/// public read API — pin an epoch through a StoreView and then traverse
/// published versions directly. Add/AddAll report exactly the subset of
/// triples that were not yet present and the engine only ever routes that
/// subset ("Duplicates Limitation" §1); AddAll preserves batch order in the
/// returned delta.
///
/// Consistency. A pinned view observes a *monotone fuzzy* snapshot: every
/// triple whose insert happened-before the view's creation (e.g. through
/// the buffer hand-off that schedules a rule execution) is observed;
/// triples inserted or erased concurrently with the view may or may not be.
/// This is the same monotone guarantee the reasoner relied on under the old
/// reader locks — per-call shard atomicity is gone, but nothing in the
/// engine depended on it: forward chaining needs store ⊇ delta at execution
/// time (happens-before, preserved) and the DRed phases run quiesced.
/// Counters (size, ExplicitCount, stats) are relaxed atomics: exact
/// whenever no writer is mid-flight, fuzzy otherwise.
///
/// Callback contract: ForEach* methods invoke the callback while holding
/// only an epoch pin — no lock. Callbacks may freely issue nested reads
/// (they traverse the same or newer versions) and may even call mutating
/// methods of the same store without deadlock; a mutation made from inside
/// a callback may or may not be observed by the iteration that invoked it.
/// The old nested-reader-lock deadlock caveat (writer-preferring rwlocks,
/// Windows SRWLOCK) is obsolete. The only obligation is lifetime: a
/// StoreView (and anything obtained through it) must not outlive the store.
///
/// Support flags and retraction. Every stored triple carries one support
/// flag: *explicit* (asserted by the application) or *inferred* (produced
/// by a rule). The flag is settable both ways — retracting an explicit
/// triple demotes it to inferred support before the reasoner decides
/// whether it survives, and re-asserting an inferred triple promotes it —
/// and rows are tombstone-aware: Erase marks the slot dead in both
/// direction rows (compacted copy-on-write once tombstones dominate) and
/// unlinks emptied rows/partitions, so the index never serves ghosts.
/// Erase counters are shard-local like the insert counters.
///
/// Id 0 (kAnyTerm) is a pattern wildcard, never a term: triples containing
/// it are rejected by Add/AddAll (not stored, not counted as offers) and
/// Contains reports them absent.
class TripleStore {
 public:
  /// `shard_count` 0 (the default) sizes the stripe to the hardware: the
  /// next power of two >= hardware_concurrency, floored at kMinShards so a
  /// store built on a small machine still spreads oversubscribed writer
  /// threads. A nonzero count is rounded up to a power of two (benches use
  /// 1 to reproduce the single-mutex baseline's contention profile).
  explicit TripleStore(size_t shard_count = 0);
  ~TripleStore();

  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;

  /// Pins the current epoch and returns a read view. The view is cheap to
  /// create (a couple of atomic operations), holds no lock, and must not
  /// outlive the store. Hold one view across a batch of related reads (a
  /// rule execution, a query) rather than pinning per probe.
  StoreView GetView() const;

  /// Pins the current epoch and returns a view restricted to triples with
  /// *explicit* support (see the StoreView class comment). The retraction
  /// fast path runs Rule::CanDerive against this view: a hit proves the
  /// candidate derivable from asserted facts alone.
  StoreView GetExplicitView() const;

  /// Inserts one triple with the given support. Returns true iff it was not
  /// already present; a duplicate offer with `is_explicit` promotes an
  /// inferred entry to explicit support.
  bool Add(const Triple& t, bool is_explicit = true);

  /// Inserts a batch; newly added triples are appended to `*delta` when
  /// `delta` is non-null, in batch order. Returns the number of newly added
  /// triples. Duplicate offers with `is_explicit` that promoted an inferred
  /// entry to explicit support are appended to `*promoted` when non-null.
  /// The shard writer lock is held across runs of same-shard triples, so
  /// predicate-clustered batches pay one acquisition per run.
  size_t AddAll(const TripleVec& batch, TripleVec* delta = nullptr,
                bool is_explicit = true, TripleVec* promoted = nullptr);

  /// Removes one triple (any support). Returns true iff it was present.
  bool Erase(const Triple& t);

  /// Removes a batch; erased triples are appended to `*erased` when
  /// non-null, in batch order. Returns the number of triples removed.
  size_t EraseAll(const TripleVec& batch, TripleVec* erased = nullptr);

  /// True iff the triple is present.
  bool Contains(const Triple& t) const;

  /// True iff any stored triple has subject `s`. Existence probe: one hash
  /// lookup per predicate partition, early exit on the first hit, no row
  /// iteration (the rederive checks of universal rules need this to stay
  /// near-constant instead of sweeping the store).
  bool AnyWithSubject(TermId s) const;

  /// True iff any stored triple has object `o` (mirror of AnyWithSubject).
  bool AnyWithObject(TermId o) const;

  /// True iff the triple is present with explicit support.
  bool IsExplicit(const Triple& t) const;

  /// Sets the support flag of a present triple. Returns +1 if the flag
  /// flipped, 0 if it already had that support, -1 if the triple is absent.
  /// The derivation count is preserved across flips.
  int SetSupport(const Triple& t, bool is_explicit);

  /// Decrements the triple's derivation count (maintained by the insert
  /// pipeline: one per inferred offer, saturating at
  /// LfRow::kCountSaturated). Returns the remaining count, or -1 when the
  /// count carries no information — triple absent, count already zero, or
  /// saturated. Counts are retraction *hints*: a nonzero remainder alone
  /// never proves survival (recursive rules can inflate it with cyclic
  /// derivations); pair it with a CanDerive check against GetExplicitView().
  int DecrementDerivations(const Triple& t);

  /// The triple's current derivation count: -1 if absent,
  /// LfRow::kCountSaturated if overflowed, the exact count otherwise.
  int DerivationCount(const Triple& t) const;

  /// Number of stored triples with explicit support (cross-shard).
  size_t ExplicitCount() const;

  /// Number of distinct triples stored (cross-shard; see consistency note).
  size_t size() const;

  /// Number of non-empty predicate partitions (cross-shard).
  size_t NumPredicates() const;

  /// All predicates with at least one triple (cross-shard).
  std::vector<TermId> Predicates() const;

  /// Number of triples whose predicate is `p`.
  size_t CountWithPredicate(TermId p) const;

  /// Number of shards in the stripe (power of two; introspection/benches).
  size_t shard_count() const { return shard_count_; }

  /// Invokes fn(subject, object) for every triple with predicate `p`.
  /// Convenience wrappers over a per-call view; see StoreView.
  template <typename Fn>
  void ForEachWithPredicate(TermId p, Fn&& fn) const;

  /// Invokes fn(object) for every triple (s, p, object).
  template <typename Fn>
  void ForEachObject(TermId p, TermId s, Fn&& fn) const;

  /// Invokes fn(subject) for every triple (subject, p, o).
  template <typename Fn>
  void ForEachSubject(TermId p, TermId o, Fn&& fn) const;

  /// Invokes fn(const Triple&) for every triple matching `pattern`,
  /// dispatching to the best index for the bound positions.
  template <typename Fn>
  void ForEachMatch(const TriplePattern& pattern, Fn&& fn) const;

  /// Materializes the matches of `pattern`.
  TripleVec Match(const TriplePattern& pattern) const;

  /// Copies out every stored triple (tests & serialization).
  TripleVec Snapshot() const;

  /// Copies out every stored triple as a set (closure comparisons).
  TripleSet SnapshotSet() const;

  /// One exported subject row: the objects of (subject, p, ·) with their
  /// raw LfRow flag bytes (explicit bit + saturating derivation count).
  struct SnapshotRow {
    TermId subject = 0;
    std::vector<std::pair<TermId, uint8_t>> objects;
  };

  /// One partition of a quiesced export (see CollectForSnapshot): the
  /// predicate and its non-empty subject rows, ascending by subject.
  struct SnapshotPartition {
    TermId predicate = 0;
    std::vector<std::pair<TermId, const LfRow*>> rows;

    /// Invokes fn(subject, objects) for rows [begin, end), in order.
    /// `objects` holds the row's (object, raw flag byte) pairs sorted by
    /// object; it is reused across rows, so it is valid only during the
    /// call.
    template <typename Fn>
    void ForEachRow(size_t begin, size_t end, Fn&& fn) const;
  };

  /// A quiesced export: every non-empty partition in ascending predicate
  /// order, the layout the snapshot's delta encoder wants. The pin keeps
  /// the rows readable for as long as the export lives.
  struct SnapshotExport {
    EpochPin pin;
    std::vector<SnapshotPartition> partitions;
  };

  /// Builds the export for the snapshot writer: collects and sorts each
  /// partition's subject rows as one ThreadPool::ParallelFor task on
  /// `pool` (inline when null). It copies one (subject, row) pair per
  /// subject and nothing of the rows themselves. Must run with no
  /// concurrent writers.
  SnapshotExport CollectForSnapshot(ThreadPool* pool) const;

  /// Hands fn(predicate, rows) each partition of CollectForSnapshot(nullptr)
  /// as a materialized SnapshotRow vector, sorted by subject, objects by
  /// object (consistency checks and tests).
  template <typename Fn>
  void ExportForSnapshot(Fn&& fn) const;

  /// Recovery bulk load: installs a whole predicate partition in one shot —
  /// exact-capacity rows via LfRow::BulkAppend, no per-triple dedup probes,
  /// the by_object mirror regrouped from the same rows. Requires a store
  /// this predicate is not yet present in (fresh recovery store) and no
  /// concurrent access. `rows` must be dedup'd (distinct subjects, distinct
  /// objects per subject), as the snapshot format guarantees.
  Status BulkLoadPartition(TermId p, const std::vector<SnapshotRow>& rows);

  /// Monotonic counters for the benches and the demo player. Counters are
  /// shard-local relaxed atomics aggregated here, so
  /// `insert_attempts == accepted + rejected` and `erase_attempts >=
  /// erased` hold exactly whenever no writer is mid-flight.
  struct Stats {
    uint64_t insert_attempts = 0;      ///< triples offered to Add/AddAll
    uint64_t duplicates_rejected = 0;  ///< offers that were already present
    uint64_t erase_attempts = 0;       ///< triples offered to Erase/EraseAll
    uint64_t erased = 0;               ///< offers that removed a stored triple
  };
  Stats stats() const;

  /// The store's reclamation domain (introspection/tests: garbage levels,
  /// forced collection at quiescence).
  EpochManager& epochs() const { return epochs_; }

 private:
  friend class StoreView;

  /// One vertical partition: all triples sharing a predicate, indexed both
  /// ways ("HashMaps of MultiMaps", §2.2). by_subject is authoritative for
  /// membership; by_object mirrors accepted inserts only, so it needs no
  /// dedup decisions of its own.
  struct Partition {
    ~Partition() {
      // Live rows are owned by the maps' live entries; rows unlinked
      // earlier were retired individually and are not reachable here.
      by_subject.ForEachOwned([](LfRow* row) { delete row; });
      by_object.ForEachOwned([](LfRow* row) { delete row; });
    }

    LfPtrMap<LfRow> by_subject;  // s -> object row (authoritative)
    LfPtrMap<LfRow> by_object;   // o -> subject row (mirror)
    std::atomic<size_t> count{0};
  };

  struct AtomicStats {
    std::atomic<uint64_t> insert_attempts{0};
    std::atomic<uint64_t> duplicates_rejected{0};
    std::atomic<uint64_t> erase_attempts{0};
    std::atomic<uint64_t> erased{0};
  };

  /// One shard. Cache-line aligned so writers on neighbouring shards do not
  /// false-share the mutex or the counters. The mutex serializes *writers
  /// only* — readers go straight to the published tables.
  struct alignas(64) Shard {
    std::mutex mu;                      // writers only
    LfPtrMap<Partition> partitions;     // keyed by predicate
    std::atomic<size_t> triples{0};
    std::atomic<size_t> explicit_triples{0};
    AtomicStats stats;
  };

  /// Shard routing uses the mix's HIGH bits. The per-shard partition table
  /// masks the same mix with its (low-bit) capacity mask; deriving the shard
  /// from the low bits too would constrain every predicate in a shard to
  /// ideal slots congruent to the shard index, clustering the table's probe
  /// chains. High bits keep the two index spaces independent.
  size_t ShardIndex(TermId p) const { return (LfMix(p) >> 32) & shard_mask_; }
  Shard& ShardFor(TermId p) { return shards_[ShardIndex(p)]; }
  const Shard& ShardFor(TermId p) const { return shards_[ShardIndex(p)]; }

  /// Inserts into `shard`; caller holds that shard's writer mutex.
  /// `t` is appended to `*promoted` (when non-null) if a duplicate explicit
  /// offer promoted an inferred entry.
  bool AddLocked(Shard& shard, const Triple& t, bool is_explicit,
                 TripleVec* promoted);

  /// Erases from `shard`; caller holds that shard's writer mutex.
  bool EraseLocked(Shard& shard, const Triple& t);

  /// Reclamation domain shared by every index version in this store.
  /// Declared first so it is destroyed last: the destructor frees whatever
  /// garbage is still queued. Mutable because pinning is a reader-side
  /// operation behind const read methods.
  mutable EpochManager epochs_;
  size_t shard_count_;
  size_t shard_mask_;
  std::unique_ptr<Shard[]> shards_;
};

/// \brief A pinned, lock-free read view of a TripleStore.
///
/// The only thing rule executions (Rule::Apply / Rule::CanDerive) and the
/// query layer see. Creating a view pins the store's current epoch;
/// destroying it unpins. While the view lives, every structure version it
/// can reach stays allocated (common/epoch.h), so all reads proceed without
/// any lock and never block on — or convoy with — the distributor's
/// writers.
///
/// Semantics: monotone fuzzy snapshot (see the TripleStore class comment).
/// Everything inserted happened-before the view's creation is visible;
/// concurrent inserts/erases may or may not be. Views are movable, cheap,
/// and must not outlive their store. Holding a view for a very long time
/// only delays memory reclamation, never correctness.
///
/// Explicit-only mode (TripleStore::GetExplicitView): the membership and
/// iteration methods that rules consume — Contains, AnyWithSubject,
/// AnyWithObject, ForEachWithPredicate, ForEachObject, ForEachSubject,
/// ForEachMatch/Match — restrict themselves to triples holding *explicit*
/// support, so a Rule::CanDerive run against such a view proves one-step
/// derivability from the asserted facts alone (the retraction fast path's
/// soundness condition: one-step derivable from the surviving explicit set
/// implies membership in its closure). The by_object mirror rows carry no
/// meaningful support flags (mirrors are always inserted as inferred), so
/// object-anchored reads verify every candidate against the authoritative
/// by_subject row. The counting/estimate methods (size, CountWith*,
/// NumPredicates, Predicates) intentionally stay whole-store: they feed
/// planners, not proofs.
class StoreView {
 public:
  explicit StoreView(const TripleStore* store, bool explicit_only = false)
      : store_(store), explicit_only_(explicit_only),
        pin_(store->epochs_.pin()) {}

  StoreView(StoreView&&) noexcept = default;
  StoreView& operator=(StoreView&&) noexcept = default;
  StoreView(const StoreView&) = delete;
  StoreView& operator=(const StoreView&) = delete;

  /// True iff the triple is present (with explicit support, in
  /// explicit-only mode).
  bool Contains(const Triple& t) const {
    if (!Storable(t)) return false;
    const LfRow* row = RowFor(t.p, t.s);
    if (row == nullptr) return false;
    return explicit_only_ ? row->IsExplicit(t.o) : row->Contains(t.o);
  }

  /// True iff the triple is present with explicit support.
  bool IsExplicit(const Triple& t) const {
    if (!Storable(t)) return false;
    const LfRow* row = RowFor(t.p, t.s);
    return row != nullptr && row->IsExplicit(t.o);
  }

  /// True iff any stored triple has subject `s` (existence probe; rows are
  /// unlinked as soon as they empty, so row presence == a triple).
  bool AnyWithSubject(TermId s) const {
    if (s == kAnyTerm) return false;
    for (size_t i = 0; i < store_->shard_count_; ++i) {
      if (store_->shards_[i].partitions.ForEachUntil(
              [&](TermId, const TripleStore::Partition& part) {
                const LfRow* row = part.by_subject.Find(s);
                if (row == nullptr) return false;
                return !explicit_only_ || row->AnyExplicit();
              })) {
        return true;
      }
    }
    return false;
  }

  /// True iff any stored triple has object `o` (mirror of AnyWithSubject).
  /// In explicit-only mode each mirrored subject is verified against the
  /// authoritative by_subject flags.
  bool AnyWithObject(TermId o) const {
    if (o == kAnyTerm) return false;
    for (size_t i = 0; i < store_->shard_count_; ++i) {
      if (store_->shards_[i].partitions.ForEachUntil(
              [&](TermId, const TripleStore::Partition& part) {
                const LfRow* row = part.by_object.Find(o);
                if (row == nullptr) return false;
                if (!explicit_only_) return true;
                return row->ForEachUntil([&](TermId s) {
                  const LfRow* fwd = part.by_subject.Find(s);
                  return fwd != nullptr && fwd->IsExplicit(o);
                });
              })) {
        return true;
      }
    }
    return false;
  }

  /// Number of triples whose predicate is `p`.
  size_t CountWithPredicate(TermId p) const {
    const TripleStore::Partition* part = PartitionFor(p);
    return part == nullptr ? 0
                           : part->count.load(std::memory_order_relaxed);
  }

  /// Estimated number of triples whose subject is `s`, summed over every
  /// predicate partition (per-row published lengths, so it may overcount by
  /// the rows' tombstones but never undercounts). One hash probe per
  /// partition — the query planner's cardinality source for subject-bound,
  /// predicate-unbound patterns.
  size_t CountWithSubject(TermId s) const {
    if (s == kAnyTerm) return size();
    size_t total = 0;
    for (size_t i = 0; i < store_->shard_count_; ++i) {
      store_->shards_[i].partitions.ForEach(
          [&](TermId, const TripleStore::Partition& part) {
            const LfRow* row = part.by_subject.Find(s);
            if (row != nullptr) total += row->SizeEstimate();
          });
    }
    return total;
  }

  /// Estimated number of triples whose object is `o` (mirror of
  /// CountWithSubject, over the by_object rows).
  size_t CountWithObject(TermId o) const {
    if (o == kAnyTerm) return size();
    size_t total = 0;
    for (size_t i = 0; i < store_->shard_count_; ++i) {
      store_->shards_[i].partitions.ForEach(
          [&](TermId, const TripleStore::Partition& part) {
            const LfRow* row = part.by_object.Find(o);
            if (row != nullptr) total += row->SizeEstimate();
          });
    }
    return total;
  }

  /// Number of objects stored for (s, p, ·): the by_subject row's published
  /// length — one hash probe, may overcount by the row's tombstones but
  /// never undercounts. The planner's exact-row cardinality for
  /// subject-bound patterns inside a predicate partition.
  size_t CountObjects(TermId p, TermId s) const {
    const LfRow* row = RowFor(p, s);
    return row == nullptr ? 0 : row->SizeEstimate();
  }

  /// Number of subjects stored for (·, p, o): mirror of CountObjects over
  /// the by_object row.
  size_t CountSubjects(TermId p, TermId o) const {
    const TripleStore::Partition* part = PartitionFor(p);
    if (part == nullptr) return 0;
    const LfRow* row = part->by_object.Find(o);
    return row == nullptr ? 0 : row->SizeEstimate();
  }

  /// Number of distinct triples stored (relaxed counter aggregate).
  size_t size() const { return store_->size(); }

  /// Number of non-empty predicate partitions. Counted by scanning the
  /// published tables (the writer-side live counters are lock-guarded).
  size_t NumPredicates() const {
    size_t total = 0;
    for (size_t i = 0; i < store_->shard_count_; ++i) {
      store_->shards_[i].partitions.ForEach(
          [&](TermId, const TripleStore::Partition&) { ++total; });
    }
    return total;
  }

  /// All predicates with at least one triple.
  std::vector<TermId> Predicates() const {
    std::vector<TermId> out;
    for (size_t i = 0; i < store_->shard_count_; ++i) {
      store_->shards_[i].partitions.ForEach(
          [&](TermId p, const TripleStore::Partition&) { out.push_back(p); });
    }
    return out;
  }

  /// Invokes fn(subject, object) for every triple with predicate `p`.
  template <typename Fn>
  void ForEachWithPredicate(TermId p, Fn&& fn) const {
    const TripleStore::Partition* part = PartitionFor(p);
    if (part == nullptr) return;
    if (explicit_only_) {
      part->by_subject.ForEach([&](TermId s, const LfRow& row) {
        row.ForEachExplicit([&](TermId o) { fn(s, o); });
      });
      return;
    }
    part->by_subject.ForEach([&](TermId s, const LfRow& row) {
      row.ForEach([&](TermId o) { fn(s, o); });
    });
  }

  /// Invokes fn(object) for every triple (s, p, object).
  template <typename Fn>
  void ForEachObject(TermId p, TermId s, Fn&& fn) const {
    const LfRow* row = RowFor(p, s);
    if (row == nullptr) return;
    if (explicit_only_) {
      row->ForEachExplicit([&](TermId o) { fn(o); });
      return;
    }
    row->ForEach([&](TermId o) { fn(o); });
  }

  /// Invokes fn(subject) for every triple (subject, p, o). Explicit-only
  /// mode verifies each mirrored subject against the by_subject flags.
  template <typename Fn>
  void ForEachSubject(TermId p, TermId o, Fn&& fn) const {
    const TripleStore::Partition* part = PartitionFor(p);
    if (part == nullptr) return;
    const LfRow* row = part->by_object.Find(o);
    if (row == nullptr) return;
    if (explicit_only_) {
      row->ForEach([&](TermId s) {
        const LfRow* fwd = part->by_subject.Find(s);
        if (fwd != nullptr && fwd->IsExplicit(o)) fn(s);
      });
      return;
    }
    row->ForEach([&](TermId s) { fn(s); });
  }

  /// Invokes fn(const Triple&) for every triple matching `pattern`,
  /// dispatching to the best index for the bound positions.
  template <typename Fn>
  void ForEachMatch(const TriplePattern& pattern, Fn&& fn) const {
    if (pattern.p != kAnyTerm) {
      const TripleStore::Partition* part = PartitionFor(pattern.p);
      if (part != nullptr) MatchInPartition(pattern.p, *part, pattern, fn);
      return;
    }
    for (size_t i = 0; i < store_->shard_count_; ++i) {
      store_->shards_[i].partitions.ForEach(
          [&](TermId p, const TripleStore::Partition& part) {
            MatchInPartition(p, part, pattern, fn);
          });
    }
  }

  /// Materializes the matches of `pattern`.
  TripleVec Match(const TriplePattern& pattern) const {
    TripleVec out;
    ForEachMatch(pattern, [&](const Triple& t) { out.push_back(t); });
    return out;
  }

 private:
  static bool Storable(const Triple& t) {
    return t.s != kAnyTerm && t.p != kAnyTerm && t.o != kAnyTerm;
  }

  const TripleStore::Partition* PartitionFor(TermId p) const {
    return store_->ShardFor(p).partitions.Find(p);
  }

  const LfRow* RowFor(TermId p, TermId s) const {
    const TripleStore::Partition* part = PartitionFor(p);
    return part == nullptr ? nullptr : part->by_subject.Find(s);
  }

  template <typename Fn>
  void MatchInPartition(TermId p, const TripleStore::Partition& part,
                        const TriplePattern& pattern, Fn&& fn) const {
    if (pattern.s != kAnyTerm) {
      const LfRow* row = part.by_subject.Find(pattern.s);
      if (row == nullptr) return;
      if (pattern.o != kAnyTerm) {
        const bool hit = explicit_only_ ? row->IsExplicit(pattern.o)
                                        : row->Contains(pattern.o);
        if (hit) fn(Triple(pattern.s, p, pattern.o));
        return;
      }
      if (explicit_only_) {
        row->ForEachExplicit([&](TermId o) { fn(Triple(pattern.s, p, o)); });
      } else {
        row->ForEach([&](TermId o) { fn(Triple(pattern.s, p, o)); });
      }
      return;
    }
    if (pattern.o != kAnyTerm) {
      const LfRow* row = part.by_object.Find(pattern.o);
      if (row == nullptr) return;
      if (explicit_only_) {
        // Mirror flags are meaningless; verify via by_subject.
        row->ForEach([&](TermId s) {
          const LfRow* fwd = part.by_subject.Find(s);
          if (fwd != nullptr && fwd->IsExplicit(pattern.o)) {
            fn(Triple(s, p, pattern.o));
          }
        });
      } else {
        row->ForEach([&](TermId s) { fn(Triple(s, p, pattern.o)); });
      }
      return;
    }
    if (explicit_only_) {
      part.by_subject.ForEach([&](TermId s, const LfRow& row) {
        row.ForEachExplicit([&](TermId o) { fn(Triple(s, p, o)); });
      });
      return;
    }
    part.by_subject.ForEach([&](TermId s, const LfRow& row) {
      row.ForEach([&](TermId o) { fn(Triple(s, p, o)); });
    });
  }

  const TripleStore* store_;
  bool explicit_only_ = false;
  EpochPin pin_;
};

inline StoreView TripleStore::GetView() const { return StoreView(this); }

inline StoreView TripleStore::GetExplicitView() const {
  return StoreView(this, /*explicit_only=*/true);
}

template <typename Fn>
void TripleStore::ForEachWithPredicate(TermId p, Fn&& fn) const {
  GetView().ForEachWithPredicate(p, std::forward<Fn>(fn));
}

template <typename Fn>
void TripleStore::ForEachObject(TermId p, TermId s, Fn&& fn) const {
  GetView().ForEachObject(p, s, std::forward<Fn>(fn));
}

template <typename Fn>
void TripleStore::ForEachSubject(TermId p, TermId o, Fn&& fn) const {
  GetView().ForEachSubject(p, o, std::forward<Fn>(fn));
}

template <typename Fn>
void TripleStore::ForEachMatch(const TriplePattern& pattern, Fn&& fn) const {
  GetView().ForEachMatch(pattern, std::forward<Fn>(fn));
}

template <typename Fn>
void TripleStore::SnapshotPartition::ForEachRow(size_t begin, size_t end,
                                                Fn&& fn) const {
  std::vector<std::pair<TermId, uint8_t>> objects;
  for (size_t i = begin; i < end; ++i) {
    // Three rows' dependent misses in flight at once: the row, its
    // version, its arrays (see LfRow::PrefetchVersion).
    if (i + 12 < end) __builtin_prefetch(rows[i + 12].second);
    if (i + 8 < end) rows[i + 8].second->PrefetchVersion();
    if (i + 4 < end) rows[i + 4].second->PrefetchArrays();
    objects.clear();
    rows[i].second->ForEachWithFlags(
        [&](uint64_t o, uint8_t flags) { objects.emplace_back(o, flags); });
    std::sort(objects.begin(), objects.end());
    fn(rows[i].first, objects);
  }
}

template <typename Fn>
void TripleStore::ExportForSnapshot(Fn&& fn) const {
  const SnapshotExport exported = CollectForSnapshot(nullptr);
  std::vector<SnapshotRow> rows;
  for (const SnapshotPartition& part : exported.partitions) {
    rows.clear();
    part.ForEachRow(0, part.rows.size(), [&](TermId s, const auto& objects) {
      rows.push_back(SnapshotRow{s, objects});
    });
    fn(part.predicate, rows);
  }
}

}  // namespace slider

#endif  // SLIDER_STORE_TRIPLE_STORE_H_
