#ifndef SLIDER_STORE_LOCKFREE_INDEX_H_
#define SLIDER_STORE_LOCKFREE_INDEX_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/epoch.h"
#include "common/hash.h"

namespace slider {

/// \brief Single-writer, lock-free-reader index structures backing the
/// TripleStore's epoch-published snapshot read path.
///
/// Contract shared by every structure in this header:
///  - *One writer at a time* (the store's per-shard writer mutex provides
///    this); writers mutate in place where readers can tolerate it and
///    publish replacement versions (copy-on-write) where they cannot,
///    retiring the old version through the owning EpochManager.
///  - *Readers hold an epoch pin* (see common/epoch.h) for the whole time
///    they dereference anything obtained from these structures, and take no
///    locks. A reader races writers and observes a *monotone fuzzy*
///    snapshot: every entry published before the reader's pin is observed;
///    entries inserted or erased while the reader runs may or may not be.
///  - Keys are nonzero 64-bit ids below 2^64-1: 0 is the empty-slot
///    sentinel (kAnyTerm never names a term) and ~0 marks a tombstoned
///    slot.

/// Mixes an id before masking to a power-of-two capacity (sequential
/// dictionary ids would otherwise cluster).
inline size_t LfMix(uint64_t key) { return HashCombine(0, key); }

/// \brief One published version of a linear-probe hash table: a fixed slot
/// array, immutable in shape, with atomically published entries.
///
/// Entry publication: the writer stores the value first (relaxed) and then
/// the key (release); a reader that acquire-loads a live key therefore sees
/// the matching value. Erase overwrites the key with the tombstone sentinel;
/// tombstoned slots are never reused for a different key (probe chains and
/// key/value pairing stay valid under racing readers) — they are purged
/// only when the owning LfMap rebuilds into a fresh version.
struct LfTable {
  static constexpr uint64_t kEmpty = 0;
  static constexpr uint64_t kTombstone = ~uint64_t{0};

  struct Slot {
    std::atomic<uint64_t> key{kEmpty};
    std::atomic<uint64_t> value{0};
  };

  explicit LfTable(size_t capacity_pow2)
      : capacity(capacity_pow2),
        mask(capacity_pow2 - 1),
        slots(new Slot[capacity_pow2]) {
    assert((capacity & mask) == 0 && "capacity must be a power of two");
  }

  const size_t capacity;
  const size_t mask;
  const std::unique_ptr<Slot[]> slots;
};

/// \brief Lock-free-read hash map from nonzero uint64 ids to uint64 values
/// (raw ids or pointers), single writer, epoch-reclaimed versions.
///
/// The writer-side size/tombstone bookkeeping lives in the map object and is
/// guarded by the external writer lock; the slot array is the published
/// LfTable version readers traverse under a pin. Values of a live key never
/// change in place (the store's usage: a key is bound to one row/partition
/// pointer or slot number until erased; re-adding after an erase binds a
/// fresh slot, and position renumbering replaces the whole version via
/// RebuildFrom).
class LfMap {
 public:
  LfMap() = default;

  ~LfMap() {
    // Structural teardown (store destructor or retired owner being freed):
    // by contract no reader can reach us anymore, so the current version is
    // deleted outright. Previously replaced versions were retired when they
    // were unlinked.
    delete table_.load(std::memory_order_relaxed);
  }

  LfMap(const LfMap&) = delete;
  LfMap& operator=(const LfMap&) = delete;

  /// Number of live entries (writer-side exact; fuzzy for readers).
  size_t live() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// True iff a table version is published (readers use this to decide
  /// whether a probe miss is authoritative).
  bool HasVersion() const {
    return table_.load(std::memory_order_seq_cst) != nullptr;
  }

  // -- Writer API (external mutual exclusion required) ----------------------

  /// Binds `key` (which must be absent) to `value`. `epochs` receives any
  /// version replaced along the way.
  void Insert(EpochManager* epochs, uint64_t key, uint64_t value) {
    assert(key != LfTable::kEmpty && key != LfTable::kTombstone);
    LfTable* t = table_.load(std::memory_order_relaxed);
    if (t == nullptr || (used_ + 1) * 8 > t->capacity * 7) {
      t = Grow(epochs);
    }
    size_t pos = LfMix(key) & t->mask;
    while (true) {
      LfTable::Slot& slot = t->slots[pos];
      const uint64_t k = slot.key.load(std::memory_order_relaxed);
      if (k == LfTable::kEmpty) {
        slot.value.store(value, std::memory_order_relaxed);
        slot.key.store(key, std::memory_order_release);
        ++live_;
        ++used_;
        return;
      }
      assert(k != key && "duplicate key");
      pos = (pos + 1) & t->mask;
    }
  }

  /// Tombstones `key`. Returns true iff it was live.
  bool Erase(EpochManager* epochs, uint64_t key) {
    LfTable::Slot* slot = FindSlot(key);
    if (slot == nullptr) return false;
    // seq_cst, not release: when the value is a protected pointer this
    // store is the *unlink* step of the epoch contract, and the
    // reclamation-safety argument needs it in the same total order as the
    // epoch counter and the pin slots (see common/epoch.h).
    slot->key.store(LfTable::kTombstone, std::memory_order_seq_cst);
    --live_;
    // `used_` keeps counting the tombstone until the next rebuild; rebuild
    // early once tombstones dominate so probe chains stay short.
    if (live_ * 2 < used_ && used_ >= 16) Grow(epochs);
    return true;
  }

  /// Writer-side lookup (sees the writer's own in-flight state exactly).
  bool FindWriter(uint64_t key, uint64_t* value) const {
    const LfTable::Slot* slot = FindSlot(key);
    if (slot == nullptr) return false;
    if (value != nullptr) {
      *value = slot->value.load(std::memory_order_relaxed);
    }
    return true;
  }

  /// Wholesale version replacement: builds a fresh table holding exactly
  /// the `count` (key, value) pairs `gen` emits, publishes it atomically
  /// and retires the old version. Readers always observe either the
  /// complete old version or the complete new one — this is how the row
  /// spill index follows a compaction's position renumbering without ever
  /// under-covering the key set.
  template <typename Gen>
  void RebuildFrom(EpochManager* epochs, size_t count, Gen&& gen) {
    LfTable* fresh = new LfTable(CapacityFor(count));
    gen([&](uint64_t key, uint64_t value) {
      assert(key != LfTable::kEmpty && key != LfTable::kTombstone);
      size_t pos = LfMix(key) & fresh->mask;
      while (fresh->slots[pos].key.load(std::memory_order_relaxed) !=
             LfTable::kEmpty) {
        pos = (pos + 1) & fresh->mask;
      }
      // Not yet published: relaxed stores suffice, the table pointer's
      // seq_cst store below releases everything.
      fresh->slots[pos].value.store(value, std::memory_order_relaxed);
      fresh->slots[pos].key.store(key, std::memory_order_relaxed);
    });
    live_ = count;
    used_ = count;
    Publish(epochs, fresh);
  }

  /// Unlinks and retires the current version (the "not spilled any more"
  /// transition). Readers fall back to whatever the owner scans instead.
  void Reset(EpochManager* epochs) {
    LfTable* old = table_.load(std::memory_order_relaxed);
    if (old == nullptr) return;
    table_.store(nullptr, std::memory_order_seq_cst);
    EpochRetire(epochs, old);
    live_ = 0;
    used_ = 0;
  }

  // -- Reader API (epoch pin required) --------------------------------------

  /// Outcome of a reader probe.
  enum class Probe {
    kNoVersion,  ///< no table published; the caller must scan its fallback
    kAbsent,     ///< key not live in the version current at call time
    kFound,      ///< key live; *value filled in
  };

  Probe Find(uint64_t key, uint64_t* value) const {
    const LfTable* t = table_.load(std::memory_order_seq_cst);
    if (t == nullptr) return Probe::kNoVersion;
    size_t pos = LfMix(key) & t->mask;
    while (true) {
      const LfTable::Slot& slot = t->slots[pos];
      const uint64_t k = slot.key.load(std::memory_order_acquire);
      if (k == LfTable::kEmpty) return Probe::kAbsent;
      if (k == key) {
        if (value != nullptr) {
          *value = slot.value.load(std::memory_order_relaxed);
        }
        return Probe::kFound;
      }
      pos = (pos + 1) & t->mask;
    }
  }

  bool Contains(uint64_t key) const {
    return Find(key, nullptr) == Probe::kFound;
  }

  /// Invokes fn(key, value) for every live entry of the version current at
  /// call time, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const LfTable* t = table_.load(std::memory_order_seq_cst);
    if (t == nullptr) return;
    for (size_t i = 0; i < t->capacity; ++i) {
      const uint64_t k = t->slots[i].key.load(std::memory_order_acquire);
      if (k == LfTable::kEmpty || k == LfTable::kTombstone) continue;
      fn(k, t->slots[i].value.load(std::memory_order_relaxed));
    }
  }

  /// Like ForEach but fn returns bool; a true stops the scan and is
  /// returned (existence probes).
  template <typename Fn>
  bool ForEachUntil(Fn&& fn) const {
    const LfTable* t = table_.load(std::memory_order_seq_cst);
    if (t == nullptr) return false;
    for (size_t i = 0; i < t->capacity; ++i) {
      const uint64_t k = t->slots[i].key.load(std::memory_order_acquire);
      if (k == LfTable::kEmpty || k == LfTable::kTombstone) continue;
      if (fn(k, t->slots[i].value.load(std::memory_order_relaxed))) {
        return true;
      }
    }
    return false;
  }

 private:
  static size_t CapacityFor(size_t entries) {
    size_t cap = 16;
    // Size for twice the population so the next few inserts stay below the
    // 7/8 growth threshold.
    while (cap * 7 < (entries + 1) * 8 * 2) cap <<= 1;
    return cap;
  }

  LfTable::Slot* FindSlot(uint64_t key) const {
    assert(key != LfTable::kEmpty && key != LfTable::kTombstone);
    LfTable* t = table_.load(std::memory_order_relaxed);
    if (t == nullptr) return nullptr;
    size_t pos = LfMix(key) & t->mask;
    while (true) {
      LfTable::Slot& slot = t->slots[pos];
      const uint64_t k = slot.key.load(std::memory_order_relaxed);
      if (k == LfTable::kEmpty) return nullptr;
      if (k == key) return &slot;
      pos = (pos + 1) & t->mask;
    }
  }

  /// Copies the live entries into a fresh right-sized version (purging
  /// tombstones), publishes it and retires the old one.
  LfTable* Grow(EpochManager* epochs) {
    LfTable* old = table_.load(std::memory_order_relaxed);
    LfTable* fresh = new LfTable(CapacityFor(live_));
    if (old != nullptr) {
      for (size_t i = 0; i < old->capacity; ++i) {
        const uint64_t k = old->slots[i].key.load(std::memory_order_relaxed);
        if (k == LfTable::kEmpty || k == LfTable::kTombstone) continue;
        const uint64_t v =
            old->slots[i].value.load(std::memory_order_relaxed);
        size_t pos = LfMix(k) & fresh->mask;
        while (fresh->slots[pos].key.load(std::memory_order_relaxed) !=
               LfTable::kEmpty) {
          pos = (pos + 1) & fresh->mask;
        }
        fresh->slots[pos].value.store(v, std::memory_order_relaxed);
        fresh->slots[pos].key.store(k, std::memory_order_relaxed);
      }
    }
    used_ = live_;
    Publish(epochs, fresh);
    return fresh;
  }

  void Publish(EpochManager* epochs, LfTable* fresh) {
    LfTable* old = table_.load(std::memory_order_relaxed);
    table_.store(fresh, std::memory_order_seq_cst);
    if (old != nullptr) EpochRetire(epochs, old);
  }

  std::atomic<LfTable*> table_{nullptr};
  size_t live_ = 0;  // writer-side live entries
  size_t used_ = 0;  // live + tombstones in the current version
};

/// \brief Typed pointer-map adapter over LfMap: nonzero uint64 id -> T*.
template <typename T>
class LfPtrMap {
 public:
  LfPtrMap() = default;

  size_t live() const { return map_.live(); }
  bool empty() const { return map_.empty(); }

  void Insert(EpochManager* epochs, uint64_t key, T* value) {
    map_.Insert(epochs, key, reinterpret_cast<uint64_t>(value));
  }
  bool Erase(EpochManager* epochs, uint64_t key) {
    return map_.Erase(epochs, key);
  }

  T* FindWriter(uint64_t key) const {
    uint64_t raw = 0;
    return map_.FindWriter(key, &raw) ? reinterpret_cast<T*>(raw) : nullptr;
  }

  const T* Find(uint64_t key) const {
    uint64_t raw = 0;
    return map_.Find(key, &raw) == LfMap::Probe::kFound
               ? reinterpret_cast<const T*>(raw)
               : nullptr;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&](uint64_t key, uint64_t raw) {
      fn(key, *reinterpret_cast<const T*>(raw));
    });
  }

  template <typename Fn>
  bool ForEachUntil(Fn&& fn) const {
    return map_.ForEachUntil([&](uint64_t key, uint64_t raw) {
      return fn(key, *reinterpret_cast<const T*>(raw));
    });
  }

  /// Teardown helper: invokes fn(T*) for every live entry (writer-side, for
  /// destructors that own the pointees).
  template <typename Fn>
  void ForEachOwned(Fn&& fn) {
    map_.ForEach(
        [&](uint64_t, uint64_t raw) { fn(reinterpret_cast<T*>(raw)); });
  }

 private:
  LfMap map_;
};

/// \brief Concurrent deduplicating row of term ids with per-id support
/// flags: the snapshot-safe successor of DedupRow (common/flat_hash.h),
/// used for both directions of a predicate partition.
///
/// Layout: one published RowVersion (insertion-ordered id array + parallel
/// flag bytes + published length), grown and compacted copy-on-write with
/// epoch retirement, plus an optional spill index (LfMap id -> slot) once
/// the row outgrows kSpillThreshold so membership and erase stay O(1) for
/// hub rows.
///
/// Reader semantics under a pin: iteration walks the version current at
/// call time — every id published before the pin is seen exactly once, ids
/// inserted concurrently may or may not appear, ids erased concurrently
/// vanish at the slot level (a tombstoned slot reads as id 0 and is
/// skipped). Membership probes treat a spill-index *hit* as a hint to be
/// verified against the array version in hand (items[pos] == id proves pos
/// is id's slot in that version; a row never holds an id twice), and a
/// *miss* as authoritative: the index key set always equals the live
/// membership except inside one writer operation (insert appends the array
/// before the index entry; erase tombstones the array before the index
/// entry; compaction publishes the replacement array before rebuilding the
/// index wholesale via RebuildFrom, and membership never differs between
/// the two) — every skew window resolves to fuzzy-but-safe answers.
class LfRow {
 public:
  enum class InsertResult {
    kNew,        ///< id was absent and is now stored
    kDuplicate,  ///< id was present; support flag unchanged
    kPromoted,   ///< id was present as inferred and is now explicit
  };

  /// Flag-byte layout: bit 0 is the explicit-support flag, bits 1-7 hold a
  /// saturating *derivation count* — how many times the insert pipeline has
  /// offered this id as a rule consequence (the initial inferred insert
  /// counts once; inferred duplicate offers count again; explicit inserts
  /// and promotions never touch it). kCountSaturated (127) is sticky and
  /// means "too many to track": a saturated count never decrements and
  /// carries no information, so retraction must fall back to full DRed for
  /// that triple. Counts are maintenance *hints*, not proof — under
  /// recursive rules a count can keep alive a cyclic derivation with no
  /// explicit ancestry — so consumers must pair a nonzero count with an
  /// independent derivability check before trusting it.
  static constexpr uint8_t kExplicitBit = 1;
  static constexpr unsigned kCountShift = 1;
  static constexpr uint8_t kCountSaturated = 127;

  explicit LfRow(EpochManager* epochs) : epochs_(epochs) {}

  ~LfRow() { delete array_.load(std::memory_order_relaxed); }

  LfRow(const LfRow&) = delete;
  LfRow& operator=(const LfRow&) = delete;

  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  // -- Writer API (external mutual exclusion required) ----------------------

  /// Appends `v` if absent with the given support; promotes an existing
  /// inferred entry to explicit when `is_explicit` is true. Inferred offers
  /// (new or duplicate) bump the derivation count (saturating).
  InsertResult Insert(uint64_t v, bool is_explicit) {
    RowVersion* arr = array_.load(std::memory_order_relaxed);
    const size_t pos = WriterFindPos(arr, v);
    if (pos != kNoPos) {
      const uint8_t f = arr->flags[pos].load(std::memory_order_relaxed);
      if (!is_explicit) {
        // Another derivation of an existing entry: count it, whatever the
        // support flag says (an explicit fact can also be rule-derived).
        const uint8_t count = static_cast<uint8_t>(f >> kCountShift);
        if (count < kCountSaturated) {
          arr->flags[pos].store(
              static_cast<uint8_t>(f + (uint8_t{1} << kCountShift)),
              std::memory_order_release);
        }
        return InsertResult::kDuplicate;
      }
      if ((f & kExplicitBit) == 0) {
        arr->flags[pos].store(f | kExplicitBit, std::memory_order_release);
        return InsertResult::kPromoted;
      }
      return InsertResult::kDuplicate;
    }
    if (arr == nullptr ||
        arr->size.load(std::memory_order_relaxed) == arr->capacity) {
      arr = GrowOrCompact();
    }
    const size_t at = arr->size.load(std::memory_order_relaxed);
    arr->flags[at].store(
        is_explicit ? kExplicitBit : uint8_t{1} << kCountShift,
        std::memory_order_relaxed);
    arr->items[at].store(v, std::memory_order_relaxed);
    arr->size.store(at + 1, std::memory_order_release);
    ++live_;
    if (index_.HasVersion()) {
      index_.Insert(epochs_, v, at);
    } else if (live_ > kSpillThreshold) {
      RebuildIndex(arr);
    }
    return InsertResult::kNew;
  }

  /// Tombstones `v`. Returns true iff it was present. Compacts once dead
  /// slots outnumber live ones.
  bool Erase(uint64_t v) {
    RowVersion* arr = array_.load(std::memory_order_relaxed);
    const size_t pos = WriterFindPos(arr, v);
    if (pos == kNoPos) return false;
    arr->items[pos].store(0, std::memory_order_release);
    arr->flags[pos].store(0, std::memory_order_relaxed);
    --live_;
    if (index_.HasVersion()) index_.Erase(epochs_, v);
    const size_t dead = arr->size.load(std::memory_order_relaxed) - live_;
    if (dead > live_ && dead >= kSpillThreshold / 2) Compact();
    return true;
  }

  /// Sets the support flag of `v` (derivation count preserved). Returns +1
  /// if the flag flipped, 0 if `v` is present with that support already, -1
  /// if `v` is absent.
  int SetSupport(uint64_t v, bool is_explicit) {
    RowVersion* arr = array_.load(std::memory_order_relaxed);
    const size_t pos = WriterFindPos(arr, v);
    if (pos == kNoPos) return -1;
    const uint8_t f = arr->flags[pos].load(std::memory_order_relaxed);
    if (((f & kExplicitBit) != 0) == is_explicit) return 0;
    arr->flags[pos].store(
        is_explicit ? static_cast<uint8_t>(f | kExplicitBit)
                    : static_cast<uint8_t>(f & ~kExplicitBit),
        std::memory_order_release);
    return 1;
  }

  /// Fills an *empty, never-published* row with `n` pre-deduplicated
  /// (id, flag-byte) pairs in one shot: one exact-capacity version, no
  /// WriterFindPos probes, no incremental growth. The recovery bulk-load
  /// path — the store is quiesced with no concurrent readers, so the
  /// relaxed stores need no publication protocol; the spill index engages
  /// exactly as it would have after n ordinary inserts.
  void BulkAppend(const uint64_t* ids, const uint8_t* flags, size_t n) {
    assert(array_.load(std::memory_order_relaxed) == nullptr && live_ == 0 &&
           "BulkAppend requires a fresh row");
    if (n == 0) return;
    RowVersion* fresh = new RowVersion(n < kMinCapacity ? kMinCapacity : n);
    for (size_t i = 0; i < n; ++i) {
      fresh->items[i].store(ids[i], std::memory_order_relaxed);
      fresh->flags[i].store(flags[i], std::memory_order_relaxed);
    }
    fresh->size.store(n, std::memory_order_relaxed);
    array_.store(fresh, std::memory_order_seq_cst);
    live_ = n;
    if (live_ > kSpillThreshold) RebuildIndex(fresh);
  }

  /// Invokes fn(id, flag_byte) for every live id, in insertion order (the
  /// snapshot writer's export: support flag + derivation count together).
  template <typename Fn>
  void ForEachWithFlags(Fn&& fn) const {
    const RowVersion* arr = array_.load(std::memory_order_seq_cst);
    if (arr == nullptr) return;
    const size_t n = arr->size.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t v = arr->items[i].load(std::memory_order_relaxed);
      if (v != 0) fn(v, arr->flags[i].load(std::memory_order_acquire));
    }
  }

  /// Prefetch stages for a scan over many rows (the snapshot export):
  /// PrefetchVersion pulls the current version's header into cache,
  /// PrefetchArrays its item and flag arrays. Issued a few rows ahead of
  /// the visit, in that order, they overlap the dependent misses of the
  /// LfRow -> version -> arrays chain across rows.
  void PrefetchVersion() const {
    __builtin_prefetch(array_.load(std::memory_order_relaxed));
  }
  void PrefetchArrays() const {
    const RowVersion* arr = array_.load(std::memory_order_relaxed);
    if (arr == nullptr) return;
    __builtin_prefetch(arr->items.get());
    __builtin_prefetch(arr->flags.get());
  }

  /// Decrements `v`'s derivation count by one. Returns the remaining count,
  /// or -1 when the count carries no information (id absent, count already
  /// zero, or saturated — saturation is sticky and never decrements).
  int DecrementDerivations(uint64_t v) {
    RowVersion* arr = array_.load(std::memory_order_relaxed);
    const size_t pos = WriterFindPos(arr, v);
    if (pos == kNoPos) return -1;
    const uint8_t f = arr->flags[pos].load(std::memory_order_relaxed);
    const uint8_t count = static_cast<uint8_t>(f >> kCountShift);
    if (count == 0 || count == kCountSaturated) return -1;
    arr->flags[pos].store(
        static_cast<uint8_t>(f - (uint8_t{1} << kCountShift)),
        std::memory_order_release);
    return count - 1;
  }

  /// Writer-side derivation count of `v`: -1 if absent, kCountSaturated if
  /// the count overflowed (no information), the exact count otherwise.
  int DerivationCount(uint64_t v) const {
    RowVersion* arr = array_.load(std::memory_order_relaxed);
    const size_t pos = WriterFindPos(arr, v);
    if (pos == kNoPos) return -1;
    return arr->flags[pos].load(std::memory_order_relaxed) >> kCountShift;
  }

  /// Writer-side explicit-support check (exact).
  bool WriterIsExplicit(uint64_t v) const {
    RowVersion* arr = array_.load(std::memory_order_relaxed);
    const size_t pos = WriterFindPos(arr, v);
    return pos != kNoPos &&
           (arr->flags[pos].load(std::memory_order_relaxed) & kExplicitBit) !=
               0;
  }

  // -- Reader API (epoch pin required) --------------------------------------

  bool Contains(uint64_t v) const { return ReaderFindPos(v).second != kNoPos; }

  /// True iff `v` is present with explicit support.
  bool IsExplicit(uint64_t v) const {
    const auto [arr, pos] = ReaderFindPos(v);
    return pos != kNoPos &&
           (arr->flags[pos].load(std::memory_order_acquire) & kExplicitBit) !=
               0;
  }

  /// Invokes fn(id) for every live id, in insertion order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const RowVersion* arr = array_.load(std::memory_order_seq_cst);
    if (arr == nullptr) return;
    const size_t n = arr->size.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t v = arr->items[i].load(std::memory_order_relaxed);
      if (v != 0) fn(v);
    }
  }

  /// Invokes fn(id) for every live id holding explicit support, in
  /// insertion order (the explicit-only store view's row scan).
  template <typename Fn>
  void ForEachExplicit(Fn&& fn) const {
    const RowVersion* arr = array_.load(std::memory_order_seq_cst);
    if (arr == nullptr) return;
    const size_t n = arr->size.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t v = arr->items[i].load(std::memory_order_relaxed);
      if (v != 0 &&
          (arr->flags[i].load(std::memory_order_acquire) & kExplicitBit) !=
              0) {
        fn(v);
      }
    }
  }

  /// Like ForEach but fn returns bool; a true stops the scan and is
  /// returned (existence probes that must verify each candidate).
  template <typename Fn>
  bool ForEachUntil(Fn&& fn) const {
    const RowVersion* arr = array_.load(std::memory_order_seq_cst);
    if (arr == nullptr) return false;
    const size_t n = arr->size.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t v = arr->items[i].load(std::memory_order_relaxed);
      if (v != 0 && fn(v)) return true;
    }
    return false;
  }

  /// True iff any live id holds explicit support (existence probe for the
  /// explicit-only view).
  bool AnyExplicit() const {
    const RowVersion* arr = array_.load(std::memory_order_seq_cst);
    if (arr == nullptr) return false;
    const size_t n = arr->size.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
      if (arr->items[i].load(std::memory_order_relaxed) != 0 &&
          (arr->flags[i].load(std::memory_order_acquire) & kExplicitBit) !=
              0) {
        return true;
      }
    }
    return false;
  }

  /// Reader-side size estimate: the published version's length, tombstones
  /// included, so it never undercounts the live ids a concurrent reader can
  /// observe. Exact for rows that were never erased from; an overcount
  /// otherwise (until compaction). Epoch pin required.
  size_t SizeEstimate() const {
    const RowVersion* arr = array_.load(std::memory_order_seq_cst);
    return arr == nullptr ? 0 : arr->size.load(std::memory_order_acquire);
  }

  /// True iff the spill index is engaged (introspection/tests).
  bool spilled() const { return index_.HasVersion(); }

 private:
  static constexpr size_t kSpillThreshold = 16;
  static constexpr size_t kMinCapacity = 4;
  static constexpr size_t kNoPos = static_cast<size_t>(-1);

  /// One published row version: insertion-ordered ids (0 = tombstone) with
  /// parallel support-flag bytes and a published length.
  struct RowVersion {
    explicit RowVersion(size_t cap)
        : capacity(cap),
          items(new std::atomic<uint64_t>[cap]),
          flags(new std::atomic<uint8_t>[cap]) {}

    const size_t capacity;
    std::atomic<size_t> size{0};
    const std::unique_ptr<std::atomic<uint64_t>[]> items;
    const std::unique_ptr<std::atomic<uint8_t>[]> flags;
  };

  size_t WriterFindPos(const RowVersion* arr, uint64_t v) const {
    if (arr == nullptr) return kNoPos;
    uint64_t pos = 0;
    if (index_.FindWriter(v, &pos)) return static_cast<size_t>(pos);
    if (index_.HasVersion()) return kNoPos;  // index is exact for the writer
    const size_t n = arr->size.load(std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) {
      if (arr->items[i].load(std::memory_order_relaxed) == v) return i;
    }
    return kNoPos;
  }

  /// Reader-side position lookup: returns the version searched and the live
  /// position of `v` in it, or kNoPos. See the class comment for why an
  /// index miss is authoritative and an index hit only a verified hint.
  std::pair<const RowVersion*, size_t> ReaderFindPos(uint64_t v) const {
    const RowVersion* arr = array_.load(std::memory_order_seq_cst);
    if (arr == nullptr) return {nullptr, kNoPos};
    uint64_t hint = 0;
    switch (index_.Find(v, &hint)) {
      case LfMap::Probe::kAbsent:
        return {arr, kNoPos};
      case LfMap::Probe::kFound: {
        const size_t pos = static_cast<size_t>(hint);
        if (pos < arr->size.load(std::memory_order_acquire) &&
            arr->items[pos].load(std::memory_order_acquire) == v) {
          return {arr, pos};
        }
        break;  // stale hint (one writer operation wide): scan
      }
      case LfMap::Probe::kNoVersion:
        break;  // small row: scan
    }
    const size_t n = arr->size.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
      if (arr->items[i].load(std::memory_order_relaxed) == v) return {arr, i};
    }
    return {arr, kNoPos};
  }

  /// Doubles the array (or compacts instead of growing when tombstones
  /// dominate); returns the version to append into.
  RowVersion* GrowOrCompact() {
    RowVersion* arr = array_.load(std::memory_order_relaxed);
    if (arr == nullptr) {
      RowVersion* fresh = new RowVersion(kMinCapacity);
      array_.store(fresh, std::memory_order_seq_cst);
      return fresh;
    }
    const size_t n = arr->size.load(std::memory_order_relaxed);
    if (n - live_ > live_ / 2) return Compact();
    RowVersion* fresh = new RowVersion(arr->capacity * 2);
    for (size_t i = 0; i < n; ++i) {
      fresh->items[i].store(arr->items[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
      fresh->flags[i].store(arr->flags[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    fresh->size.store(n, std::memory_order_relaxed);
    array_.store(fresh, std::memory_order_seq_cst);
    EpochRetire(epochs_, arr);
    return fresh;
  }

  /// Publishes a tombstone-free copy (insertion order preserved) and
  /// rebuilds or drops the spill index to match the new positions.
  RowVersion* Compact() {
    RowVersion* arr = array_.load(std::memory_order_relaxed);
    size_t cap = kMinCapacity;
    while (cap < live_ * 2) cap <<= 1;
    RowVersion* fresh = new RowVersion(cap);
    const size_t n = arr->size.load(std::memory_order_relaxed);
    size_t w = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t v = arr->items[i].load(std::memory_order_relaxed);
      if (v == 0) continue;
      fresh->items[w].store(v, std::memory_order_relaxed);
      fresh->flags[w].store(arr->flags[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
      ++w;
    }
    fresh->size.store(w, std::memory_order_relaxed);
    // Publish the array first, then swing the index: a reader in between
    // sees the old index, whose key set still equals the new membership.
    array_.store(fresh, std::memory_order_seq_cst);
    EpochRetire(epochs_, arr);
    if (live_ > kSpillThreshold) {
      RebuildIndex(fresh);
    } else {
      index_.Reset(epochs_);
    }
    return fresh;
  }

  /// Replaces the spill index wholesale with one matching `arr`'s slot
  /// numbering (atomic for readers; see LfMap::RebuildFrom).
  void RebuildIndex(const RowVersion* arr) {
    const size_t n = arr->size.load(std::memory_order_relaxed);
    index_.RebuildFrom(epochs_, live_, [&](auto&& emit) {
      for (size_t i = 0; i < n; ++i) {
        const uint64_t v = arr->items[i].load(std::memory_order_relaxed);
        if (v != 0) emit(v, i);
      }
    });
  }

  EpochManager* epochs_;
  std::atomic<RowVersion*> array_{nullptr};
  size_t live_ = 0;
  LfMap index_;  // id -> slot in the current version, engaged once spilled
};

}  // namespace slider

#endif  // SLIDER_STORE_LOCKFREE_INDEX_H_
