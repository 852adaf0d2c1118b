#include "store/triple_store.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/sharding.h"
#include "common/thread_pool.h"

namespace slider {

namespace {

constexpr size_t kMinShards = 8;
constexpr size_t kMaxShards = 1024;

/// Id 0 is the match wildcard and the index empty-slot sentinel; a triple
/// carrying it is not a fact and must never reach the tables.
bool IsStorable(const Triple& t) {
  return t.s != kAnyTerm && t.p != kAnyTerm && t.o != kAnyTerm;
}

/// LSD radix sort of export rows by subject, 11 bits per pass, up to the
/// largest subject's top bit: two passes for ids below 2^22. Several times
/// faster than a comparison sort on a checkpoint's 10^5-row partitions.
void SortBySubject(std::vector<std::pair<TermId, const LfRow*>>* rows) {
  constexpr unsigned kBits = 11;
  constexpr size_t kMask = (size_t{1} << kBits) - 1;
  TermId max_subject = 0;
  for (const auto& row : *rows) max_subject = std::max(max_subject, row.first);
  std::vector<std::pair<TermId, const LfRow*>> sorted(rows->size());
  std::vector<size_t> offsets(kMask + 1);
  for (unsigned shift = 0; shift < 64 && (max_subject >> shift) != 0;
       shift += kBits) {
    std::fill(offsets.begin(), offsets.end(), 0);
    for (const auto& row : *rows) ++offsets[(row.first >> shift) & kMask];
    size_t sum = 0;
    for (size_t& offset : offsets) sum += std::exchange(offset, sum);
    for (const auto& row : *rows) {
      sorted[offsets[(row.first >> shift) & kMask]++] = row;
    }
    rows->swap(sorted);
  }
}

}  // namespace

TripleStore::TripleStore(size_t shard_count)
    : shard_count_(ResolveShardCount(shard_count, kMinShards, kMaxShards)),
      shard_mask_(shard_count_ - 1),
      shards_(new Shard[shard_count_]) {}

TripleStore::~TripleStore() {
  // No views may be alive here (lifetime contract). Live partitions are
  // deleted directly; everything previously unlinked sits in the epoch
  // garbage queue and is freed by ~EpochManager.
  for (size_t i = 0; i < shard_count_; ++i) {
    shards_[i].partitions.ForEachOwned([](Partition* part) { delete part; });
  }
}

bool TripleStore::Add(const Triple& t, bool is_explicit) {
  if (!IsStorable(t)) return false;
  Shard& shard = ShardFor(t.p);
  std::lock_guard<std::mutex> lock(shard.mu);
  return AddLocked(shard, t, is_explicit, nullptr);
}

size_t TripleStore::AddAll(const TripleVec& batch, TripleVec* delta,
                           bool is_explicit, TripleVec* promoted) {
  size_t added = 0;
  size_t current = static_cast<size_t>(-1);
  std::unique_lock<std::mutex> lock;
  for (const Triple& t : batch) {
    if (!IsStorable(t)) continue;
    const size_t index = ShardIndex(t.p);
    if (index != current) {
      if (lock.owns_lock()) lock.unlock();
      lock = std::unique_lock<std::mutex>(shards_[index].mu);
      current = index;
    }
    if (AddLocked(shards_[index], t, is_explicit, promoted)) {
      ++added;
      if (delta != nullptr) delta->push_back(t);
    }
  }
  return added;
}

bool TripleStore::AddLocked(Shard& shard, const Triple& t, bool is_explicit,
                            TripleVec* promoted) {
  shard.stats.insert_attempts.fetch_add(1, std::memory_order_relaxed);
  Partition* partition = shard.partitions.FindWriter(t.p);
  if (partition == nullptr) {
    partition = new Partition();
    shard.partitions.Insert(&epochs_, t.p, partition);
  }
  LfRow* row = partition->by_subject.FindWriter(t.s);
  if (row == nullptr) {
    row = new LfRow(&epochs_);
    partition->by_subject.Insert(&epochs_, t.s, row);
  }
  const LfRow::InsertResult result = row->Insert(t.o, is_explicit);
  if (result != LfRow::InsertResult::kNew) {
    shard.stats.duplicates_rejected.fetch_add(1, std::memory_order_relaxed);
    if (result == LfRow::InsertResult::kPromoted) {
      shard.explicit_triples.fetch_add(1, std::memory_order_relaxed);
      if (promoted != nullptr) promoted->push_back(t);
    }
    return false;
  }
  LfRow* mirror = partition->by_object.FindWriter(t.o);
  if (mirror == nullptr) {
    mirror = new LfRow(&epochs_);
    partition->by_object.Insert(&epochs_, t.o, mirror);
  }
  mirror->Insert(t.s, /*is_explicit=*/false);
  partition->count.fetch_add(1, std::memory_order_relaxed);
  shard.triples.fetch_add(1, std::memory_order_relaxed);
  if (is_explicit) {
    shard.explicit_triples.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

bool TripleStore::Erase(const Triple& t) {
  if (!IsStorable(t)) return false;
  Shard& shard = ShardFor(t.p);
  std::lock_guard<std::mutex> lock(shard.mu);
  return EraseLocked(shard, t);
}

size_t TripleStore::EraseAll(const TripleVec& batch, TripleVec* erased) {
  size_t removed = 0;
  size_t current = static_cast<size_t>(-1);
  std::unique_lock<std::mutex> lock;
  for (const Triple& t : batch) {
    if (!IsStorable(t)) continue;
    const size_t index = ShardIndex(t.p);
    if (index != current) {
      if (lock.owns_lock()) lock.unlock();
      lock = std::unique_lock<std::mutex>(shards_[index].mu);
      current = index;
    }
    if (EraseLocked(shards_[index], t)) {
      ++removed;
      if (erased != nullptr) erased->push_back(t);
    }
  }
  return removed;
}

bool TripleStore::EraseLocked(Shard& shard, const Triple& t) {
  shard.stats.erase_attempts.fetch_add(1, std::memory_order_relaxed);
  Partition* partition = shard.partitions.FindWriter(t.p);
  if (partition == nullptr) return false;
  LfRow* row = partition->by_subject.FindWriter(t.s);
  if (row == nullptr) return false;
  const bool was_explicit = row->WriterIsExplicit(t.o);
  if (!row->Erase(t.o)) return false;
  if (row->empty()) {
    // Unlink first, retire second (the epoch contract): a newly pinned
    // reader can no longer reach the row once the key is tombstoned.
    partition->by_subject.Erase(&epochs_, t.s);
    EpochRetire(&epochs_, row);
  }
  // The by_object mirror holds exactly one entry per accepted (s, o); drop
  // it so reverse joins never serve the ghost.
  LfRow* mirror = partition->by_object.FindWriter(t.o);
  if (mirror != nullptr) {
    mirror->Erase(t.s);
    if (mirror->empty()) {
      partition->by_object.Erase(&epochs_, t.o);
      EpochRetire(&epochs_, mirror);
    }
  }
  partition->count.fetch_sub(1, std::memory_order_relaxed);
  shard.triples.fetch_sub(1, std::memory_order_relaxed);
  shard.stats.erased.fetch_add(1, std::memory_order_relaxed);
  if (was_explicit) {
    shard.explicit_triples.fetch_sub(1, std::memory_order_relaxed);
  }
  if (partition->count.load(std::memory_order_relaxed) == 0) {
    shard.partitions.Erase(&epochs_, t.p);
    EpochRetire(&epochs_, partition);
  }
  return true;
}

bool TripleStore::Contains(const Triple& t) const {
  return GetView().Contains(t);
}

bool TripleStore::AnyWithSubject(TermId s) const {
  return GetView().AnyWithSubject(s);
}

bool TripleStore::AnyWithObject(TermId o) const {
  return GetView().AnyWithObject(o);
}

bool TripleStore::IsExplicit(const Triple& t) const {
  return GetView().IsExplicit(t);
}

int TripleStore::SetSupport(const Triple& t, bool is_explicit) {
  if (!IsStorable(t)) return -1;
  Shard& shard = ShardFor(t.p);
  std::lock_guard<std::mutex> lock(shard.mu);
  Partition* partition = shard.partitions.FindWriter(t.p);
  if (partition == nullptr) return -1;
  LfRow* row = partition->by_subject.FindWriter(t.s);
  if (row == nullptr) return -1;
  const int flipped = row->SetSupport(t.o, is_explicit);
  if (flipped == 1) {
    if (is_explicit) {
      shard.explicit_triples.fetch_add(1, std::memory_order_relaxed);
    } else {
      shard.explicit_triples.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  return flipped;
}

int TripleStore::DecrementDerivations(const Triple& t) {
  if (!IsStorable(t)) return -1;
  Shard& shard = ShardFor(t.p);
  std::lock_guard<std::mutex> lock(shard.mu);
  Partition* partition = shard.partitions.FindWriter(t.p);
  if (partition == nullptr) return -1;
  LfRow* row = partition->by_subject.FindWriter(t.s);
  if (row == nullptr) return -1;
  return row->DecrementDerivations(t.o);
}

int TripleStore::DerivationCount(const Triple& t) const {
  if (!IsStorable(t)) return -1;
  // Count reads happen on the retraction path, which runs quiesced; the
  // shard lock still guards against a racing writer mutating the row shape.
  Shard& shard = const_cast<TripleStore*>(this)->ShardFor(t.p);
  std::lock_guard<std::mutex> lock(shard.mu);
  const Partition* partition = shard.partitions.FindWriter(t.p);
  if (partition == nullptr) return -1;
  const LfRow* row = partition->by_subject.FindWriter(t.s);
  if (row == nullptr) return -1;
  return row->DerivationCount(t.o);
}

size_t TripleStore::ExplicitCount() const {
  size_t total = 0;
  for (size_t i = 0; i < shard_count_; ++i) {
    total += shards_[i].explicit_triples.load(std::memory_order_relaxed);
  }
  return total;
}

size_t TripleStore::size() const {
  size_t total = 0;
  for (size_t i = 0; i < shard_count_; ++i) {
    total += shards_[i].triples.load(std::memory_order_relaxed);
  }
  return total;
}

size_t TripleStore::NumPredicates() const {
  return GetView().NumPredicates();
}

std::vector<TermId> TripleStore::Predicates() const {
  return GetView().Predicates();
}

size_t TripleStore::CountWithPredicate(TermId p) const {
  return GetView().CountWithPredicate(p);
}

TripleVec TripleStore::Match(const TriplePattern& pattern) const {
  return GetView().Match(pattern);
}

TripleVec TripleStore::Snapshot() const {
  TripleVec out;
  out.reserve(size());
  GetView().ForEachMatch(TriplePattern{},
                         [&](const Triple& t) { out.push_back(t); });
  return out;
}

TripleSet TripleStore::SnapshotSet() const {
  TripleSet out;
  out.reserve(size());
  GetView().ForEachMatch(TriplePattern{},
                         [&](const Triple& t) { out.insert(t); });
  return out;
}

TripleStore::SnapshotExport TripleStore::CollectForSnapshot(
    ThreadPool* pool) const {
  SnapshotExport out;
  out.pin = epochs_.pin();
  std::vector<const Partition*> sources;
  for (size_t i = 0; i < shard_count_; ++i) {
    shards_[i].partitions.ForEach([&](TermId p, const Partition& part) {
      out.partitions.push_back(SnapshotPartition{p, {}});
      sources.push_back(&part);
    });
  }
  // Largest partitions first, so the one long sort starts at once.
  std::vector<size_t> order(sources.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return sources[a]->count.load(std::memory_order_relaxed) >
           sources[b]->count.load(std::memory_order_relaxed);
  });
  ThreadPool::ParallelFor(pool, order.size(), [&](size_t task) {
    const size_t i = order[task];
    auto& rows = out.partitions[i].rows;
    rows.reserve(sources[i]->by_subject.live());
    sources[i]->by_subject.ForEach([&](TermId s, const LfRow& row) {
      if (!row.empty()) rows.emplace_back(s, &row);
    });
    SortBySubject(&rows);
  });
  std::erase_if(out.partitions,
                [](const SnapshotPartition& part) { return part.rows.empty(); });
  std::sort(out.partitions.begin(), out.partitions.end(),
            [](const SnapshotPartition& a, const SnapshotPartition& b) {
              return a.predicate < b.predicate;
            });
  return out;
}

Status TripleStore::BulkLoadPartition(TermId p,
                                      const std::vector<SnapshotRow>& rows) {
  if (p == kAnyTerm) {
    return Status::InvalidArgument("bulk load: predicate id 0");
  }
  Shard& shard = ShardFor(p);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.partitions.FindWriter(p) != nullptr) {
    return Status::InvalidArgument(
        "bulk load: predicate partition already present");
  }
  auto partition = std::make_unique<Partition>();
  size_t total = 0;
  size_t explicit_total = 0;
  // Forward rows first — exact-capacity, single pass, no dedup probes.
  std::vector<uint64_t> ids;
  std::vector<uint8_t> flags;
  for (const SnapshotRow& row : rows) {
    if (row.subject == kAnyTerm || row.objects.empty()) {
      return Status::InvalidArgument("bulk load: malformed subject row");
    }
    ids.clear();
    flags.clear();
    ids.reserve(row.objects.size());
    flags.reserve(row.objects.size());
    for (const auto& [o, f] : row.objects) {
      if (o == kAnyTerm) {
        return Status::InvalidArgument("bulk load: object id 0");
      }
      ids.push_back(o);
      flags.push_back(f);
      if ((f & LfRow::kExplicitBit) != 0) ++explicit_total;
    }
    LfRow* fwd = new LfRow(&epochs_);
    fwd->BulkAppend(ids.data(), flags.data(), ids.size());
    partition->by_subject.Insert(&epochs_, row.subject, fwd);
    total += ids.size();
  }
  // The by_object mirror regroups the same triples o -> [s...]. Mirror
  // entries always carry the plain inferred-count-1 flag an ordinary
  // mirror Insert would have written (mirror flags are meaningless).
  std::unordered_map<TermId, std::vector<uint64_t>> mirror;
  for (const SnapshotRow& row : rows) {
    for (const auto& [o, f] : row.objects) {
      (void)f;
      mirror[o].push_back(row.subject);
    }
  }
  for (auto& [o, subjects] : mirror) {
    flags.assign(subjects.size(), uint8_t{1} << LfRow::kCountShift);
    LfRow* rev = new LfRow(&epochs_);
    rev->BulkAppend(subjects.data(), flags.data(), subjects.size());
    partition->by_object.Insert(&epochs_, o, rev);
  }
  partition->count.store(total, std::memory_order_relaxed);
  shard.partitions.Insert(&epochs_, p, partition.release());
  shard.triples.fetch_add(total, std::memory_order_relaxed);
  shard.explicit_triples.fetch_add(explicit_total, std::memory_order_relaxed);
  shard.stats.insert_attempts.fetch_add(total, std::memory_order_relaxed);
  return Status::OK();
}

TripleStore::Stats TripleStore::stats() const {
  Stats total;
  for (size_t i = 0; i < shard_count_; ++i) {
    const AtomicStats& s = shards_[i].stats;
    total.insert_attempts +=
        s.insert_attempts.load(std::memory_order_relaxed);
    total.duplicates_rejected +=
        s.duplicates_rejected.load(std::memory_order_relaxed);
    total.erase_attempts += s.erase_attempts.load(std::memory_order_relaxed);
    total.erased += s.erased.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace slider
