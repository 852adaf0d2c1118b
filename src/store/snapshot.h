#ifndef SLIDER_STORE_SNAPSHOT_H_
#define SLIDER_STORE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "store/triple_store.h"

namespace slider {

class ThreadPool;

/// \brief Checkpointed triple-store snapshot image: a compact,
/// delta-encoded, checksummed binary dump of the whole store — triples
/// *with* their support flags and derivation counts — that loads back via
/// the bulk-build path (TripleStore::BulkLoadPartition) without re-running
/// dedup or the reasoner.
///
/// Format "SLTRIP01":
///   header   magic(8) | lsn(u64) | section_count(u32)
///   directory per section: predicate(u64) | offset(u64) | length(u64)
///            (offsets are absolute file offsets; sections are
///            self-contained, so a loader can mmap the file and decode
///            sections independently — or stream them sequentially)
///   sections per predicate, subjects ascending:
///            subject_count(varint), then per subject:
///              subject delta(varint) | object_count(varint) |
///              per object: object delta(varint) | flag byte
///            (flag byte = LfRow layout: explicit bit + 7-bit saturating
///            derivation count)
///   trailer  CRC32(u32) of everything before it
///
/// The embedded LSN anchors the image in the statement log: recovery
/// replays only records with global LSN >= the snapshot's. Writes are
/// atomic (temp file + rename); a crash mid-checkpoint leaves the previous
/// image intact, and the stale-but-consistent image still recovers
/// correctly because the log tail it skips is re-anchored by the LSN.

/// Subject rows per independently encoded piece of a section. A piece's
/// first subject delta is taken from the subject just before it, so the
/// pieces of a section concatenate to exactly the sequential encoding.
inline constexpr size_t kSnapshotPieceRows = 8192;

/// Serializes `store` to `path` with the given covering LSN.
///
/// The writer collects and sorts each partition's subject rows as one
/// task per partition, encodes the sections in pieces of
/// kSnapshotPieceRows rows, and writes header, pieces and trailer with one
/// multi-part AtomicWriteFile, the CRC chained over the pieces in order.
/// Both parallel phases run as ThreadPool::ParallelFor calls on `pool` and
/// the calling thread; a null `pool` runs them inline. The image is
/// byte-identical either way, for any pool size.
///
/// The caller guarantees that nothing writes to `store` until the call
/// returns (a checkpoint runs at an update boundary, with the reasoner
/// flushed); concurrent readers are fine.
Status WriteTripleSnapshot(const TripleStore& store, uint64_t lsn,
                           const std::string& path,
                           ThreadPool* pool = nullptr);

/// Loads the image at `path` into `store` (which must be empty) and
/// returns the snapshot's LSN. The file is mmap'd when the platform
/// allows (sequential read otherwise) and bulk-built partition by
/// partition. Fails with IOError on a missing/unreadable file and
/// InvalidArgument on a corrupt one (bad magic, checksum, truncated
/// sections); on failure the store may hold a partial load and must be
/// discarded by the caller.
Result<uint64_t> LoadTripleSnapshot(const std::string& path,
                                    TripleStore* store);

}  // namespace slider

#endif  // SLIDER_STORE_SNAPSHOT_H_
