#ifndef SLIDER_STORE_STATEMENT_LOG_H_
#define SLIDER_STORE_STATEMENT_LOG_H_

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "rdf/term.h"

namespace slider {

/// \brief Append-only binary statement log: the persistence layer of the
/// OWLIM-SE substitute.
///
/// OWLIM-SE is a *semantic repository* — every loaded and inferred statement
/// is made durable — whereas Slider keeps triples in memory (§2.2). To make
/// the baseline comparison honest, the batch repository writes each
/// statement through this log, flushed every `flush_interval` records. The
/// log can be replayed to rebuild the store, which is also how the
/// recovery path verifies durability.
///
/// Format. A log starts with a 16-byte header — the 8-byte magic
/// "SLDRLOG2" followed by a little-endian uint64 *base LSN* — and then holds
/// two kinds of records, each ending in a CRC32 of all its bytes before it:
///  - a *statement record* is 28 bytes: the 24-byte (s, p, o) payload and
///    its CRC. Two flag bits ride on the subject word (term ids are dense
///    dictionary handles that never reach them): kTombstoneBit marks a
///    deletion, kInferredBit a rule-derived statement, so replay restores
///    support flags without re-running inference;
///  - a *term record* binds a dictionary id to its lexical form. Its
///    subject word sets both flag bits (no statement uses that
///    combination), the p word holds the term id and the o word the byte
///    length; the term bytes follow, then the CRC.
/// A file without the magic is rejected. Per-record CRCs let the reader
/// tell a *torn tail* (crash mid-append: the final record is short, its
/// term runs past the end of the file, or it fails its checksum — skipped
/// with a warning) from mid-file corruption (an error). A term length is
/// checked against the bytes left in the file before it is used; one no
/// term can have (4 GiB or more) is corruption, wherever it sits.
///
/// Self-description. The log alone rebuilds a repository: every term id a
/// statement record at LSN L references is bound either by a term record
/// below L or, once the log has been truncated, by the snapshot image that
/// covers the truncated prefix. Which terms to journal is the writer's
/// call (Repository journals each id the first time a statement uses it).
///
/// LSNs. Every record — statement or term — has a global *log sequence
/// number*: the file's base LSN plus its index in the file. A snapshot
/// taken at LSN S covers every record below S; TruncateTo(S) rewrites the
/// log to hold only the tail at and above S (atomically, via temp file +
/// rename), after which the header base is S. Replay after a snapshot
/// applies only records with LSN >= S, which also makes the crash window
/// between snapshot rename and log truncation benign — the skipped prefix
/// is exactly what the snapshot already holds.
class StatementLog {
 public:
  /// Marks a statement record as a deletion (set on the subject word).
  static constexpr uint64_t kTombstoneBit = 1ull << 63;
  /// Marks a statement record as rule-derived rather than asserted.
  static constexpr uint64_t kInferredBit = 1ull << 62;

  /// One decoded log record: a statement (addition or tombstone) or, when
  /// is_term(), a dictionary binding of `term` to `term_id`.
  struct Record {
    Triple triple;  ///< statement records only
    bool tombstone = false;
    /// True iff the statement was logged as rule-derived.
    bool inferred = false;
    TermId term_id = kAnyTerm;  ///< term records only
    std::string term;           ///< term records only

    bool is_term() const { return term_id != kAnyTerm; }
  };

  /// A fully decoded log file: its records plus the header fields replay
  /// needs to align record indexes with snapshot LSNs.
  struct Contents {
    std::vector<Record> records;
    uint64_t base_lsn = 0;  ///< global LSN of records[0]
    /// True iff a torn final record was skipped (crash mid-append).
    bool torn_tail = false;
  };

  /// Creates or truncates the log file at `path` (header with base LSN 0,
  /// written atomically). A `flush_interval` of n flushes the OS buffer
  /// every n appended records (0 = only on Close).
  static Result<std::unique_ptr<StatementLog>> Open(const std::string& path,
                                                    size_t flush_interval);

  /// Opens the log file at `path` for appending, preserving the existing
  /// records (the Recover path: a recovered repository keeps logging updates
  /// after the records it was rebuilt from). The existing header and record
  /// count are read back so next_lsn() stays globally consistent, and a
  /// torn tail is cut off first. `records_written()` counts only the
  /// records appended by this handle.
  static Result<std::unique_ptr<StatementLog>> OpenAppend(
      const std::string& path, size_t flush_interval);

  ~StatementLog();

  StatementLog(const StatementLog&) = delete;
  StatementLog& operator=(const StatementLog&) = delete;

  /// Appends one statement record. `is_explicit` false marks the record
  /// rule-derived so recovery can restore its support flag.
  Status Append(const Triple& t, bool is_explicit = true);

  /// Appends a tombstone record: on replay, `t` is removed from the
  /// recovered set (until a later record re-adds it).
  Status AppendTombstone(const Triple& t);

  /// Appends a batch of explicit statement records.
  Status AppendBatch(const TripleVec& batch);

  /// Appends a term record binding `term` to dictionary id `id`. Recovery
  /// restores it (Dictionary::Restore) before any later statement record.
  Status AppendTerm(TermId id, std::string_view term);

  /// Flushes buffered records to the OS.
  Status Flush();

  /// Flushes and closes the file. Further appends fail.
  Status Close();

  /// Number of records appended since Open.
  uint64_t records_written() const { return records_written_; }

  /// Global LSN of the header (the LSN of the file's first record).
  uint64_t base_lsn() const { return base_lsn_; }

  /// Global LSN the next appended record will get: base_lsn() plus the
  /// number of records currently in the file. A snapshot that covers
  /// everything appended so far anchors at this value.
  uint64_t next_lsn() const { return base_lsn_ + records_in_file_; }

  /// Rewrites the log to hold only the records with global LSN >= `lsn`
  /// and sets the header base to `lsn` (checkpoint truncation). Term
  /// records below `lsn` go too: the snapshot's dictionary image holds
  /// their bindings. Atomic: the tail is written to a temp file and
  /// renamed over the log. The handle stays open on the new file —
  /// borrowed StatementLog* pointers (the embedded incremental engine
  /// holds one) remain valid. A `lsn` at or below the current base is a
  /// no-op; beyond next_lsn() is an error.
  Status TruncateTo(uint64_t lsn);

  /// Rewrites the log keeping only the *last* record of each distinct
  /// triple, in order of last occurrence — replaying the compacted log
  /// yields exactly the replay of the original (a superseded add or
  /// tombstone never changes the final state). Every term record is kept
  /// in place, so it still precedes each statement that references it.
  /// When the base LSN is 0 (no snapshot skips a prefix of this file),
  /// triples whose last record is a tombstone drop entirely: the
  /// add/tombstone pair cancels. With a nonzero base the tombstone-final
  /// records are kept — they may be deleting triples the snapshot holds.
  /// Record indexes shift, so the caller must ensure no snapshot anchors
  /// *inside* this file (i.e. only compact when every snapshot LSN <=
  /// base_lsn()); the base is preserved. Atomic, same temp-file + rename
  /// scheme as TruncateTo.
  Status Compact();

  /// Reads every *addition* record of a previously written log, in append
  /// order; tombstone and term records are skipped.
  static Result<TripleVec> ReadAll(const std::string& path);

  /// Reads every record — additions, tombstones and terms — in append
  /// order. Convenience wrapper over ReadLog for callers that do not need
  /// the header fields.
  static Result<std::vector<Record>> ReadRecords(const std::string& path);

  /// Reads the whole log: header fields and records. A torn final record
  /// is skipped with a warning; a file without the header, a checksum
  /// failure *before* the end of the file, or an impossible term record is
  /// an error.
  static Result<Contents> ReadLog(const std::string& path);

 private:
  StatementLog(std::string path, size_t flush_interval)
      : path_(std::move(path)), flush_interval_(flush_interval) {}

  /// Writes one encoded record and advances the counters.
  Status Write(const char* bytes, size_t size);

  /// Writes `contents` over the log file atomically and re-opens the
  /// handle for appending (Open/TruncateTo/Compact core).
  Status ReplaceFile(const std::string& contents, uint64_t new_base,
                     uint64_t new_record_count);

  std::FILE* file_ = nullptr;
  std::string path_;
  size_t flush_interval_;
  uint64_t base_lsn_ = 0;        // header base
  uint64_t records_in_file_ = 0; // pre-existing + appended by this handle
  uint64_t records_written_ = 0;
  uint64_t unflushed_ = 0;
};

}  // namespace slider

#endif  // SLIDER_STORE_STATEMENT_LOG_H_
