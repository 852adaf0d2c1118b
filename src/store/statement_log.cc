#include "store/statement_log.h"

#include <unistd.h>

#include <cstring>
#include <unordered_map>

#include "common/codec.h"
#include "common/fs.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace slider {

namespace {

constexpr size_t kPayloadSize = 3 * sizeof(uint64_t);
constexpr size_t kCrcSize = sizeof(uint32_t);
constexpr size_t kRecordSize = kPayloadSize + kCrcSize;
constexpr char kMagic[8] = {'S', 'L', 'D', 'R', 'L', 'O', 'G', '2'};
constexpr size_t kHeaderSize = sizeof(kMagic) + sizeof(uint64_t);
constexpr uint64_t kTermFlags =
    StatementLog::kTombstoneBit | StatementLog::kInferredBit;
constexpr uint64_t kMaxTermBytes = 0xFFFFFFFFull;

std::string EncodeHeader(uint64_t base_lsn) {
  std::string out(kMagic, sizeof(kMagic));
  PutFixed64(&out, base_lsn);
  return out;
}

/// Encodes a statement record (payload + CRC) into `out[kRecordSize]`.
void EncodeStatement(const Triple& t, uint64_t flags, char* out) {
  const uint64_t words[3] = {t.s | flags, t.p, t.o};
  std::memcpy(out, words, kPayloadSize);
  const uint32_t crc = Crc32(0, out, kPayloadSize);
  for (size_t i = 0; i < kCrcSize; ++i) {
    out[kPayloadSize + i] = static_cast<char>(crc >> (8 * i));
  }
}

/// One intact record of a log image, viewed in place.
struct RawRecord {
  std::string_view bytes;  ///< the whole record, checksum included
  uint64_t words[3];       ///< payload words, flag bits still on words[0]
  std::string_view term;   ///< term records: the term bytes

  bool is_term() const { return (words[0] & kTermFlags) == kTermFlags; }
};

StatementLog::Record Decode(const RawRecord& raw) {
  StatementLog::Record r;
  if (raw.is_term()) {
    r.term_id = raw.words[1];
    r.term.assign(raw.term.data(), raw.term.size());
    return r;
  }
  r.tombstone = (raw.words[0] & StatementLog::kTombstoneBit) != 0;
  r.inferred = (raw.words[0] & StatementLog::kInferredBit) != 0;
  r.triple = Triple(raw.words[0] & ~kTermFlags, raw.words[1], raw.words[2]);
  return r;
}

/// Where a scan of a log image stopped.
struct ScanEnd {
  uint64_t base_lsn = 0;
  size_t end = 0;  ///< offset just past the last intact record
  bool torn_tail = false;
};

/// Checks the header of `data` and calls fn(const RawRecord&) for every
/// intact record in order. Stops at a torn final record (warning, flagged
/// in the result); corruption with bytes after it is an error.
template <typename Fn>
Result<ScanEnd> ScanLog(std::string_view data, const std::string& path,
                        Fn&& fn) {
  if (data.size() < kHeaderSize ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(Format(
        "'%s' is not a statement log (missing SLDRLOG2 header)", path.c_str()));
  }
  ScanEnd out;
  out.base_lsn = GetFixed64(data.data() + sizeof(kMagic));
  size_t pos = kHeaderSize;
  const auto torn = [&](const char* why) {
    out.torn_tail = true;
    SLIDER_LOG(kWarning) << "statement log '" << path
                         << "': skipping torn final record (" << why << ")";
  };
  while (pos < data.size()) {
    const size_t left = data.size() - pos;
    if (left < kRecordSize) {
      torn("short record");
      break;
    }
    RawRecord r;
    std::memcpy(r.words, data.data() + pos, kPayloadSize);
    size_t size = kRecordSize;
    if (r.is_term()) {
      // Validate the length before using it: it must fit what is left of
      // the file. Running past the end is a crash mid-append; a length no
      // term can have (or the reserved id) is corruption.
      const uint64_t length = r.words[2];
      if (length > kMaxTermBytes || r.words[1] == kAnyTerm) {
        return Status::IOError(
            Format("statement log '%s': impossible term record (id %llu, "
                   "%llu bytes) at offset %zu",
                   path.c_str(), static_cast<unsigned long long>(r.words[1]),
                   static_cast<unsigned long long>(length), pos));
      }
      if (length > left - kRecordSize) {
        torn("term runs past the end of the file");
        break;
      }
      size += length;
      r.term = data.substr(pos + kPayloadSize, length);
    }
    const uint32_t stored = GetFixed32(data.data() + pos + size - kCrcSize);
    if (Crc32(0, data.data() + pos, size - kCrcSize) != stored) {
      if (size == left) {
        torn("checksum mismatch");
        break;
      }
      return Status::IOError(
          Format("statement log '%s': checksum mismatch at offset %zu "
                 "with records after it",
                 path.c_str(), pos));
    }
    r.bytes = data.substr(pos, size);
    fn(r);
    pos += size;
  }
  out.end = pos;
  return out;
}

}  // namespace

Result<std::unique_ptr<StatementLog>> StatementLog::Open(const std::string& path,
                                                         size_t flush_interval) {
  auto log =
      std::unique_ptr<StatementLog>(new StatementLog(path, flush_interval));
  // The header goes down atomically, so even a crash before the first
  // flush leaves a readable (empty) log.
  SLIDER_RETURN_NOT_OK(log->ReplaceFile(EncodeHeader(0), 0, 0));
  return log;
}

Result<std::unique_ptr<StatementLog>> StatementLog::OpenAppend(
    const std::string& path, size_t flush_interval) {
  // Scan the existing file first: the handle must know the base LSN and
  // record count for next_lsn(). This also rejects appending after
  // mid-file corruption.
  SLIDER_ASSIGN_OR_RETURN(const std::string data, ReadFileToString(path));
  uint64_t records = 0;
  SLIDER_ASSIGN_OR_RETURN(const ScanEnd scan,
                          ScanLog(data, path, [&](const RawRecord&) {
                            ++records;
                          }));
  auto log =
      std::unique_ptr<StatementLog>(new StatementLog(path, flush_interval));
  if (scan.torn_tail) {
    // Drop the torn bytes before appending: a fresh record written after
    // them would otherwise be misframed by the next reader. The rewrite is
    // atomic, so a crash here still leaves a readable log.
    SLIDER_RETURN_NOT_OK(log->ReplaceFile(data.substr(0, scan.end),
                                          scan.base_lsn, records));
    return log;
  }
  log->file_ = std::fopen(path.c_str(), "ab");
  if (log->file_ == nullptr) {
    return Status::IOError(Format("cannot open statement log '%s'", path.c_str()));
  }
  log->base_lsn_ = scan.base_lsn;
  log->records_in_file_ = records;
  return log;
}

StatementLog::~StatementLog() {
  if (file_ != nullptr) {
    Close().AbortIfNotOk();
  }
}

Status StatementLog::Append(const Triple& t, bool is_explicit) {
  char record[kRecordSize];
  EncodeStatement(t, is_explicit ? 0 : kInferredBit, record);
  return Write(record, kRecordSize);
}

Status StatementLog::AppendTombstone(const Triple& t) {
  char record[kRecordSize];
  EncodeStatement(t, kTombstoneBit, record);
  return Write(record, kRecordSize);
}

Status StatementLog::AppendTerm(TermId id, std::string_view term) {
  if (id == kAnyTerm || term.size() > kMaxTermBytes) {
    return Status::InvalidArgument(
        Format("cannot journal term id %llu of %zu bytes",
               static_cast<unsigned long long>(id), term.size()));
  }
  const uint64_t words[3] = {kTermFlags, id, term.size()};
  std::string record(reinterpret_cast<const char*>(words), kPayloadSize);
  record.append(term.data(), term.size());
  PutFixed32(&record, Crc32(0, record.data(), record.size()));
  return Write(record.data(), record.size());
}

Status StatementLog::Write(const char* bytes, size_t size) {
  if (file_ == nullptr) {
    return Status::IOError("statement log is closed");
  }
  if (std::fwrite(bytes, 1, size, file_) != size) {
    return Status::IOError(Format("short write on statement log '%s'", path_.c_str()));
  }
  ++records_written_;
  ++records_in_file_;
  ++unflushed_;
  if (flush_interval_ != 0 && unflushed_ >= flush_interval_) {
    return Flush();
  }
  return Status::OK();
}

Status StatementLog::AppendBatch(const TripleVec& batch) {
  for (const Triple& t : batch) {
    SLIDER_RETURN_NOT_OK(Append(t));
  }
  return Status::OK();
}

Status StatementLog::Flush() {
  if (file_ == nullptr) {
    return Status::IOError("statement log is closed");
  }
  if (std::fflush(file_) != 0) {
    return Status::IOError(Format("fflush failed on '%s'", path_.c_str()));
  }
  // Durability is the point of a statement log: group-commit with a real
  // fsync, as a persistent repository must (Slider, being in-memory, pays
  // nothing here — that asymmetry is part of the paper's comparison).
  if (::fsync(::fileno(file_)) != 0) {
    return Status::IOError(Format("fsync failed on '%s'", path_.c_str()));
  }
  unflushed_ = 0;
  return Status::OK();
}

Status StatementLog::Close() {
  if (file_ == nullptr) {
    return Status::OK();
  }
  Status st = Flush();
  if (std::fclose(file_) != 0 && st.ok()) {
    st = Status::IOError(Format("fclose failed on '%s'", path_.c_str()));
  }
  file_ = nullptr;
  return st;
}

Status StatementLog::ReplaceFile(const std::string& contents,
                                 uint64_t new_base,
                                 uint64_t new_record_count) {
  if (file_ != nullptr) {
    SLIDER_RETURN_NOT_OK(Flush());
    std::fclose(file_);
    file_ = nullptr;
  }
  SLIDER_RETURN_NOT_OK(AtomicWriteFile(path_, contents));
  std::FILE* file = std::fopen(path_.c_str(), "ab");
  if (file == nullptr) {
    return Status::IOError(
        Format("cannot reopen statement log '%s'", path_.c_str()));
  }
  file_ = file;
  base_lsn_ = new_base;
  records_in_file_ = new_record_count;
  unflushed_ = 0;
  return Status::OK();
}

Status StatementLog::TruncateTo(uint64_t lsn) {
  if (file_ == nullptr) {
    return Status::IOError("statement log is closed");
  }
  if (lsn <= base_lsn_) {
    return Status::OK();  // nothing below the requested anchor
  }
  if (lsn > next_lsn()) {
    return Status::InvalidArgument(
        Format("TruncateTo(%llu) beyond next LSN %llu on '%s'",
               static_cast<unsigned long long>(lsn),
               static_cast<unsigned long long>(next_lsn()), path_.c_str()));
  }
  SLIDER_RETURN_NOT_OK(Flush());
  SLIDER_ASSIGN_OR_RETURN(const std::string data, ReadFileToString(path_));
  // The kept records are a suffix of the file: copy their bytes verbatim,
  // from the end of the last dropped record (lsn > base, so there is one).
  const uint64_t dropped = lsn - base_lsn_;
  uint64_t records = 0;
  size_t tail_start = 0;
  SLIDER_ASSIGN_OR_RETURN(const ScanEnd scan,
                          ScanLog(data, path_, [&](const RawRecord& r) {
                            if (records++ < dropped) {
                              tail_start = static_cast<size_t>(
                                  r.bytes.data() - data.data()) +
                                  r.bytes.size();
                            }
                          }));
  std::string contents = EncodeHeader(lsn);
  contents.append(data, tail_start, scan.end - tail_start);
  return ReplaceFile(contents, lsn, records - dropped);
}

Status StatementLog::Compact() {
  if (file_ == nullptr) {
    return Status::IOError("statement log is closed");
  }
  SLIDER_RETURN_NOT_OK(Flush());
  SLIDER_ASSIGN_OR_RETURN(const std::string data, ReadFileToString(path_));
  std::vector<RawRecord> raw;
  SLIDER_ASSIGN_OR_RETURN(
      const ScanEnd scan,
      ScanLog(data, path_, [&](const RawRecord& r) { raw.push_back(r); }));
  // Last-record-per-triple, emitted in order of last occurrence: replay of
  // the survivors equals replay of the original, because every superseded
  // record's effect was overwritten by the survivor anyway — with one
  // refinement: explicit support is sticky across additions (an explicit
  // add followed by an inferred re-add stays explicit on replay), so the
  // kept record carries the explicit flag iff any addition since the last
  // tombstone did.
  std::unordered_map<Triple, size_t, TripleHash> last;
  std::unordered_map<Triple, bool, TripleHash> final_explicit;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i].is_term()) continue;
    const Record r = Decode(raw[i]);
    last[r.triple] = i;
    bool& is_explicit = final_explicit[r.triple];
    if (r.tombstone) {
      is_explicit = false;  // deletion resets the support history
    } else if (!r.inferred) {
      is_explicit = true;
    }
  }
  std::string contents = EncodeHeader(scan.base_lsn);
  uint64_t kept = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i].is_term()) {
      // Kept in place: it precedes every statement that references it.
      contents.append(raw[i].bytes.data(), raw[i].bytes.size());
      ++kept;
      continue;
    }
    const Record r = Decode(raw[i]);
    if (last[r.triple] != i) continue;  // superseded by a later record
    if (r.tombstone && scan.base_lsn == 0) {
      // No snapshot can hold this triple (nothing precedes this file), so
      // a tombstone-final history is a cancelled add/tombstone pair.
      continue;
    }
    uint64_t flags = kTombstoneBit;
    if (!r.tombstone) flags = final_explicit[r.triple] ? 0 : kInferredBit;
    char record[kRecordSize];
    EncodeStatement(r.triple, flags, record);
    contents.append(record, kRecordSize);
    ++kept;
  }
  return ReplaceFile(contents, scan.base_lsn, kept);
}

Result<TripleVec> StatementLog::ReadAll(const std::string& path) {
  SLIDER_ASSIGN_OR_RETURN(std::vector<Record> records, ReadRecords(path));
  TripleVec out;
  out.reserve(records.size());
  for (const Record& r : records) {
    if (!r.tombstone && !r.is_term()) out.push_back(r.triple);
  }
  return out;
}

Result<std::vector<StatementLog::Record>> StatementLog::ReadRecords(
    const std::string& path) {
  SLIDER_ASSIGN_OR_RETURN(Contents contents, ReadLog(path));
  return std::move(contents.records);
}

Result<StatementLog::Contents> StatementLog::ReadLog(const std::string& path) {
  SLIDER_ASSIGN_OR_RETURN(const std::string data, ReadFileToString(path));
  Contents out;
  SLIDER_ASSIGN_OR_RETURN(const ScanEnd scan,
                          ScanLog(data, path, [&](const RawRecord& r) {
                            out.records.push_back(Decode(r));
                          }));
  out.base_lsn = scan.base_lsn;
  out.torn_tail = scan.torn_tail;
  return out;
}

}  // namespace slider
