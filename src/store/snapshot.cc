#include "store/snapshot.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/fs.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace slider {

namespace {

constexpr char kMagic[8] = {'S', 'L', 'T', 'R', 'I', 'P', '0', '1'};
constexpr size_t kHeaderSize = sizeof(kMagic) + sizeof(uint64_t) + sizeof(uint32_t);
constexpr size_t kDirEntrySize = 3 * sizeof(uint64_t);

/// A run of at most kSnapshotPieceRows subject rows of one partition,
/// encoded on its own. The partition's first piece opens the section with
/// its subject count.
struct Piece {
  const TripleStore::SnapshotPartition* part;
  size_t begin;
  size_t end;
  std::string bytes;
};

/// Encodes `piece` (see the format comment in snapshot.h). Its first
/// subject delta is taken from the row just before it, so the pieces of a
/// section concatenate to the sequential encoding.
void EncodePiece(Piece* piece) {
  const auto& rows = piece->part->rows;
  std::string& out = piece->bytes;
  if (piece->begin == 0) PutVarint(&out, rows.size());
  TermId prev_subject = piece->begin == 0 ? 0 : rows[piece->begin - 1].first;
  piece->part->ForEachRow(
      piece->begin, piece->end, [&](TermId subject, const auto& objects) {
        PutVarint(&out, subject - prev_subject);
        prev_subject = subject;
        PutVarint(&out, objects.size());
        TermId prev_object = 0;
        for (const auto& [o, flags] : objects) {
          PutVarint(&out, o - prev_object);
          prev_object = o;
          out.push_back(static_cast<char>(flags));
        }
      });
}

Status DecodeSection(const char* data, size_t size, TermId predicate,
                     const std::string& path, TripleStore* store) {
  size_t pos = 0;
  uint64_t subject_count = 0;
  if (!GetVarint(data, size, &pos, &subject_count)) {
    return Status::InvalidArgument(
        Format("snapshot '%s': truncated section header", path.c_str()));
  }
  std::vector<TripleStore::SnapshotRow> rows;
  rows.reserve(subject_count);
  TermId subject = 0;
  for (uint64_t i = 0; i < subject_count; ++i) {
    uint64_t subject_delta = 0;
    uint64_t object_count = 0;
    if (!GetVarint(data, size, &pos, &subject_delta) ||
        !GetVarint(data, size, &pos, &object_count)) {
      return Status::InvalidArgument(
          Format("snapshot '%s': truncated subject row", path.c_str()));
    }
    subject += subject_delta;
    TripleStore::SnapshotRow row;
    row.subject = subject;
    row.objects.reserve(object_count);
    TermId object = 0;
    for (uint64_t j = 0; j < object_count; ++j) {
      uint64_t object_delta = 0;
      if (!GetVarint(data, size, &pos, &object_delta) || pos >= size) {
        return Status::InvalidArgument(
            Format("snapshot '%s': truncated object list", path.c_str()));
      }
      object += object_delta;
      row.objects.emplace_back(object, static_cast<uint8_t>(data[pos++]));
    }
    rows.push_back(std::move(row));
  }
  if (pos != size) {
    return Status::InvalidArgument(
        Format("snapshot '%s': %zu trailing section bytes", path.c_str(),
               size - pos));
  }
  return store->BulkLoadPartition(predicate, rows);
}

}  // namespace

Status WriteTripleSnapshot(const TripleStore& store, uint64_t lsn,
                           const std::string& path, ThreadPool* pool) {
  const TripleStore::SnapshotExport exported = store.CollectForSnapshot(pool);
  std::vector<Piece> pieces;
  for (const TripleStore::SnapshotPartition& part : exported.partitions) {
    for (size_t begin = 0; begin < part.rows.size();
         begin += kSnapshotPieceRows) {
      pieces.push_back(Piece{
          &part, begin, std::min(begin + kSnapshotPieceRows, part.rows.size()),
          {}});
    }
  }
  ThreadPool::ParallelFor(pool, pieces.size(),
                          [&](size_t i) { EncodePiece(&pieces[i]); });

  // Sections follow the directory in ascending predicate order, so images
  // of equal stores are byte-identical whatever the pool size.
  std::string head(kMagic, sizeof(kMagic));
  PutFixed64(&head, lsn);
  PutFixed32(&head, static_cast<uint32_t>(exported.partitions.size()));
  uint64_t offset = kHeaderSize + exported.partitions.size() * kDirEntrySize;
  for (size_t i = 0; i < pieces.size();) {
    const TripleStore::SnapshotPartition* part = pieces[i].part;
    uint64_t length = 0;
    for (; i < pieces.size() && pieces[i].part == part; ++i) {
      length += pieces[i].bytes.size();
    }
    PutFixed64(&head, part->predicate);
    PutFixed64(&head, offset);
    PutFixed64(&head, length);
    offset += length;
  }
  std::vector<std::string_view> parts;
  parts.reserve(pieces.size() + 2);
  parts.push_back(head);
  for (const Piece& piece : pieces) parts.push_back(piece.bytes);
  return AtomicWriteFileWithCrc(path, std::move(parts));
}

Result<uint64_t> LoadTripleSnapshot(const std::string& path,
                                    TripleStore* store) {
  SLIDER_ASSIGN_OR_RETURN(const MappedFile file, MappedFile::Open(path));
  const char* data = file.data();
  const size_t size = file.size();
  if (size < kHeaderSize + sizeof(uint32_t) ||
      std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        Format("'%s' is not a triple snapshot", path.c_str()));
  }
  const size_t body_end = size - sizeof(uint32_t);
  if (Crc32(0, data, body_end) != GetFixed32(data + body_end)) {
    return Status::InvalidArgument(
        Format("snapshot '%s': checksum mismatch", path.c_str()));
  }
  const uint64_t lsn = GetFixed64(data + sizeof(kMagic));
  const uint32_t section_count =
      GetFixed32(data + sizeof(kMagic) + sizeof(uint64_t));
  if (kHeaderSize + static_cast<size_t>(section_count) * kDirEntrySize >
      body_end) {
    return Status::InvalidArgument(
        Format("snapshot '%s': truncated directory", path.c_str()));
  }
  for (uint32_t i = 0; i < section_count; ++i) {
    const char* entry = data + kHeaderSize + i * kDirEntrySize;
    const TermId predicate = GetFixed64(entry);
    const uint64_t offset = GetFixed64(entry + 8);
    const uint64_t length = GetFixed64(entry + 16);
    if (offset > body_end || length > body_end - offset) {
      return Status::InvalidArgument(
          Format("snapshot '%s': section %u out of bounds", path.c_str(), i));
    }
    SLIDER_RETURN_NOT_OK(
        DecodeSection(data + offset, length, predicate, path, store));
  }
  return lsn;
}

}  // namespace slider
