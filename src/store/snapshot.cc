#include "store/snapshot.h"

#include <cstring>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/fs.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace slider {

namespace {

constexpr char kMagic[8] = {'S', 'L', 'T', 'R', 'I', 'P', '0', '1'};
constexpr size_t kHeaderSize = sizeof(kMagic) + sizeof(uint64_t) + sizeof(uint32_t);
constexpr size_t kDirEntrySize = 3 * sizeof(uint64_t);

/// Appends one predicate section (see the format comment in snapshot.h).
void EncodeSection(const TripleStore::SnapshotPartition& part,
                   std::string* out) {
  PutVarint(out, part.size());
  TermId prev_subject = 0;
  part.ForEachRow([&](TermId subject, const auto& objects) {
    PutVarint(out, subject - prev_subject);
    prev_subject = subject;
    PutVarint(out, objects.size());
    TermId prev_object = 0;
    for (const auto& [o, flags] : objects) {
      PutVarint(out, o - prev_object);
      prev_object = o;
      out->push_back(static_cast<char>(flags));
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
                           const std::string& path) {
  // Sections are encoded straight into one body buffer, in ascending
  // predicate order, so images of equal stores are byte-identical. The
  // header and directory, which need the section count and offsets, are
  // built afterwards and written in front of it.
  struct Section {
    TermId predicate;
    size_t start;
    size_t length;
  };
  std::vector<Section> sections;
  std::string body;
  store.ForEachSnapshotPartition(
      [&](TermId p, const TripleStore::SnapshotPartition& part) {
        const size_t start = body.size();
        EncodeSection(part, &body);
        sections.push_back(Section{p, start, body.size() - start});
      });

  std::string head(kMagic, sizeof(kMagic));
  PutFixed64(&head, lsn);
  PutFixed32(&head, static_cast<uint32_t>(sections.size()));
  const uint64_t body_offset = kHeaderSize + sections.size() * kDirEntrySize;
  for (const Section& section : sections) {
    PutFixed64(&head, section.predicate);
    PutFixed64(&head, body_offset + section.start);
    PutFixed64(&head, section.length);
  }
  std::string trailer;
  PutFixed32(&trailer, Crc32(Crc32(0, head.data(), head.size()), body.data(),
                             body.size()));
  return AtomicWriteFile(path, {head, body, trailer});
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
