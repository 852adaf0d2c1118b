#include "rdf/dictionary_image.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/fs.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace slider {

namespace {
constexpr char kMagic[8] = {'S', 'L', 'D', 'I', 'C', 'T', '0', '1'};
constexpr size_t kHeaderSize = sizeof(kMagic) + sizeof(uint64_t);
/// Capacity of one body piece; an entry that does not fit starts the next.
constexpr size_t kPieceBytes = size_t{64} << 10;
/// Upper bound of an entry's two varints.
constexpr size_t kMaxEntryOverhead = 20;
}  // namespace

Status WriteDictionaryImage(const Dictionary& dict, const std::string& path) {
  // The body is encoded into pieces of bounded capacity rather than one
  // growing buffer, so a checkpoint never leaves a multi-MiB block behind
  // in the arena of the thread that wrote it.
  std::vector<std::string> pieces;
  uint64_t count = 0;
  TermId prev = 0;
  dict.ForEach([&](TermId id, std::string_view term) {
    const size_t entry = kMaxEntryOverhead + term.size();
    if (pieces.empty() ||
        pieces.back().size() + entry > pieces.back().capacity()) {
      pieces.emplace_back().reserve(std::max(kPieceBytes, entry));
    }
    std::string& body = pieces.back();
    PutVarint(&body, id - prev);
    prev = id;
    PutVarint(&body, term.size());
    body.append(term.data(), term.size());
    ++count;
  });
  std::string head(kMagic, sizeof(kMagic));
  PutFixed64(&head, count);
  std::vector<std::string_view> parts;
  parts.reserve(pieces.size() + 2);
  parts.push_back(head);
  for (const std::string& piece : pieces) parts.push_back(piece);
  return AtomicWriteFileWithCrc(path, std::move(parts));
}

Status LoadDictionaryImage(const std::string& path, Dictionary* dict) {
  SLIDER_ASSIGN_OR_RETURN(const std::string data, ReadFileToString(path));
  if (data.size() < kHeaderSize + sizeof(uint32_t) ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        Format("'%s' is not a dictionary image", path.c_str()));
  }
  const size_t body_end = data.size() - sizeof(uint32_t);
  const uint32_t stored = GetFixed32(data.data() + body_end);
  if (Crc32(0, data.data(), body_end) != stored) {
    return Status::InvalidArgument(
        Format("dictionary image '%s': checksum mismatch", path.c_str()));
  }
  const uint64_t count = GetFixed64(data.data() + sizeof(kMagic));
  size_t pos = kHeaderSize;
  TermId id = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t delta = 0;
    uint64_t length = 0;
    if (!GetVarint(data.data(), body_end, &pos, &delta) ||
        !GetVarint(data.data(), body_end, &pos, &length) ||
        pos + length > body_end) {
      return Status::InvalidArgument(
          Format("dictionary image '%s': truncated entry %llu", path.c_str(),
                 static_cast<unsigned long long>(i)));
    }
    id += delta;
    SLIDER_RETURN_NOT_OK(
        dict->Restore(id, std::string_view(data.data() + pos, length)));
    pos += length;
  }
  if (pos != body_end) {
    return Status::InvalidArgument(
        Format("dictionary image '%s': %zu trailing bytes", path.c_str(),
               body_end - pos));
  }
  return Status::OK();
}

}  // namespace slider
