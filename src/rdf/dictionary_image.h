#ifndef SLIDER_RDF_DICTIONARY_IMAGE_H_
#define SLIDER_RDF_DICTIONARY_IMAGE_H_

#include <string>

#include "common/status.h"
#include "rdf/dictionary.h"

namespace slider {

/// \brief Compact binary dictionary image: the dictionary half of a
/// checkpoint's snapshot pair.
///
/// Format "SLDICT01": an 8-byte magic, a little-endian uint64 entry count,
/// then one entry per bound id in ascending id order — varint id delta
/// from the previous entry, varint term length, raw term bytes — and a
/// trailing CRC32 of everything before it. Ids are carried explicitly (as
/// deltas), so the image is independent of the dictionary's shard topology
/// and id-assignment order; loading it calls Dictionary::Restore per
/// entry — no hashing through the parser's Encode path.
///
/// Writes are atomic (temp file + rename, see AtomicWriteFile): a crash
/// mid-checkpoint leaves the previous image intact.

/// Serializes `dict` to `path`. Quiesced writers assumed (checkpoint runs
/// at an update boundary).
Status WriteDictionaryImage(const Dictionary& dict, const std::string& path);

/// Restores the image at `path` into `dict` (typically freshly
/// constructed; Restore tolerates re-binding identical pairs). Fails with
/// IOError on a missing/unreadable file and InvalidArgument on a
/// corrupt one (bad magic, checksum mismatch, truncated entries) — the
/// recovery path treats both as "snapshot unusable" and falls back to a
/// full log replay when it can.
Status LoadDictionaryImage(const std::string& path, Dictionary* dict);

}  // namespace slider

#endif  // SLIDER_RDF_DICTIONARY_IMAGE_H_
