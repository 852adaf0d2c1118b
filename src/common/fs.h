#ifndef SLIDER_COMMON_FS_H_
#define SLIDER_COMMON_FS_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace slider {

/// \brief Crash-safe file helpers shared by the persistence layer (statement
/// log rewrite, snapshot images).

/// Writes `contents` to `path` atomically: the bytes go to `path.tmp`,
/// are fsync'd, and the temp file is renamed over `path` (rename within a
/// directory is atomic on POSIX). The directory is fsync'd afterwards so
/// the rename itself is durable. A crash at any point leaves either the
/// complete old file or the complete new one — never a torn mixture.
Status AtomicWriteFile(const std::string& path, std::string_view contents);

/// Reads the whole file into a string. IOError if it cannot be opened.
Result<std::string> ReadFileToString(const std::string& path);

/// True iff `path` names an existing file.
bool FileExists(const std::string& path);

/// \brief A read-only memory-mapped file, with a heap-buffer fallback when
/// mmap is unavailable. The snapshot images are laid out section-by-section
/// so a loader can touch only the bytes it decodes; mapping keeps the load
/// path copy-free for the large sorted-triple sections.
class MappedFile {
 public:
  /// Maps (or reads) `path`. The returned object owns the mapping.
  static Result<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  /// True iff the contents are served by an mmap (introspection/benches).
  bool mapped() const { return mapped_; }

 private:
  const char* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::string fallback_;  // owns the bytes when mapped_ is false
};

}  // namespace slider

#endif  // SLIDER_COMMON_FS_H_
