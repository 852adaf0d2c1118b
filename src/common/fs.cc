#include "common/fs.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <utility>

#include "common/codec.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace slider {

namespace {

/// fsync the directory containing `path`, so a rename into it is durable.
/// Best-effort: some filesystems refuse O_RDONLY directory fsync; the
/// rename itself already happened, so a failure here only narrows the
/// crash-durability window, it never corrupts.
void SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

Status AtomicWriteFile(const std::string& path, std::string_view contents) {
  return AtomicWriteFile(path, std::vector<std::string_view>{contents});
}

Status AtomicWriteFile(const std::string& path,
                       const std::vector<std::string_view>& parts) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError(Format("cannot write '%s'", tmp.c_str()));
  }
  for (const std::string_view contents : parts) {
    if (!contents.empty() &&
        std::fwrite(contents.data(), 1, contents.size(), file) !=
            contents.size()) {
      std::fclose(file);
      std::remove(tmp.c_str());
      return Status::IOError(Format("short write on '%s'", tmp.c_str()));
    }
  }
  if (std::fflush(file) != 0 || ::fsync(::fileno(file)) != 0) {
    std::fclose(file);
    std::remove(tmp.c_str());
    return Status::IOError(Format("cannot flush '%s'", tmp.c_str()));
  }
  if (std::fclose(file) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError(Format("close failed on '%s'", tmp.c_str()));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError(
        Format("cannot rename '%s' over '%s'", tmp.c_str(), path.c_str()));
  }
  SyncParentDir(path);
  return Status::OK();
}

Status AtomicWriteFileWithCrc(const std::string& path,
                              std::vector<std::string_view> parts) {
  uint32_t crc = 0;
  for (const std::string_view part : parts) {
    crc = Crc32(crc, part.data(), part.size());
  }
  std::string trailer;
  PutFixed32(&trailer, crc);
  parts.push_back(trailer);
  return AtomicWriteFile(path, parts);
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError(Format("cannot read '%s'", path.c_str()));
  }
  std::string out;
  char buffer[1 << 16];
  size_t read;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out.append(buffer, read);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return Status::IOError(Format("read failed on '%s'", path.c_str()));
  }
  return out;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    this->~MappedFile();
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    fallback_ = std::move(other.fallback_);
    if (!mapped_) data_ = fallback_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  MappedFile out;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError(Format("cannot open '%s'", path.c_str()));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError(Format("cannot stat '%s'", path.c_str()));
  }
  out.size_ = static_cast<size_t>(st.st_size);
  if (out.size_ == 0) {
    ::close(fd);
    out.data_ = out.fallback_.data();
    return out;
  }
  void* map = ::mmap(nullptr, out.size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map != MAP_FAILED) {
    out.data_ = static_cast<const char*>(map);
    out.mapped_ = true;
    return out;
  }
  // Sequential-read fallback (e.g. a filesystem without mmap support).
  SLIDER_ASSIGN_OR_RETURN(out.fallback_, ReadFileToString(path));
  out.data_ = out.fallback_.data();
  out.size_ = out.fallback_.size();
  return out;
}

}  // namespace slider
