#include "support/codec.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "support/error.hpp"

namespace ith::codec {

namespace {

constexpr std::size_t kHeaderBytes = 8 + 2 * sizeof(std::uint64_t);

std::string magic_tag(const FileFormat& format) {
  return std::string(format.magic, strnlen(format.magic, sizeof format.magic));
}

[[noreturn]] void fail_io(const std::string& what, const std::string& path) {
  throw Error(what + " " + path + ": " + std::strerror(errno));
}

/// Owns a descriptor; the close runs after any error message has read errno.
struct Fd {
  explicit Fd(int descriptor) : fd(descriptor) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  const int fd;
};

void write_and_sync(const std::string& tmp, std::string_view bytes) {
  const Fd f(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666));
  if (f.fd < 0) fail_io("cannot open for writing", tmp);
  while (!bytes.empty()) {
    const ssize_t n = ::write(f.fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) fail_io("cannot write", tmp);
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  if (::fsync(f.fd) != 0) fail_io("cannot sync", tmp);
}

void sync_directory(const std::string& dir) {
  const Fd f(::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (f.fd < 0) fail_io("cannot open directory", dir);
  if (::fsync(f.fd) != 0) fail_io("cannot sync directory", dir);
}

/// magic + size + checksum + payload.
std::string seal(const FileFormat& format, std::string_view payload) {
  Writer header;
  header.u64(payload.size());
  header.u64(fnv1a(payload));
  std::string file(format.magic, sizeof format.magic);
  file.reserve(kHeaderBytes + payload.size());
  file += header.bytes();
  file += payload;
  return file;
}

/// Validates a whole file image and returns its payload, a view into `file`.
std::string_view unseal(const FileFormat& format, std::string_view file,
                        const std::string& origin) {
  const std::string what = format.what;
  if (file.size() < sizeof format.magic ||
      std::memcmp(file.data(), format.magic, sizeof format.magic) != 0) {
    throw Error(what + " has bad magic (expected " + magic_tag(format) + "): " + origin);
  }
  if (file.size() < kHeaderBytes) throw Error(what + " truncated: " + origin);
  Reader header(file.substr(sizeof format.magic, 2 * sizeof(std::uint64_t)), format.what);
  const std::uint64_t size = header.u64();
  const std::uint64_t checksum = header.u64();
  const std::string_view payload = file.substr(kHeaderBytes);
  if (size > payload.size()) throw Error(what + " truncated: " + origin);
  if (size < payload.size()) {
    throw Error(what + " has trailing bytes (corrupted file): " + origin);
  }
  if (fnv1a(payload) != checksum) {
    throw Error(what + " checksum mismatch (corrupted file): " + origin);
  }
  return payload;
}

}  // namespace

void Reader::truncated() const { throw Error(std::string(what_) + " truncated"); }

void save_sealed(const std::string& path, const FileFormat& format, std::string_view payload) {
  atomic_write_file(path, seal(format, payload));
}

std::string load_sealed(const std::string& path, const FileFormat& format) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) throw Error(std::string("cannot open ") + format.what + ": " + path);
  const std::string file((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  if (is.bad()) throw Error(std::string("cannot read ") + format.what + ": " + path);
  return std::string(unseal(format, file, path));
}

void atomic_write_file(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  try {
    write_and_sync(tmp, bytes);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) fail_io("cannot rename into place", path);
  } catch (const Error&) {
    std::remove(tmp.c_str());
    throw;
  }
  // The rename is only durable once the directory entry is on disk too.
  const std::size_t slash = path.rfind('/');
  sync_directory(slash == std::string::npos ? std::string(".") : path.substr(0, slash + 1));
}

}  // namespace ith::codec
