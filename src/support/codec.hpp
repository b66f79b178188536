// Binary codec shared by every checksummed format the tuner persists or
// ships: the ITHEVC3 evaluation cache, the ITHGACP1 GA checkpoint and the
// ITHSVP2 service-frame payloads. Each of those is only a payload schema
// over this file; the encoding, the checksum and the file envelope live
// here and nowhere else.
//
// Encoding: fixed-width host-endian u64 / i64 / f64 words, strings as a
// u64 byte length plus the bytes — a crash-recovery and same-host IPC
// encoding, not a portable archive. Checksums are 64-bit FNV-1a.
//
// File envelope (save_sealed / load_sealed):
//
//   magic    8 bytes   format tag, e.g. "ITHEVC3\0"
//   size     u64       payload byte count
//   checksum u64       FNV-1a over the payload
//   payload  size bytes
//
// Decoding never trusts a length field: every read is bounds-checked and
// fails with ith::Error("<what> truncated"), and element counts are checked
// against the bytes remaining before anything is allocated.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ith::codec {

// --- FNV-1a 64 -------------------------------------------------------------
// Header-inline: the decision probe hashes one step per inline verdict.

inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

inline std::uint64_t fnv1a_byte(std::uint64_t h, unsigned char b) {
  return (h ^ b) * 0x100000001b3ULL;
}

/// Hashes `v` as its eight little-endian bytes.
inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = fnv1a_byte(h, static_cast<unsigned char>(v & 0xff));
    v >>= 8;
  }
  return h;
}

inline std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnv1aBasis) {
  for (const char c : bytes) h = fnv1a_byte(h, static_cast<unsigned char>(c));
  return h;
}

// --- payload encoding ------------------------------------------------------

/// Append-only encoder.
class Writer {
 public:
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s);
  }
  const std::string& bytes() const { return buf_; }

 private:
  void raw(const void* p, std::size_t n) { buf_.append(static_cast<const char*>(p), n); }
  std::string buf_;
};

/// Bounds-checked decoder over borrowed bytes (they must outlive the
/// reader). `what` names the format in errors: "<what> truncated".
class Reader {
 public:
  Reader(std::string_view bytes, const char* what) : buf_(bytes), what_(what) {}
  Reader(std::string&&, const char*) = delete;  // would dangle

  std::uint64_t u64() { return word<std::uint64_t>(); }
  std::int64_t i64() { return word<std::int64_t>(); }
  double f64() { return word<double>(); }
  std::string str() {
    const std::uint64_t n = u64();
    if (n > remaining()) truncated();
    std::string s(buf_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  /// Reads an element count and checks it against the bytes remaining
  /// (every element is at least one word wide), so a corrupted count fails
  /// as truncated instead of as a giant allocation.
  std::uint64_t count() {
    const std::uint64_t n = u64();
    if (n > remaining() / sizeof(std::uint64_t)) truncated();
    return n;
  }
  /// Everything not yet read, verbatim.
  std::string_view rest() {
    const std::string_view s = buf_.substr(pos_);
    pos_ = buf_.size();
    return s;
  }
  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  template <typename T>
  T word() {
    if (remaining() < sizeof(T)) truncated();
    T v{};
    std::memcpy(&v, buf_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }
  std::size_t remaining() const { return buf_.size() - pos_; }
  [[noreturn]] void truncated() const;

  std::string_view buf_;
  const char* what_;
  std::size_t pos_ = 0;
};

// --- file envelope ---------------------------------------------------------

/// A sealed file format: its 8-byte magic and the noun used in errors.
struct FileFormat {
  char magic[8];
  const char* what;  ///< e.g. "evaluation cache"
};

/// Wraps `payload` in the envelope and publishes it at `path` with
/// atomic_write_file.
void save_sealed(const std::string& path, const FileFormat& format, std::string_view payload);

/// Reads `path` and returns its payload. Throws ith::Error naming the file,
/// with a distinct message for each failure: cannot open, bad magic,
/// truncated, trailing bytes, checksum mismatch.
std::string load_sealed(const std::string& path, const FileFormat& format);

/// Publishes `bytes` at `path` durably and atomically: writes
/// `path + ".tmp"`, fsyncs it, renames it over `path`, then fsyncs the
/// directory. Readers see the old file or the new one, never a torn one,
/// across a killed process and across power loss. On failure the tmp file
/// is removed and ith::Error is thrown.
void atomic_write_file(const std::string& path, std::string_view bytes);

}  // namespace ith::codec
