#ifndef CLYDESDALE_STORAGE_BYTE_IO_H_
#define CLYDESDALE_STORAGE_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace clydesdale {
namespace storage {

/// Little-endian append-only encoder into a growable byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI32(int32_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }
  void PutBytes(const void* data, size_t len) { PutRaw(data, len); }
  void PutString(std::string_view s) {
    PutU16(static_cast<uint16_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  /// Patches a previously written u32 at `offset` (used for length headers).
  void PatchU32(size_t offset, uint32_t v) {
    std::memcpy(buf_.data() + offset, &v, sizeof(v));
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }
  void Clear() { buf_.clear(); }

 private:
  void PutRaw(const void* data, size_t len) {
    if (len == 0) return;
    const size_t at = buf_.size();
    buf_.resize(at + len);
    std::memcpy(buf_.data() + at, data, len);
  }

  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte span.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  size_t remaining() const { return len_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == len_; }

  Status GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU16(uint16_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetI32(int32_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetI64(int64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetF64(double* v) { return GetRaw(v, sizeof(*v)); }

  Status GetString(std::string* out) {
    uint16_t n = 0;
    CLY_RETURN_IF_ERROR(GetU16(&n));
    if (remaining() < n) return Truncated();
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }

  Status Skip(size_t n) {
    if (remaining() < n) return Truncated();
    pos_ += n;
    return Status::OK();
  }

 private:
  Status GetRaw(void* out, size_t n) {
    if (remaining() < n) return Truncated();
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  static Status Truncated() {
    return Status::IoError("truncated buffer while decoding");
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace storage
}  // namespace clydesdale

#endif  // CLYDESDALE_STORAGE_BYTE_IO_H_
