#ifndef CAROUSEL_COMMON_BYTES_H_
#define CAROUSEL_COMMON_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace carousel {

namespace bytes_internal {

template <typename T>
T ToLittleEndian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    T le = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      le |= static_cast<T>(static_cast<uint8_t>(v >> (8 * i)))
            << (8 * (sizeof(T) - 1 - i));
    }
    return le;
  }
  return v;
}

}  // namespace bytes_internal

/// Little-endian appender over a caller-owned byte vector: the one byte
/// codec under the wire format, the WAL records and snapshot, and the
/// prepare-pin blob. PadTo offsets are relative to where the writer
/// started, so a nested writer encodes an embedded payload in place.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out)
      : out_(out), start_(out->size()) {}

  /// One growth check and one memcpy per unsigned integer field.
  template <typename T>
  void Int(T v) {
    v = bytes_internal::ToLittleEndian(v);
    const auto* b = reinterpret_cast<const uint8_t*>(&v);
    out_->insert(out_->end(), b, b + sizeof(T));
  }
  void U32(uint32_t v) { Int(v); }
  void U64(uint64_t v) { Int(v); }
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + n);
  }
  void Bytes(const std::string& s) { Bytes(s.data(), s.size()); }

  /// Zero-pads to exactly `n` bytes past the start.
  void PadTo(size_t n) { out_->resize(start_ + n, 0); }

  size_t written() const { return out_->size() - start_; }

 private:
  std::vector<uint8_t>* out_;
  size_t start_;
};

/// Stores `v` little-endian at `p`: a length or checksum filled in once
/// what it covers has been written after it.
inline void StoreU32(uint8_t* p, uint32_t v) {
  v = bytes_internal::ToLittleEndian(v);
  std::memcpy(p, &v, sizeof(v));
}

/// Bounds-checked little-endian reader. Underflow latches ok() = false and
/// yields zeros and empty strings, so a decoder checks ok() once at the end.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  /// One bounds check and one unaligned load per unsigned integer field.
  template <typename T>
  T Int() {
    const uint8_t* p = Take(sizeof(T));
    if (p == nullptr) return 0;
    T v;
    std::memcpy(&v, p, sizeof(T));
    return bytes_internal::ToLittleEndian(v);
  }
  uint8_t U8() { return Int<uint8_t>(); }
  uint32_t U32() { return Int<uint32_t>(); }
  uint64_t U64() { return Int<uint64_t>(); }
  std::string Str(size_t n) {
    const uint8_t* p = Take(n);
    return p == nullptr ? std::string()
                        : std::string(reinterpret_cast<const char*>(p), n);
  }
  std::vector<uint8_t> Bytes(size_t n) {
    const uint8_t* p = Take(n);
    return p == nullptr ? std::vector<uint8_t>()
                        : std::vector<uint8_t>(p, p + n);
  }

  /// The next `n` bytes, consumed; nullptr (and latched failure) when
  /// fewer remain.
  const uint8_t* Take(size_t n) {
    if (!ok_ || len_ - pos_ < n) {
      ok_ = false;
      return nullptr;
    }
    pos_ += n;
    return data_ + pos_ - n;
  }

  /// Skips forward to absolute offset `n` (the padded rest of a fixed
  /// header).
  void SkipTo(size_t n) {
    if (n < pos_ || n > len_) {
      ok_ = false;
      return;
    }
    pos_ = n;
  }

  void Fail() { ok_ = false; }
  size_t remaining() const { return len_ - pos_; }
  bool ok() const { return ok_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace carousel

#endif  // CAROUSEL_COMMON_BYTES_H_
