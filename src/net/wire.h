// Little-endian wire encoding helpers.
//
// All prototype messages use explicit little-endian fixed-width fields; the
// Writer/Reader pair keeps encode/decode symmetric and bounds-checked.
// Reader throws InvariantError on truncated input, so a short or corrupted
// datagram can never read out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace finelb::net {

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  /// Length-prefixed (u16) byte string; capped at 64 KiB by construction.
  void str(std::string_view s) {
    FINELB_CHECK(s.size() <= 0xffff, "string too long for wire format");
    buf_.reserve(buf_.size() + 2 + s.size());
    u16(static_cast<std::uint16_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Length-prefixed (u32) binary blob (RPC payloads).
  void blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  std::span<const std::uint8_t> bytes() const { return buf_; }
  std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  template <class T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked writer over a caller-supplied buffer — the hot-path
/// counterpart of Writer. Never allocates and never throws: running out of
/// space latches ok() to false and discards further writes, so callers
/// check ok() once at the end instead of guarding every field. Used by the
/// encode_into() family to serialize straight into DatagramBatch arenas and
/// stack buffers.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<std::uint8_t> out) : out_(out) {}

  void u8(std::uint8_t v) {
    if (pos_ + 1 > out_.size()) {
      ok_ = false;
      return;
    }
    out_[pos_++] = v;
  }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }

  /// Length-prefixed (u16) byte string; same wire format as Writer::str.
  void str(std::string_view s) {
    if (s.size() > 0xffff) {
      ok_ = false;
      return;
    }
    u16(static_cast<std::uint16_t>(s.size()));
    append_bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  /// Length-prefixed (u32) binary blob; same wire format as Writer::blob.
  void blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    append_bytes(data.data(), data.size());
  }

  /// Any unsigned integer, little-endian.
  template <class T>
  void append_le(T v) {
    if (pos_ + sizeof(T) > out_.size()) {
      ok_ = false;
      return;
    }
    // Byte stores through `at` may alias this writer, so pos_ is updated
    // once after them; indexing out_[pos_++] would reload it per byte and
    // keep the compiler from merging the stores.
    std::uint8_t* at = out_.data() + pos_;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      at[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    pos_ += sizeof(T);
  }

  /// Marks the encoding unusable (a field past its wire limit).
  void fail() { ok_ = false; }
  /// False once any write overflowed the buffer (or a string was oversized).
  bool ok() const { return ok_; }
  /// Bytes written so far (only meaningful while ok()).
  std::size_t size() const { return pos_; }

 private:
  void append_bytes(const std::uint8_t* data, std::size_t n) {
    if (!ok_ || pos_ + n > out_.size()) {
      ok_ = false;
      return;
    }
    // An empty string or blob may have a null data(), which memcpy must
    // not see even for zero bytes.
    if (n == 0) return;
    std::memcpy(out_.data() + pos_, data, n);
    pos_ += n;
  }

  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return read_le<std::uint8_t>(); }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::string str() {
    const std::size_t len = u16();
    FINELB_CHECK(remaining() >= len, "truncated string on the wire");
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return out;
  }

  std::vector<std::uint8_t> blob() {
    const std::size_t len = u32();
    FINELB_CHECK(remaining() >= len, "truncated blob on the wire");
    std::vector<std::uint8_t> out(data_.begin() + static_cast<long>(pos_),
                                  data_.begin() + static_cast<long>(pos_ + len));
    pos_ += len;
    return out;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  template <class T>
  T read_le() {
    FINELB_CHECK(remaining() >= sizeof(T), "truncated field on the wire");
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Non-throwing reader for hot-path decodes (the try_decode() family).
/// A truncated field latches ok() to false and yields zero values; callers
/// check ok() once after reading every field. String/blob reads assign into
/// caller-owned storage so repeated decodes reuse capacity.
class TryReader {
 public:
  explicit TryReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return read_le<std::uint8_t>(); }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }

  void str(std::string& out) {
    const std::size_t len = u16();
    if (!ok_ || remaining() < len) {
      ok_ = false;
      out.clear();
      return;
    }
    out.assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
  }

  void blob(std::vector<std::uint8_t>& out) {
    const std::size_t len = u32();
    if (!ok_ || remaining() < len) {
      ok_ = false;
      out.clear();
      return;
    }
    out.assign(data_.begin() + static_cast<long>(pos_),
               data_.begin() + static_cast<long>(pos_ + len));
    pos_ += len;
  }

  /// Any unsigned integer, little-endian.
  template <class T>
  T read_le() {
    if (!ok_ || remaining() < sizeof(T)) {
      ok_ = false;
      return 0;
    }
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  /// Marks the input malformed (a value the wire format forbids).
  void fail() { ok_ = false; }
  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace finelb::net
