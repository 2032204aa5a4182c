// Byte-oriented serialization primitives.
//
// All integers are encoded little-endian at fixed width; variable-length
// fields (bytes, strings, vectors) carry a u32 length prefix. Reader uses a
// sticky failure flag instead of exceptions: any out-of-bounds or malformed
// read marks the reader bad and yields zero values, and the caller checks
// ok() once after decoding a whole message. This keeps decode paths branch-
// light and makes truncated/corrupt messages safe to feed in fuzz tests.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vsr::wire {

class Writer {
 public:
  Writer() = default;

  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v) { AppendLe(v); }
  void U32(std::uint32_t v) { AppendLe(v); }
  void U64(std::uint64_t v) { AppendLe(v); }
  void I64(std::int64_t v) { AppendLe(static_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  void Bytes(std::span<const std::uint8_t> b) {
    U32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  // Unprefixed bytes — the caller has already framed them (e.g. the event
  // log's length-prefixed segment entries).
  void Raw(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void String(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  // Encodes a vector via a per-element encoder: w.Vector(v, [&](const T& e){...});
  template <typename T, typename Fn>
  void Vector(const std::vector<T>& v, Fn&& encode_element) {
    U32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) encode_element(e);
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }

 private:
  template <typename T>
  void AppendLe(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t U8() { return ReadLe<std::uint8_t>(); }
  std::uint16_t U16() { return ReadLe<std::uint16_t>(); }
  std::uint32_t U32() { return ReadLe<std::uint32_t>(); }
  std::uint64_t U64() { return ReadLe<std::uint64_t>(); }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  bool Bool() { return U8() != 0; }
  double F64() {
    std::uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::vector<std::uint8_t> Bytes() {
    std::uint32_t n = U32();
    if (!CheckRemaining(n)) return {};
    std::vector<std::uint8_t> out(data_.begin() + static_cast<long>(pos_),
                                  data_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return out;
  }
  std::string String() {
    std::uint32_t n = U32();
    if (!CheckRemaining(n)) return {};
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }
  // Unprefixed reads matching Writer::Raw.
  std::vector<std::uint8_t> Raw(std::size_t n) {
    if (!CheckRemaining(n)) return {};
    std::vector<std::uint8_t> out(data_.begin() + static_cast<long>(pos_),
                                  data_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return out;
  }

  // Decodes a vector via a per-element decoder returning T.
  template <typename T, typename Fn>
  std::vector<T> Vector(Fn&& decode_element) {
    std::uint32_t n = U32();
    std::vector<T> out;
    // A corrupt length prefix must not cause a huge reserve: each element is
    // at least one byte, so cap by remaining input.
    if (!ok_ || n > Remaining() + 1) {
      ok_ = false;
      return out;
    }
    out.reserve(n);
    for (std::uint32_t i = 0; i < n && ok_; ++i) {
      out.push_back(decode_element());
    }
    return out;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  std::size_t Remaining() const { return data_.size() - pos_; }

  // Marks the reader failed; used by message decoders on semantic errors
  // (unknown enum tag, etc.).
  void MarkBad() { ok_ = false; }

 private:
  bool CheckRemaining(std::size_t n) {
    if (!ok_ || Remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <typename T>
  T ReadLe() {
    if (!CheckRemaining(sizeof(T))) return T{};
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// CRC-32 (IEEE 802.3 polynomial) used to checksum network frames.
std::uint32_t Crc32(std::span<const std::uint8_t> data);

}  // namespace vsr::wire
