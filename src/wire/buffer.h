// Byte-oriented serialization primitives and the field walk that drives
// them.
//
// All integers are encoded little-endian at fixed width; variable-length
// fields (bytes, strings, vectors) carry a u32 length prefix. Reader uses a
// sticky failure flag instead of exceptions: any out-of-bounds or malformed
// read marks the reader bad and yields zero values, and the caller checks
// ok() once after decoding a whole message. This keeps decode paths branch-
// light and makes truncated/corrupt messages safe to feed in fuzz tests.
//
// A serialized struct lists its fields once, in wire order:
//
//   template <class Ar, class M>
//   static void Fields(Ar& ar, M& m) {
//     ar(m.group, m.viewid);
//     ar.Enum(m.status, Status::kLast);
//   }
//
// Writer and Reader are the two archives that walk it: w(m) appends m and
// r(m) fills m in. M is deduced const when writing, so one walk serves both
// directions. Each field maps to bytes by its C++ type, here and only here:
//   bool                   one byte, 0 or 1
//   unsigned integer       little-endian at its own width
//   std::string, bytes     u32 length, then the bytes
//   std::vector<T>         u32 count, then each element
//   std::optional<T>       bool presence, then the value if present
//   struct with Fields     its fields in order; if it also declares
//                          `bool Valid() const`, the reader marks itself bad
//                          when a decoded value fails it
//   scoped enum            one byte, only through Enum(field, max); the
//                          reader rejects tags above max
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace vsr::wire {

namespace detail {
template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

template <class E>
constexpr void CheckEnum() {
  static_assert(std::is_enum_v<E> && sizeof(E) == 1,
                "Enum() carries one-byte enums");
}
}  // namespace detail

class Writer {
 public:
  Writer() = default;

  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v) { AppendLe(v); }
  void U32(std::uint32_t v) { AppendLe(v); }
  void U64(std::uint64_t v) { AppendLe(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }

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

  // Field walk: appends each field in turn.
  template <class... Ts>
  void operator()(const Ts&... fields) {
    (Put(fields), ...);
  }
  template <class E>
  void Enum(E e, E /*max*/) {
    detail::CheckEnum<E>();
    U8(static_cast<std::uint8_t>(e));
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }

 private:
  template <class T>
  void Put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      Bool(v);
    } else if constexpr (std::is_unsigned_v<T>) {
      AppendLe(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      String(v);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      Bytes(v);
    } else if constexpr (detail::kIsVector<T>) {
      U32(static_cast<std::uint32_t>(v.size()));
      for (const auto& e : v) Put(e);
    } else if constexpr (detail::kIsOptional<T>) {
      Bool(v.has_value());
      if (v) Put(*v);
    } else {
      T::Fields(*this, v);
    }
  }

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
  bool Bool() { return U8() != 0; }

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

  // Field walk: fills each field in turn.
  template <class... Ts>
  void operator()(Ts&... fields) {
    (Get(fields), ...);
  }
  template <class E>
  void Enum(E& e, E max) {
    detail::CheckEnum<E>();
    const std::uint8_t tag = U8();
    if (tag > static_cast<std::uint8_t>(max)) ok_ = false;
    e = static_cast<E>(tag);
  }
  // Decodes one value of T.
  template <class T>
  T Read() {
    T v{};
    Get(v);
    return v;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  std::size_t Remaining() const { return data_.size() - pos_; }

 private:
  template <class T>
  void Get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = Bool();
    } else if constexpr (std::is_unsigned_v<T>) {
      v = ReadLe<T>();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = String();
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      v = Bytes();
    } else if constexpr (detail::kIsVector<T>) {
      const std::uint32_t n = U32();
      v.clear();
      // A corrupt length prefix must not cause a huge reserve: each element
      // is at least one byte, so cap by remaining input.
      if (!ok_ || n > Remaining() + 1) {
        ok_ = false;
        return;
      }
      v.reserve(n);
      for (std::uint32_t i = 0; i < n && ok_; ++i) Get(v.emplace_back());
    } else if constexpr (detail::kIsOptional<T>) {
      v.reset();
      if (Bool()) Get(v.emplace());
    } else {
      T::Fields(*this, v);
      if constexpr (requires { v.Valid(); }) {
        if (!v.Valid()) ok_ = false;
      }
    }
  }

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

// The bytes of one value with a field walk.
template <class T>
std::vector<std::uint8_t> Encode(const T& v) {
  Writer w;
  w(v);
  return w.Take();
}

// CRC-32 (IEEE 802.3 polynomial) used to checksum network frames.
std::uint32_t Crc32(std::span<const std::uint8_t> data);

}  // namespace vsr::wire
