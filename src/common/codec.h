// The field codec: one little-endian encoding for every byte format geminid
// writes. The wire protocol's bodies (src/transport/wire.h), WAL records
// (src/persist/wal.h), checkpoints (src/cache/snapshot.h) and the
// coordinator state blob (src/cluster/coordinator_replica.cc) are each a
// tuple of field types, and each field type has one encoding:
//   u8/u16/u32/u64      little-endian, on every host
//   Blob                u32 len | bytes
//   std::vector<T>      u32 count | count * T
//   std::tuple<Ts...>   the Ts in order
// wire.h adds the protocol's own field types (Key, OpContext, CacheValue).
// docs/PROTOCOL.md §10.2 is the grammar; §9 gives the WAL and checkpoint
// layouts in it.
//
// Decoding never over-reads: every Get checks the remaining span first, and
// a vector count is checked against the bytes left before anything is
// allocated for it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace gemini {
namespace codec {

using u8 = uint8_t;
using u16 = uint16_t;
using u32 = uint32_t;
using u64 = uint64_t;

// ---- Primitive writers (append to `out`, one append per integer) ----------

template <typename T>
void PutLittleEndian(std::string& out, T v) {
  char bytes[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>(v >> (8 * i));
  }
  out.append(bytes, sizeof(T));
}

inline void PutU8(std::string& out, uint8_t v) { PutLittleEndian(out, v); }
inline void PutU16(std::string& out, uint16_t v) { PutLittleEndian(out, v); }
inline void PutU32(std::string& out, uint32_t v) { PutLittleEndian(out, v); }
inline void PutU64(std::string& out, uint64_t v) { PutLittleEndian(out, v); }
/// blob: u32 length prefix.
inline void PutBlob(std::string& out, std::string_view bytes) {
  PutU32(out, static_cast<uint32_t>(bytes.size()));
  out.append(bytes);
}

// ---- Primitive reader ------------------------------------------------------

/// Cursor over encoded bytes. Every accessor returns false when fewer bytes
/// remain than it needs; once a format is parsed, callers check Done() to
/// reject trailing bytes.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  template <typename T>
  bool GetLittleEndian(T* v) {
    if (data_.size() < sizeof(T)) return false;
    uint64_t out = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      out |= uint64_t{static_cast<uint8_t>(data_[i])} << (8 * i);
    }
    *v = static_cast<T>(out);
    data_.remove_prefix(sizeof(T));
    return true;
  }
  bool GetU8(uint8_t* v) { return GetLittleEndian(v); }
  bool GetU16(uint16_t* v) { return GetLittleEndian(v); }
  bool GetU32(uint32_t* v) { return GetLittleEndian(v); }
  bool GetU64(uint64_t* v) { return GetLittleEndian(v); }
  /// The next `n` bytes, as a view into the input.
  bool GetBytes(size_t n, std::string_view* bytes) {
    if (data_.size() < n) return false;
    *bytes = data_.substr(0, n);
    data_.remove_prefix(n);
    return true;
  }
  /// blob: a u32 length, then that many bytes (a view into the input).
  bool GetBlob(std::string_view* bytes) {
    uint32_t len = 0;
    return GetU32(&len) && GetBytes(len, bytes);
  }

  [[nodiscard]] size_t remaining() const { return data_.size(); }
  [[nodiscard]] bool Done() const { return data_.empty(); }

 private:
  std::string_view data_;
};

// ---- Field types -----------------------------------------------------------
//
// Field<T> encodes and decodes one field of type T. Put returns false only
// for bytes longer than their length prefix can count. Get decodes into T
// itself or into an owning or domain type: Field<T>::Owned (a Blob as
// std::string), or a struct whose members AsFields(s), found by
// argument-dependent lookup, ties in field order.

/// A `u32 len | bytes` field. A view: decoding aliases the input, encoding
/// the caller's bytes, so whatever backs it must outlive the call.
struct Blob : std::string_view {
  using std::string_view::string_view;
  Blob(std::string_view v) : std::string_view(v) {}  // NOLINT
};

template <typename T>
concept TupleLike = requires { std::tuple_size<T>::value; };

template <typename T>
struct Field;

template <typename T>
struct IntField {
  using Owned = T;
  static constexpr size_t kMinSize = sizeof(T);
  static bool Put(std::string& out, T v) {
    PutLittleEndian(out, v);
    return true;
  }
  static bool Get(Reader& r, T* v) { return r.GetLittleEndian(v); }
};
template <>
struct Field<u8> : IntField<u8> {};
template <>
struct Field<u16> : IntField<u16> {};
template <>
struct Field<u32> : IntField<u32> {};
template <>
struct Field<u64> : IntField<u64> {};

/// `Len len | bytes`: Blob's length is a u32, wire.h's Key's a u16.
template <typename Len>
struct BytesField {
  using Owned = std::string;
  static constexpr size_t kMinSize = sizeof(Len);
  static bool Put(std::string& out, std::string_view bytes) {
    if (bytes.size() > std::numeric_limits<Len>::max()) return false;
    PutLittleEndian(out, static_cast<Len>(bytes.size()));
    out.append(bytes);
    return true;
  }
  static bool Get(Reader& r, std::string_view* bytes) {
    Len len = 0;
    return r.GetLittleEndian(&len) && r.GetBytes(len, bytes);
  }
  static bool Get(Reader& r, std::string* bytes) {
    std::string_view view;
    if (!Get(r, &view)) return false;
    bytes->assign(view);
    return true;
  }
};
template <>
struct Field<Blob> : BytesField<u32> {};

template <typename T>
struct Field<std::vector<T>> {
  using Owned = std::vector<typename Field<T>::Owned>;
  static constexpr size_t kMinSize = 4;
  template <typename Items>
  static bool Put(std::string& out, const Items& items) {
    PutU32(out, static_cast<uint32_t>(items.size()));
    for (const auto& item : items) {
      if (!Field<T>::Put(out, item)) return false;
    }
    return true;
  }
  template <typename U>
  static bool Get(Reader& r, std::vector<U>* items) {
    static_assert(Field<T>::kMinSize > 0);
    uint32_t count = 0;
    // A count the rest of the input cannot hold is refused before anything
    // is allocated for it.
    if (!r.GetU32(&count) ||
        static_cast<uint64_t>(count) * Field<T>::kMinSize > r.remaining()) {
      return false;
    }
    items->resize(count);
    for (U& item : *items) {
      if (!Field<T>::Get(r, &item)) return false;
    }
    return true;
  }
};

template <typename... Ts>
struct Field<std::tuple<Ts...>> {
  using Owned = std::tuple<typename Field<Ts>::Owned...>;
  static constexpr size_t kMinSize = (size_t{0} + ... + Field<Ts>::kMinSize);
  template <typename Src>
  static bool Put(std::string& out, const Src& src) {
    if constexpr (!TupleLike<Src>) {
      return Put(out, AsFields(src));
    } else {
      return std::apply(
          [&out](const auto&... f) { return (Field<Ts>::Put(out, f) && ...); },
          src);
    }
  }
  template <typename Dst>
  static bool Get(Reader& r, Dst* dst) {
    if constexpr (!TupleLike<Dst>) {
      auto fields = AsFields(*dst);
      return Get(r, &fields);
    } else {
      return std::apply(
          [&r](auto&... f) { return (Field<Ts>::Get(r, &f) && ...); }, *dst);
    }
  }
};

/// A struct encoded as the tuple `Fields` of its members, which AsFields
/// ties; it decodes into the struct itself.
template <typename T, typename Fields>
struct StructField : Field<Fields> {
  using Owned = T;
};

/// Appends `value` encoded as field type T; false only when a length prefix
/// cannot count its bytes.
template <typename T, typename U>
bool Encode(std::string& out, const U& value) {
  return Field<T>::Put(out, value);
}

/// Decodes all of `bytes` as field type T into `out`: false on a short input
/// or trailing bytes.
template <typename T, typename U>
bool Decode(std::string_view bytes, U* out) {
  Reader r(bytes);
  return Field<T>::Get(r, out) && r.Done();
}

}  // namespace codec
}  // namespace gemini
