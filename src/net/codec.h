// Declarative wire codec for the prototype's messages (net/message.h).
//
// A message lists its fields once, in wire order, in a static
// `fields(auto& m)` returning `std::tie(m.a, m.b, ...)`, and names its type
// tag in `kType`. Deriving from Message<Self> then supplies every codec
// surface from that one list:
//   * encoded_size(), encode_into(span) and try_decode(span, out): the hot
//     path. encode_into serializes into a caller buffer (a DatagramBatch
//     slot or a stack array) and try_decode parses without throwing.
//     Neither touches the heap for fixed-size types, and try_decode
//     assigns into out's strings, blobs and vectors, reusing their capacity.
//   * encode() and decode(span): a fresh vector (cold control-plane sends)
//     and a throwing decode (tests) over the same bytes.
//
// On the wire a message is its one-byte tag followed by its fields,
// little-endian. Each field's kind follows from its C++ type:
//   integer        fixed width; bool is a u8, decoded as != 0;
//   enum           one byte; a value past wire_max(E) is rejected;
//   std::string    u16 length + bytes;
//   blob           std::vector<std::uint8_t>: u32 length + bytes;
//                  encode_into refuses one over kMaxRpcPayload;
//   std::vector<E> u32 count + entries, E being a field list without a tag;
//                  a count the remaining bytes cannot hold at the encoded
//                  size of a default E each is rejected before any storage
//                  is reserved;
//   counted(n, a)  the first n entries of the inline array a, where n is a
//                  field listed earlier; n past the array's extent is
//                  refused both ways.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/wire.h"

namespace finelb::net {

/// Largest RPC args/result blob: one datagram with header room to spare.
/// encode_into refuses (returns 0) anything larger.
constexpr std::size_t kMaxRpcPayload = 60 * 1024;

namespace codec {

/// The counted inline array field kind; build one with counted().
template <class Count, class Item, std::size_t N>
struct Counted {
  static constexpr std::size_t kExtent = N;
  Count& count;
  Item (&items)[N];
};

template <class Count, class Item, std::size_t N>
constexpr Counted<Count, Item, N> counted(Count& count, Item (&items)[N]) {
  return {count, items};
}

template <class T>
struct IsVector : std::false_type {};
template <class E>
struct IsVector<std::vector<E>> : std::true_type {};

template <class T>
struct IsCounted : std::false_type {};
template <class Count, class Item, std::size_t N>
struct IsCounted<Counted<Count, Item, N>> : std::true_type {};

template <class T>
constexpr bool kScalar = std::is_integral_v<T> || std::is_enum_v<T>;

template <class Fields>
struct AllScalar;
template <class... F>
struct AllScalar<std::tuple<F...>>
    : std::bool_constant<(kScalar<std::remove_cvref_t<F>> && ...)> {};

/// True for a field list of scalars only: its encoded size is a constant.
template <class T>
constexpr bool kFixedSize =
    AllScalar<decltype(T::fields(std::declval<T&>()))>::value;

template <class T>
constexpr std::size_t size_of(const T& v) {
  if constexpr (kScalar<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return 2 + v.size();
  } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
    return 4 + v.size();
  } else if constexpr (IsVector<T>::value) {
    using E = typename T::value_type;
    if constexpr (kFixedSize<E>) {
      return 4 + v.size() * size_of(E{});
    } else {
      std::size_t n = 4;
      for (const E& e : v) n += size_of(e);
      return n;
    }
  } else if constexpr (IsCounted<T>::value) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < v.count && i < T::kExtent; ++i) {
      n += size_of(v.items[i]);
    }
    return n;
  } else {
    return std::apply(
        [](const auto&... f) { return (std::size_t{0} + ... + size_of(f)); },
        T::fields(v));
  }
}

template <class T>
void put(SpanWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "enum fields travel as one byte");
    w.u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_integral_v<T>) {
    w.append_le(static_cast<std::make_unsigned_t<T>>(v));
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
    if (v.size() > kMaxRpcPayload) {
      w.fail();
      return;
    }
    w.blob(v);
  } else if constexpr (IsVector<T>::value) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) put(w, e);
  } else if constexpr (IsCounted<T>::value) {
    if (v.count > T::kExtent) {
      w.fail();
      return;
    }
    for (std::size_t i = 0; i < v.count; ++i) put(w, v.items[i]);
  } else {
    std::apply([&w](const auto&... f) { (put(w, f), ...); }, T::fields(v));
  }
}

template <class T>
void get(TryReader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = r.u8() != 0;
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "enum fields travel as one byte");
    const std::uint8_t raw = r.u8();
    if (raw > static_cast<std::uint8_t>(wire_max(T{}))) {
      r.fail();
      return;
    }
    v = static_cast<T>(raw);
  } else if constexpr (std::is_integral_v<T>) {
    v = static_cast<T>(r.read_le<std::make_unsigned_t<T>>());
  } else if constexpr (std::is_same_v<T, std::string>) {
    r.str(v);
  } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
    r.blob(v);
  } else if constexpr (IsVector<T>::value) {
    using E = typename T::value_type;
    constexpr std::size_t kMinEntryBytes = size_of(E{});
    const std::uint32_t count = r.u32();
    // A count the remaining bytes cannot hold is garbage: reject it before
    // resizing, so a corrupted count cannot force a giant allocation.
    if (!r.ok() || count > r.remaining() / kMinEntryBytes) {
      r.fail();
      return;
    }
    v.resize(count);
    for (E& e : v) get(r, e);
  } else if constexpr (IsCounted<T>::value) {
    if (v.count > T::kExtent) {
      r.fail();
      return;
    }
    for (std::size_t i = 0; i < v.count; ++i) get(r, v.items[i]);
  } else {
    std::apply([&r](auto&&... f) { (get(r, f), ...); }, T::fields(v));
  }
}

}  // namespace codec

/// CRTP base: every codec surface of `Self`, derived from Self::kType and
/// Self::fields.
template <class Self>
struct Message {
  constexpr std::size_t encoded_size() const {
    return 1 + codec::size_of(self());
  }

  /// Serializes into `out`; returns bytes written, 0 if `out` is too small
  /// or a field exceeds its wire limit (nothing usable is written then).
  /// Never allocates or throws.
  std::size_t encode_into(std::span<std::uint8_t> out) const {
    SpanWriter w(out);
    w.u8(static_cast<std::uint8_t>(Self::kType));
    codec::put(w, self());
    return w.ok() ? w.size() : 0;
  }

  /// Non-throwing decode; false on a wrong tag or malformed input, leaving
  /// `out` unspecified.
  static bool try_decode(std::span<const std::uint8_t> data, Self& out) {
    TryReader r(data);
    if (r.u8() != static_cast<std::uint8_t>(Self::kType) || !r.ok()) {
      return false;
    }
    codec::get(r, out);
    return r.ok();
  }

  std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> out(encoded_size());
    FINELB_CHECK(encode_into(out) == out.size(),
                 "message exceeds a wire-format limit");
    return out;
  }

  /// Throwing facade over try_decode.
  static Self decode(std::span<const std::uint8_t> data) {
    Self out;
    FINELB_CHECK(try_decode(data, out), "malformed datagram");
    return out;
  }

 private:
  constexpr const Self& self() const {
    return static_cast<const Self&>(*this);
  }
};

}  // namespace finelb::net
