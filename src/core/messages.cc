#include "core/messages.h"

#include <array>
#include <utility>

#include "common/byte_io.h"
#include "net/ethernet.h"
#include "sim/frame.h"

namespace portland::core {

namespace {

// The two directions of a message walk. Each is its own type, so a walk
// compiles to straight-line code for its direction. A field is a nested
// message (walked in place), an address with its own wire form, or a
// bool, enum or unsigned integer at its natural width.

/// Writes the fields a walk names. Walks take their message by non-const
/// reference; an encoder only reads them.
class Encoder {
 public:
  explicit Encoder(ByteWriter& w) : w_(w) {}

  template <class... T>
  void operator()(T&... v) {
    (put(v), ...);
  }
  /// u16 count, then each element.
  template <class T>
  void list(std::vector<T>& v) {
    w_.u16(static_cast<std::uint16_t>(v.size()));
    for (T& e : v) put(e);
  }
  /// u32 count, then the bytes in bulk.
  void blob(const std::vector<std::uint8_t>& v) {
    w_.u32(static_cast<std::uint32_t>(v.size()));
    w_.bytes(v);
  }
  void check(bool) {}

 private:
  template <class T>
  void put(T& v) {
    if constexpr (requires { v.walk(*this); }) {
      v.walk(*this);
    } else if constexpr (requires { v.serialize(w_); }) {
      v.serialize(w_);
    } else if constexpr (sizeof(T) == 1) {
      w_.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (sizeof(T) == 2) {
      w_.u16(static_cast<std::uint16_t>(v));
    } else if constexpr (sizeof(T) == 4) {
      w_.u32(static_cast<std::uint32_t>(v));
    } else {
      w_.u64(static_cast<std::uint64_t>(v));
    }
  }

  ByteWriter& w_;
};

/// Assigns the fields a walk names; the reader latches failed on the
/// first short read or refused check.
class Decoder {
 public:
  explicit Decoder(ByteReader& r) : r_(r) {}

  template <class... T>
  void operator()(T&... v) {
    (get(v), ...);
  }
  template <class T>
  void list(std::vector<T>& v) {
    const std::uint16_t n = r_.u16();
    v.clear();
    for (std::uint16_t i = 0; i < n && r_.ok(); ++i) get(v.emplace_back());
  }
  void blob(std::vector<std::uint8_t>& v) {
    const auto view = r_.view(r_.u32());
    v.assign(view.begin(), view.end());
  }
  void check(bool ok) {
    if (!ok) r_.fail();
  }

 private:
  template <class T>
  void get(T& v) {
    if constexpr (requires { v.walk(*this); }) {
      v.walk(*this);
    } else if constexpr (requires { T::deserialize(r_); }) {
      v = T::deserialize(r_);
    } else if constexpr (std::is_same_v<T, bool>) {
      v = r_.u8() != 0;
    } else if constexpr (sizeof(T) == 1) {
      v = static_cast<T>(r_.u8());
    } else if constexpr (sizeof(T) == 2) {
      v = static_cast<T>(r_.u16());
    } else if constexpr (sizeof(T) == 4) {
      v = static_cast<T>(r_.u32());
    } else {
      v = static_cast<T>(r_.u64());
    }
  }

  ByteReader& r_;
};

using BodyDecoder = void (*)(ControlBody&, Decoder&);

/// Per ControlBody index: build that alternative in place and walk it.
template <std::size_t... I>
constexpr std::array<BodyDecoder, sizeof...(I)> body_decoders(
    std::index_sequence<I...>) {
  return {[](ControlBody& body, Decoder& dec) {
    body.emplace<I>().walk(dec);
  }...};
}

template <std::size_t... I>
constexpr std::array<const char*, sizeof...(I)> type_names(
    std::index_sequence<I...>) {
  return {std::variant_alternative_t<I, ControlBody>::kName...};
}

constexpr auto kBodyDecoders =
    body_decoders(std::make_index_sequence<kControlTypeCount>());
constexpr auto kTypeNames =
    type_names(std::make_index_sequence<kControlTypeCount>());

}  // namespace

// ---------------------------------------------------------------------------
// LDP frames
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> LdpMessage::to_frame() const {
  // Every switch port sends an LDM per period, so the buffer comes from
  // the retired-frame pool rather than the heap.
  std::vector<std::uint8_t> out = sim::acquire_frame_bytes();
  out.reserve(net::EthernetHeader::kSize + 24);
  ByteWriter w(out);
  // LDP frames are link-local: broadcast dst, synthetic src derived from
  // the switch id (switches have no real MAC of their own).
  net::EthernetHeader eth{MacAddress::broadcast(),
                          MacAddress::from_u64(from.switch_id & 0xFFFFFFFFFFFF),
                          net::to_u16(net::EtherType::kLdp)};
  eth.serialize(w);
  Encoder enc(w);
  const_cast<LdpMessage&>(*this).walk(enc);
  return out;
}

std::optional<LdpMessage> LdpMessage::from_frame(
    std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  const net::EthernetHeader eth = net::EthernetHeader::deserialize(r);
  if (!r.ok() || !eth.is(net::EtherType::kLdp)) return std::nullopt;
  LdpMessage m;
  Decoder dec(r);
  m.walk(dec);
  if (!r.ok()) return std::nullopt;
  return m;
}

// ---------------------------------------------------------------------------
// Control messages
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> serialize_control(const ControlMessage& msg) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  Encoder enc(w);
  auto tag = static_cast<std::uint8_t>(msg.body.index() + 1);
  enc(msg.sender, tag);
  std::visit([&](auto& body) { body.walk(enc); },
             const_cast<ControlBody&>(msg.body));
  return out;
}

std::optional<ControlMessage> parse_control(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  Decoder dec(r);
  ControlMessage msg;
  std::uint8_t tag = 0;
  dec(msg.sender, tag);
  if (tag < 1 || tag > kControlTypeCount) return std::nullopt;
  kBodyDecoders[tag - 1](msg.body, dec);
  if (!r.ok() || r.remaining_size() != 0) return std::nullopt;
  return msg;
}

const char* control_type_name(std::size_t index) { return kTypeNames[index]; }

const char* control_type_name(const ControlBody& body) {
  return control_type_name(body.index());
}

}  // namespace portland::core
