#include "net/ipv4.h"

#include <array>

#include "net/checksum.h"

namespace portland::net {

void Ipv4Header::serialize(ByteWriter& w) const {
  // Built on the stack and checksummed in place: no heap buffer per frame.
  std::array<std::uint8_t, kSize> hdr{};
  const auto put16 = [&hdr](std::size_t at, std::uint16_t v) {
    hdr[at] = static_cast<std::uint8_t>(v >> 8);
    hdr[at + 1] = static_cast<std::uint8_t>(v);
  };
  hdr[0] = 0x45;  // version 4, IHL 5
  hdr[1] = dscp;
  put16(2, total_length);
  put16(4, identification);
  // Bytes 6-7, flags/fragment offset, stay 0: never fragmented in this
  // fabric. Bytes 10-11, the checksum, are 0 while it is computed.
  hdr[8] = ttl;
  hdr[9] = protocol;
  put16(12, static_cast<std::uint16_t>(src.value() >> 16));
  put16(14, static_cast<std::uint16_t>(src.value()));
  put16(16, static_cast<std::uint16_t>(dst.value() >> 16));
  put16(18, static_cast<std::uint16_t>(dst.value()));
  put16(10, internet_checksum(hdr));
  w.bytes(hdr);
}

bool Ipv4Header::deserialize(ByteReader& r, Ipv4Header* out) {
  if (r.remaining_size() < kSize) return false;
  const std::span<const std::uint8_t> raw = r.remaining().subspan(0, kSize);

  const std::uint8_t ver_ihl = r.u8();
  out->dscp = r.u8();
  out->total_length = r.u16();
  out->identification = r.u16();
  const std::uint16_t flags_frag = r.u16();
  out->ttl = r.u8();
  out->protocol = r.u8();
  const std::uint16_t wire_csum = r.u16();
  out->src = Ipv4Address::deserialize(r);
  out->dst = Ipv4Address::deserialize(r);
  if (!r.ok()) return false;
  if (ver_ihl != 0x45) return false;
  if ((flags_frag & 0x3FFF) != 0) return false;  // no fragments
  (void)wire_csum;
  // Re-checksumming the raw header must yield zero when intact.
  if (internet_checksum(raw) != 0) return false;
  return true;
}

}  // namespace portland::net
