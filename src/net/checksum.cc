#include "net/checksum.h"

namespace portland::net {

namespace {
/// Folds the carries back in and inverts (RFC 1071 §2).
std::uint16_t fold_and_invert(std::uint64_t s) {
  while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
  return static_cast<std::uint16_t>(~s & 0xFFFF);
}
}  // namespace

void ChecksumAccumulator::add_bytes(std::span<const std::uint8_t> data) {
  for (const std::uint8_t b : data) {
    if (odd_) {
      sum_ += b;  // low byte of the current 16-bit word
    } else {
      sum_ += static_cast<std::uint64_t>(b) << 8;  // high byte
    }
    odd_ = !odd_;
  }
}

void ChecksumAccumulator::add_u16(std::uint16_t v) {
  const std::uint8_t bytes[2] = {static_cast<std::uint8_t>(v >> 8),
                                 static_cast<std::uint8_t>(v)};
  add_bytes(bytes);
}

void ChecksumAccumulator::add_u32(std::uint32_t v) {
  add_u16(static_cast<std::uint16_t>(v >> 16));
  add_u16(static_cast<std::uint16_t>(v));
}

std::uint16_t ChecksumAccumulator::finish() const {
  return fold_and_invert(sum_);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  // Whole big-endian 16-bit words, then an odd trailing byte as the high
  // half of a zero-padded word.
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint64_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) sum += static_cast<std::uint64_t>(data[i]) << 8;
  return fold_and_invert(sum);
}

std::uint16_t l4_checksum(Ipv4Address src, Ipv4Address dst,
                          std::uint8_t protocol,
                          std::span<const std::uint8_t> segment) {
  ChecksumAccumulator acc;
  acc.add_u32(src.value());
  acc.add_u32(dst.value());
  acc.add_u16(protocol);
  acc.add_u16(static_cast<std::uint16_t>(segment.size()));
  acc.add_bytes(segment);
  return acc.finish();
}

}  // namespace portland::net
