// Bounds-checked big-endian (network byte order) byte readers and writers.
//
// Every wire format in this codebase (Ethernet, ARP, IPv4, UDP, TCP, LDP,
// fabric-manager control messages) serializes through these two classes so
// that framing bugs surface as explicit failures rather than memory errors.
//
// `ByteWriter` appends to a caller-owned std::vector<uint8_t>.
// `ByteReader` walks a borrowed span of bytes; all reads are checked and
// the reader latches into a failed state on the first out-of-bounds read
// (subsequent reads return zeros). Callers check `ok()` once at the end of
// parsing rather than after every field.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace portland {

namespace detail {

/// Host value -> network byte order (and back; the swap is symmetric).
inline std::uint16_t to_net(std::uint16_t v) {
  if constexpr (std::endian::native == std::endian::little) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_bswap16(v);
#else
    return static_cast<std::uint16_t>((v >> 8) | (v << 8));
#endif
  }
  return v;
}
inline std::uint32_t to_net(std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_bswap32(v);
#else
    return (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) |
           (v << 24);
#endif
  }
  return v;
}
inline std::uint64_t to_net(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_bswap64(v);
#else
    return (static_cast<std::uint64_t>(to_net(static_cast<std::uint32_t>(v)))
            << 32) |
           to_net(static_cast<std::uint32_t>(v >> 32));
#endif
  }
  return v;
}

}  // namespace detail

class ByteWriter {
 public:
  /// Appends to `out`; the vector must outlive the writer.
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v) { put(detail::to_net(v)); }
  void u32(std::uint32_t v) { put(detail::to_net(v)); }
  void u64(std::uint64_t v) { put(detail::to_net(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void bytes(std::span<const std::uint8_t> data) {
    out_->insert(out_->end(), data.begin(), data.end());
  }

  /// Writes a length-prefixed (u16) string.
  void str(const std::string& s);

  /// Number of bytes written so far (size of the backing vector).
  [[nodiscard]] std::size_t size() const { return out_->size(); }

 private:
  template <typename T>
  void put(T net_order) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&net_order);
    out_->insert(out_->end(), p, p + sizeof(T));
  }

  std::vector<std::uint8_t>* out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    if (!check(1)) return 0;
    return data_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16() { return get<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  /// Reads exactly `n` bytes into `out`; on underflow fails and zero-fills.
  void bytes(std::span<std::uint8_t> out);

  /// Reads a length-prefixed (u16) string.
  [[nodiscard]] std::string str();

  /// Reads a length-prefixed (u16) string as a view into the buffer
  /// (valid while the buffer lives). Empty view on underflow.
  [[nodiscard]] std::string_view str_view();

  /// Skips `n` bytes.
  void skip(std::size_t n) {
    if (check(n)) pos_ += n;
  }

  /// Remaining unread bytes as a view (does not consume them).
  [[nodiscard]] std::span<const std::uint8_t> remaining() const {
    return data_.subspan(pos_);
  }

  /// Consumes and returns the remaining bytes as a view.
  [[nodiscard]] std::span<const std::uint8_t> take_remaining() {
    auto r = data_.subspan(pos_);
    pos_ = data_.size();
    return r;
  }

  /// Consumes exactly `n` bytes and returns them as a view (valid while
  /// the underlying buffer lives). Empty view + failed state on underflow.
  [[nodiscard]] std::span<const std::uint8_t> view(std::size_t n) {
    if (!check(n)) return {};
    auto r = data_.subspan(pos_, n);
    pos_ += n;
    return r;
  }

  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining_size() const { return data_.size() - pos_; }

  /// True if no read has run past the end of the buffer (nor fail()ed).
  [[nodiscard]] bool ok() const { return ok_; }

  /// Latches the failed state, for content a caller's own checks reject.
  void fail() { ok_ = false; }

 private:
  [[nodiscard]] bool check(std::size_t n) {
    if (!ok_ || pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  /// One bulk load + byte swap instead of a per-byte assembly loop —
  /// parse-heavy paths (frame decode, snapshot restore) live here.
  template <typename T>
  [[nodiscard]] T get() {
    if (!check(sizeof(T))) return 0;
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return detail::to_net(v);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace portland
