// Seeded, dependency-free mutation of a valid encoding, for the tests that
// prove a decoder fails safe on bytes PortLand was not built for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"

namespace portland {

/// Calls `feed` on `valid` truncated at every byte (the empty prefix and
/// the whole encoding included), then on 2,000 copies of it with one to
/// three bytes flipped at positions drawn from `rng`.
template <typename Fn>
void for_each_mutation(const std::vector<std::uint8_t>& valid, Rng& rng,
                       Fn&& feed) {
  for (std::size_t n = 0; n <= valid.size(); ++n) {
    feed(std::span(valid).first(n));
  }
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> bytes = valid;
    for (std::uint64_t flips = 1 + rng.next_below(3); flips > 0; --flips) {
      bytes[rng.next_below(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    feed(std::span<const std::uint8_t>(bytes));
  }
}

}  // namespace portland
