// Switch identity and location as discovered by LDP.
#pragma once

#include <cstdint>
#include <string>

namespace portland::core {

/// Tree level of a switch. LDP starts every switch at kUnknown and settles
/// on one of the other values (paper §3.4).
enum class Level : std::uint8_t {
  kUnknown = 0,
  kEdge = 1,
  kAggregation = 2,
  kCore = 3,
};

[[nodiscard]] const char* to_string(Level level);

/// Sentinel values for not-yet-discovered location fields.
constexpr std::uint16_t kUnknownPod = 0xFFFF;
constexpr std::uint8_t kUnknownPosition = 0xFF;

using SwitchId = std::uint64_t;
constexpr SwitchId kInvalidSwitchId = 0;

/// A switch's discovered location. Equality of (pod, position) identifies
/// a location; `switch_id` is the stable hardware identity.
struct SwitchLocator {
  SwitchId switch_id = kInvalidSwitchId;
  Level level = Level::kUnknown;
  std::uint16_t pod = kUnknownPod;
  std::uint8_t position = kUnknownPosition;

  [[nodiscard]] bool located() const {
    switch (level) {
      case Level::kUnknown:
        return false;
      case Level::kCore:
        return true;  // cores have no pod/position
      case Level::kAggregation:
        return pod != kUnknownPod;
      case Level::kEdge:
        return pod != kUnknownPod && position != kUnknownPosition;
    }
    return false;
  }

  [[nodiscard]] std::string to_string() const;

  /// Wire layout in LDP frames and control messages (core/messages.h).
  /// A decode refuses a level above kCore.
  template <class Io>
  void walk(Io& io) {
    io(switch_id, level, pod, position);
    io.check(level <= Level::kCore);
  }

  friend bool operator==(const SwitchLocator&, const SwitchLocator&) = default;
};

}  // namespace portland::core
