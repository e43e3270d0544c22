#include "core/locator.h"

#include "common/strings.h"

namespace portland::core {

const char* to_string(Level level) {
  switch (level) {
    case Level::kUnknown:
      return "unknown";
    case Level::kEdge:
      return "edge";
    case Level::kAggregation:
      return "agg";
    case Level::kCore:
      return "core";
  }
  return "?";
}

std::string SwitchLocator::to_string() const {
  return str_format("sw(%llu,%s,pod=%u,pos=%u)",
                    static_cast<unsigned long long>(switch_id),
                    portland::core::to_string(level), pod, position);
}

}  // namespace portland::core
