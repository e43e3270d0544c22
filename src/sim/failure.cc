#include "sim/failure.h"

namespace portland::sim {

void FailureInjector::fail_link_at(Link& link, SimTime t) {
  ++injected_;
  net_->sim().at(t, [&link] { link.set_up(false); });
}

void FailureInjector::repair_link_at(Link& link, SimTime t) {
  net_->sim().at(t, [&link] { link.set_up(true); });
}

void FailureInjector::crash_device_at(Device& device, SimTime t) {
  ++injected_;
  net_->sim().at(t, [this, &device] {
    for (const auto& link : net_->links()) {
      if (&link->device(0) == &device || &link->device(1) == &device) {
        link->set_up(false);
      }
    }
  });
}

std::vector<Link*> FailureInjector::fail_random_links_at(
    const std::vector<Link*>& candidates, std::size_t count, SimTime t,
    Rng& rng) {
  const std::vector<std::size_t> picks =
      rng.sample_indices(candidates.size(), count);
  std::vector<Link*> chosen;
  chosen.reserve(count);
  for (const std::size_t i : picks) {
    chosen.push_back(candidates[i]);
    fail_link_at(*candidates[i], t);
  }
  return chosen;
}

}  // namespace portland::sim
