// Failure injection: scheduled link failures/repairs and whole-switch
// crashes, replacing the paper's physical cable pulls.
#pragma once

#include <vector>

#include "common/random.h"
#include "sim/network.h"

namespace portland::sim {

class FailureInjector {
 public:
  explicit FailureInjector(Network& net) : net_(&net) {}

  /// Takes `link` down at time `t` (bidirectional).
  void fail_link_at(Link& link, SimTime t);

  /// Brings `link` back up at time `t`.
  void repair_link_at(Link& link, SimTime t);

  /// Takes all of `device`'s links down at time `t` (switch crash).
  void crash_device_at(Device& device, SimTime t);

  /// Picks `count` distinct links uniformly from `candidates` and fails
  /// them all at time `t`. Returns the chosen links. Throws
  /// std::invalid_argument when count exceeds the candidates.
  std::vector<Link*> fail_random_links_at(const std::vector<Link*>& candidates,
                                          std::size_t count, SimTime t,
                                          Rng& rng);

  /// Number of failure events injected so far.
  [[nodiscard]] std::size_t injected() const { return injected_; }

 private:
  Network* net_;
  std::size_t injected_ = 0;
};

}  // namespace portland::sim
