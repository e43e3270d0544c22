// Baseline conventional Ethernet switch: flat MAC learning, flooding for
// unknown/broadcast destinations, and (optionally) spanning tree for loop
// avoidance. This is the "layer 2 status quo" PortLand's motivation
// compares against:
//   * forwarding state grows with the number of hosts (E5),
//   * every ARP is a fabric-wide broadcast (E8),
//   * STP blocks all redundant fat-tree paths and reconverges in tens of
//     seconds after a failure (E8), versus PortLand's ~tens of ms.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/mac_address.h"
#include "l2/stp.h"
#include "sim/device.h"

namespace portland::l2 {

class LearningSwitch : public sim::Device {
 public:
  struct Config {
    StpConfig stp;
    bool stp_enabled = true;
    SimDuration mac_aging = seconds(300);
  };

  LearningSwitch(sim::Simulator& sim, std::string name, std::size_t num_ports,
                 std::uint64_t bridge_id, Config config);

  void start() override;
  void handle_frame(sim::PortId in_port, const sim::FramePtr& frame) override;
  void handle_link_status(sim::PortId port, bool up) override;

  // --- inspection --------------------------------------------------------
  [[nodiscard]] std::uint64_t bridge_id() const { return bridge_id_; }
  [[nodiscard]] bool believes_root() const { return root_ == bridge_id_; }
  [[nodiscard]] std::uint64_t root_id() const { return root_; }
  [[nodiscard]] PortRole port_role(sim::PortId p) const {
    return ports_[p].role;
  }
  [[nodiscard]] PortState port_state(sim::PortId p) const {
    return ports_[p].state;
  }
  /// Flat forwarding-table size — the E5 comparison against PMAC state.
  [[nodiscard]] std::size_t mac_table_size() const { return mac_table_.size(); }
  [[nodiscard]] std::uint64_t topology_changes() const {
    return topology_changes_;
  }

 private:
  struct PortInfo {
    // Starts kDisabled so the first recompute() performs a real role
    // transition (and thus the listening -> forwarding walk) on every
    // connected port.
    PortRole role = PortRole::kDisabled;
    PortState state = PortState::kBlocking;
    std::optional<Bpdu> best;
    SimTime best_received_at = 0;
    std::uint64_t state_generation = 0;  // cancels stale transitions
  };
  struct MacEntry {
    sim::PortId port = 0;
    SimTime learned_at = 0;
  };

  void on_bpdu(sim::PortId port, const Bpdu& bpdu);
  void recompute();
  void set_port(sim::PortId p, PortRole role);
  void advance_state(sim::PortId p, std::uint64_t generation);
  void hello_tick();
  void age_tick();
  void forward_data(sim::PortId in_port, const sim::FramePtr& frame);
  [[nodiscard]] Bpdu my_advertisement(sim::PortId p) const;

  std::uint64_t bridge_id_;
  Config config_;
  std::vector<PortInfo> ports_;
  std::uint64_t root_;
  std::uint32_t root_cost_ = 0;
  std::optional<sim::PortId> root_port_;
  std::unordered_map<MacAddress, MacEntry> mac_table_;
  sim::PeriodicTimer hello_timer_;
  sim::PeriodicTimer age_timer_;
  std::uint64_t topology_changes_ = 0;
};

}  // namespace portland::l2
