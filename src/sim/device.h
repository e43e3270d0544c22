// Device: base class for everything with ports — hosts, PortLand switches,
// baseline Ethernet switches.
//
// A device owns a vector of ports; each port may be attached to one side of
// a Link. Frames are sent with `send()` and arrive via the `handle_frame()`
// virtual. Link status changes (carrier loss) arrive via
// `handle_link_status()`; PortLand ignores carrier by default and relies on
// LDP timeouts, matching the paper, but the hook enables the fast-detect
// ablation.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/frame.h"
#include "sim/simulator.h"

namespace portland::obs {
class ConvergenceMonitor;
class FlightRecorder;
enum class HopEvent : std::uint8_t;
enum class DropReason : std::uint8_t;
}  // namespace portland::obs

namespace portland::sim {

class Link;

using PortId = std::size_t;

class Device {
 public:
  Device(Simulator& sim, std::string name)
      : sim_(&sim), name_(std::move(name)) {}
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// A frame arrived on `in_port`.
  virtual void handle_frame(PortId in_port, const FramePtr& frame) = 0;

  /// Carrier status of `port` changed (link went up/down).
  virtual void handle_link_status(PortId port, bool up) {
    (void)port;
    (void)up;
  }

  /// Called by Network after all devices and links exist; protocols start
  /// their timers here.
  virtual void start() {}

  /// Checkpoint hooks: serialize/rebuild everything beyond construction —
  /// tables, caches, pending timers, protocol state. The base counters
  /// are saved by the fabric around these calls, so a device with no
  /// state beyond its counters needs no override. Restores run inside a
  /// ShardGuard for the device's shard, so re-armed timers land on the
  /// owning shard's queue.
  virtual void save_state(SnapshotWriter& w) const { (void)w; }
  virtual void restore_state(SnapshotReader& r) { (void)r; }

  /// Adds one port; returns its id (ids are dense, starting at 0).
  PortId add_port();

  /// Adds `n` ports; returns the id of the first.
  PortId add_ports(std::size_t n);

  [[nodiscard]] std::size_t port_count() const { return ports_.size(); }
  [[nodiscard]] bool port_connected(PortId port) const;
  /// True when the port has a link and that link is passing traffic.
  [[nodiscard]] bool port_up(PortId port) const;
  [[nodiscard]] Link* port_link(PortId port) const;

  /// Transmits `frame` out of `port`. Silently drops (and counts) if the
  /// port is unconnected or the link is down — exactly like real hardware.
  void send(PortId port, const FramePtr& frame);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Simulator& sim() const { return *sim_; }

  /// Event shard this device's handlers run on (parallel engine). Fabric
  /// wiring assigns shards before start(); defaults to 0. A one-shard
  /// engine folds every id to shard 0.
  void set_shard(ShardId shard) { shard_ = shard; }
  [[nodiscard]] ShardId shard() const { return shard_; }

  [[nodiscard]] CounterSet& counters() { return counters_; }
  [[nodiscard]] const CounterSet& counters() const { return counters_; }

  /// Used by Link during wiring. `side` is this device's side (0 or 1).
  void attach_link(PortId port, Link* link, int side);

  /// Detaches the link from `port` (used when re-wiring, e.g. VM
  /// migration). The port may be re-attached later.
  void detach_link(PortId port);

  // --- flight recorder (nullptr = tracing off, the only hot-path cost) ---
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const {
    return recorder_;
  }

  /// Appends a hop record for `frame` on this device's shard; no-op when
  /// tracing is off or the frame carries no trace id. `level` rides along
  /// to the convergence monitor's path check: a switch's LDP level on its
  /// kIngress hop (only PortlandSwitch sets it).
  void record_hop(obs::HopEvent event, const FramePtr& frame, PortId port,
                  std::uint64_t detail = 0, std::uint8_t level = 0) const;

  /// Counts a drop by reason (drops are recorded even for untraced
  /// frames); no-op when tracing is off.
  void record_drop(obs::DropReason reason, const FramePtr& frame,
                   PortId port = 0) const;

  // --- convergence monitor (nullptr = off; fed from inside record_hop /
  // record_drop, so it adds no hot-path branch beyond the recorder's) ---
  void set_convergence_monitor(obs::ConvergenceMonitor* monitor) {
    monitor_ = monitor;
  }
  [[nodiscard]] obs::ConvergenceMonitor* convergence_monitor() const {
    return monitor_;
  }

 private:
  /// Assigns `frame` a trace id on first transmit (send() calls this only
  /// when a recorder is attached).
  void trace_on_send(const FramePtr& frame);

  struct PortSlot {
    Link* link = nullptr;
    int side = 0;
  };

  Simulator* sim_;
  std::string name_;
  ShardId shard_ = 0;
  obs::FlightRecorder* recorder_ = nullptr;
  obs::ConvergenceMonitor* monitor_ = nullptr;
  std::vector<PortSlot> ports_;
  CounterSet counters_;
};

}  // namespace portland::sim
