// Network: owner of all devices and links in a simulation, plus lookup
// helpers used by topology builders, tests, and failure injection.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "sim/arena.h"
#include "sim/device.h"
#include "sim/link.h"
#include "sim/simulator.h"

namespace portland::sim {

class Network {
 public:
  explicit Network(std::uint64_t seed = 1, Simulator::Options sim_options = {})
      : sim_(sim_options), rng_(seed) {}

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Constructs a device of type T in place. T's first constructor argument
  /// must be Simulator&. Devices live in the arena: contiguous storage, no
  /// per-object malloc, destroyed in reverse creation order while the
  /// simulator is still alive.
  template <typename T, typename... Args>
  T& add_device(Args&&... args) {
    T* dev = arena_.create<T>(sim_, std::forward<Args>(args)...);
    dev->set_flight_recorder(flight_recorder_);
    dev->set_convergence_monitor(convergence_monitor_);
    by_name_[dev->name()] = dev;
    devices_.push_back(dev);
    return *dev;
  }

  /// Bulk reservation before topology construction: pre-sizes the device
  /// and link vectors, the name index, and (when `arena_bytes` > 0) a
  /// single contiguous arena chunk large enough for the whole topology.
  void reserve(std::size_t devices, std::size_t links,
               std::size_t arena_bytes = 0) {
    devices_.reserve(devices);
    links_.reserve(links);
    by_name_.reserve(devices);
    arena_.reserve(arena_bytes, devices + links);
  }

  /// Attaches (or detaches, with nullptr) a flight recorder to every
  /// current and future device. The recorder outlives the network in
  /// every fabric (the fabric owns both).
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    flight_recorder_ = recorder;
    for (Device* dev : devices_) dev->set_flight_recorder(recorder);
  }
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const {
    return flight_recorder_;
  }

  /// Attaches (or detaches, with nullptr) a convergence monitor to every
  /// current and future device (same ownership story as the recorder).
  void set_convergence_monitor(obs::ConvergenceMonitor* monitor) {
    convergence_monitor_ = monitor;
    for (Device* dev : devices_) dev->set_convergence_monitor(monitor);
  }
  [[nodiscard]] obs::ConvergenceMonitor* convergence_monitor() const {
    return convergence_monitor_;
  }

  /// Wires port `pa` of `a` to port `pb` of `b`.
  Link& connect(Device& a, PortId pa, Device& b, PortId pb,
                Link::Config config = {});

  /// Installs (or clears, with {}) an observation tap invoked on every
  /// frame delivery network-wide (see FrameTap: the soaks' independent
  /// delivery trace). Zero cost when unset. With a sharded simulator and
  /// >1 worker the tap runs concurrently from shard threads — it must do
  /// its own locking.
  void set_frame_tap(FrameTap tap) { frame_tap_ = std::move(tap); }

  /// Permanently takes `link` down and detaches it from both endpoint
  /// ports, freeing them for re-wiring (VM migration re-attachment).
  void disconnect(Link& link);

  /// Calls Device::start() on every device (protocols arm their timers).
  void start_all();

  [[nodiscard]] const std::vector<Device*>& devices() const {
    return devices_;
  }
  [[nodiscard]] const std::vector<Link*>& links() const { return links_; }

  /// The arena backing every device and link (bytes accounting for the
  /// memory benches).
  [[nodiscard]] const Arena& arena() const { return arena_; }

  /// Finds a device by name; nullptr if absent.
  [[nodiscard]] Device* find_device(const std::string& name) const;

  /// Finds the link between two named devices; nullptr if absent.
  [[nodiscard]] Link* find_link(const Device& a, const Device& b) const;

 private:
  // Declaration order is destruction-critical: arena_ is declared after
  // sim_ so device/link destructors (which cancel timers) run while the
  // simulator is still alive.
  Simulator sim_;
  Rng rng_;
  FrameTap frame_tap_;
  obs::FlightRecorder* flight_recorder_ = nullptr;
  obs::ConvergenceMonitor* convergence_monitor_ = nullptr;
  Arena arena_;
  std::vector<Device*> devices_;
  std::vector<Link*> links_;
  std::unordered_map<std::string, Device*> by_name_;
};

}  // namespace portland::sim
