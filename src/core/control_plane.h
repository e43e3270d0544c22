// The out-of-band control network connecting every switch to the fabric
// manager (paper §3.1: "a separate control network is feasible at modest
// cost"). Modeled as a message channel with configurable one-way latency.
//
// Every message is serialized to bytes on send and parsed on delivery —
// both for fidelity and so the control-overhead experiment (E7) counts
// true message and byte volumes, broken down by message type.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "common/units.h"
#include "core/messages.h"
#include "sim/simulator.h"

namespace portland::core {

class ControlPlane : public sim::DataEventOwner {
 public:
  using Handler = std::function<void(const ControlMessage&)>;

  ControlPlane(sim::Simulator& sim, SimDuration one_way_latency)
      : sim_(&sim), latency_(one_way_latency) {
    // Deterministic registration: the control plane is constructed at the
    // same point of fabric setup in any process, so its data-owner id
    // resolves serialized in-flight control messages across a restore.
    sim_->register_data_owner(this);
  }

  /// Registers the endpoint for control address `id` (a switch id or
  /// kFabricManagerId). Re-registering replaces the handler.
  void register_endpoint(SwitchId id, Handler handler) {
    endpoints_[id] = std::move(handler);
  }

  void unregister_endpoint(SwitchId id) { endpoints_.erase(id); }

  /// Pre-sizes the endpoint tables for the expected switch count (plus
  /// the fabric manager), avoiding rehash churn during fabric wiring.
  void reserve(std::size_t endpoints) {
    endpoints_.reserve(endpoints);
    shard_hints_.reserve(endpoints);
  }

  /// Tells the control plane which event shard `id`'s handler runs on, so
  /// deliveries land on the owning shard in parallel runs. Unhinted
  /// endpoints fall back to the (serialized) barrier queue. Call during
  /// fabric wiring, never mid-run.
  void set_endpoint_shard(SwitchId id, sim::ShardId shard) {
    shard_hints_[id] = shard;
  }

  /// Sends `msg` to endpoint `to`; delivered after the one-way latency
  /// plus `extra_delay` (used to model fabric-manager processing and
  /// per-switch flow-installation costs). Messages to unknown endpoints
  /// are counted and dropped.
  void send(SwitchId to, const ControlMessage& msg,
            SimDuration extra_delay = 0);

  /// Delivers one in-flight control message (arg = destination id, bytes
  /// = the serialized message). Scheduled by send(); serializable, so
  /// pending control traffic survives a snapshot.
  void execute_data_event(std::uint32_t kind, std::uint64_t arg,
                          const sim::FramePtr& frame,
                          const sim::FrameBytes& bytes) override;

  /// Checkpoint: the per-type counts. Handlers and shard hints are
  /// construction-time wiring and are not serialized.
  void save_state(sim::SnapshotWriter& w) const;
  void restore_state(sim::SnapshotReader& r);

  /// Totals over every control type.
  [[nodiscard]] std::uint64_t messages_sent() const {
    return read(type_messages_, {});
  }
  [[nodiscard]] std::uint64_t bytes_sent() const {
    return read(type_bytes_, {});
  }

  /// Messages and bytes sent of the control type named `type` (a
  /// control_type_name, e.g. "arp_query"); zero for an unknown type.
  [[nodiscard]] std::uint64_t messages_of(std::string_view type) const {
    return read(type_messages_, type);
  }
  [[nodiscard]] std::uint64_t bytes_of(std::string_view type) const {
    return read(type_bytes_, type);
  }

  /// Messages dropped for want of an endpoint, and ones that failed to
  /// parse on delivery.
  [[nodiscard]] std::uint64_t undeliverable() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return undeliverable_;
  }
  [[nodiscard]] std::uint64_t parse_errors() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return parse_errors_;
  }

  [[nodiscard]] SimDuration latency() const { return latency_; }

 private:
  sim::Simulator* sim_;
  SimDuration latency_;
  std::unordered_map<SwitchId, Handler> endpoints_;
  std::unordered_map<SwitchId, sim::ShardId> shard_hints_;
  /// Guards the counts: switches on different shards send concurrently
  /// during parallel windows. Uncontended on a one-shard engine.
  mutable std::mutex mutex_;
  using TypeCounts = std::array<std::uint64_t, kControlTypeCount>;
  /// The count of control type `type`; an empty `type` sums every type.
  [[nodiscard]] std::uint64_t read(const TypeCounts& counts,
                                   std::string_view type) const;

  /// Indexed by ControlBody alternative.
  TypeCounts type_messages_{};
  TypeCounts type_bytes_{};
  std::uint64_t undeliverable_ = 0;
  std::uint64_t parse_errors_ = 0;
};

}  // namespace portland::core
