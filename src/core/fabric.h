// PortlandFabric: one-call construction of a complete PortLand deployment —
// a k-ary fat tree of PortlandSwitches, unmodified Hosts, the fabric
// manager, and the out-of-band control network — plus the convergence and
// failure-injection helpers every experiment uses.
//
// This is the library's main entry point:
//
//   core::PortlandFabric fabric({.k = 4, .seed = 42});
//   fabric.run_until_converged();
//   host::Host& a = fabric.host_at(0, 0, 0);
//   host::Host& b = fabric.host_at(3, 1, 1);
//   a.send_udp(b.ip(), 7000, 7001, payload);
//   fabric.sim().run_until(seconds(1));
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/config.h"
#include "core/control_plane.h"
#include "core/fabric_manager.h"
#include "core/portland_switch.h"
#include "host/host.h"
#include "obs/convergence_monitor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "sim/failure.h"
#include "sim/network.h"
#include "sim/snapshot.h"
#include "topo/fat_tree.h"

namespace portland::core {

class PortlandFabric {
 public:
  struct Options {
    int k = 4;
    std::uint64_t seed = 1;
    PortlandConfig config;
    sim::Link::Config host_link;
    sim::Link::Config fabric_link;
    host::HostConfig host_config;
    /// Host indices (FatTree numbering) to leave unattached — their edge
    /// ports stay free, e.g. as VM-migration targets.
    std::set<std::size_t> skip_host_indices;
    /// Cores wired per group (1..k/2; 0 = full k/2). Values below k/2
    /// build an oversubscribed multi-rooted tree — fewer core uplinks per
    /// aggregation switch — which PortLand must handle identically (the
    /// paper targets general multi-rooted trees, not only pristine fat
    /// trees). With c cores/group the oversubscription ratio is (k/2)/c.
    std::size_t cores_per_group = 0;
    /// `workers = kAutoWorkers`: pick the engine automatically — one
    /// shard on boxes with fewer than two hardware cores, otherwise one
    /// worker per shard capped at the core count
    /// (Simulator::resolve_auto_workers).
    static constexpr unsigned kAutoWorkers = ~0u;
    /// 0 (default): 1 shard (workers=0) — the engine runs as one shard on
    /// the calling thread, the (time, seq) stream of a serial event loop.
    /// >= 1: k+1 shards — one per pod plus one for cores + fabric manager
    /// — driven by this many worker threads. Any worker count schedules
    /// the identical event sequence (see Simulator). kAutoWorkers resolves
    /// per the auto policy above.
    unsigned workers = 0;
    /// Pooled-window threshold (Simulator::Options::parallel_min_events);
    /// 0 forces every window through the worker pool.
    std::uint32_t parallel_min_events = 128;
    /// Observability. Everything here is passive: enabling any of it
    /// cannot change the event schedule (Soak pins this).
    struct ObsOptions {
      /// Attach a FlightRecorder to every device (per-hop frame tracing).
      bool flight_recorder = false;
      /// Per-shard cap on distinct traced frames; 0 = unlimited.
      std::uint64_t trace_frames = 0;
      /// Per-shard hop-ring capacity.
      std::size_t ring_capacity = 4096;
      /// Attach an EngineTracer (wall-clock window/dispatch profiling).
      bool engine_trace = false;
      /// Attach a ConvergenceMonitor (per-failure reaction timelines and
      /// §3.5's per-packet path invariants). Implies flight_recorder: the
      /// monitor reads the recorder's hop/drop streams.
      bool convergence_monitor = false;
    } obs;
  };

  explicit PortlandFabric(Options options);

  // --- plumbing ----------------------------------------------------------
  [[nodiscard]] sim::Network& network() { return net_; }
  [[nodiscard]] sim::Simulator& sim() { return net_.sim(); }
  [[nodiscard]] ControlPlane& control() { return *control_; }
  [[nodiscard]] FabricManager& fabric_manager() { return *fm_; }
  [[nodiscard]] const topo::FatTree& tree() const { return tree_; }
  [[nodiscard]] sim::FailureInjector& failures() { return injector_; }
  [[nodiscard]] const Options& options() const { return options_; }

  // --- topology accessors --------------------------------------------------
  /// Host by FatTree index; nullptr if the index was skipped.
  [[nodiscard]] host::Host* host(std::size_t index) const;
  [[nodiscard]] host::Host& host_at(std::size_t pod, std::size_t edge,
                                    std::size_t port) const;
  [[nodiscard]] PortlandSwitch& edge_at(std::size_t pod,
                                        std::size_t pos) const;
  [[nodiscard]] PortlandSwitch& agg_at(std::size_t pod, std::size_t pos) const;
  [[nodiscard]] PortlandSwitch& core_at(std::size_t group,
                                        std::size_t member) const;
  [[nodiscard]] const std::vector<PortlandSwitch*>& switches() const {
    return switches_;
  }
  /// All attached hosts (skipped indices excluded).
  [[nodiscard]] const std::vector<host::Host*>& hosts() const {
    return hosts_;
  }
  /// The access link of host `index`; nullptr if skipped.
  [[nodiscard]] sim::Link* host_link(std::size_t index) const;
  [[nodiscard]] const std::vector<sim::Link*>& fabric_links() const {
    return fabric_links_;
  }

  /// The deterministic IP plan: host at (pod, edge, port) owns
  /// 10.pod.edge.(port+1).
  [[nodiscard]] static Ipv4Address ip_at(std::size_t pod, std::size_t edge,
                                         std::size_t port);

  // --- lifecycle helpers ---------------------------------------------------
  /// Runs the simulation until every switch has discovered its full
  /// location (level, pod, position), then has every host announce itself
  /// so the fabric manager's PMAC registry is complete. Returns false if
  /// discovery did not converge within `limit`.
  bool run_until_converged(SimDuration limit = seconds(5));

  [[nodiscard]] bool all_located() const;

  /// How the fabric answered one kill_random_links query.
  struct LinkKillAnswer {
    std::size_t links_killed = 0;   // victims the query drew
    std::uint64_t faults = 0;       // fault notifications the FM took
    std::uint64_t reroutes = 0;     // prune updates the FM sent
    std::size_t failed_links = 0;   // links the FM's graph holds failed
  };

  /// The link-failure what-if (E20, `scenario_cli --serve`): fails `count`
  /// distinct random fabric links at `fail_at`, runs to `until`, and reads
  /// back how the fabric manager reacted in between.
  LinkKillAnswer kill_random_links(std::size_t count, SimTime fail_at,
                                   SimTime until, Rng& rng);

  /// Sum of forwarding-state entries across all switches (E5).
  [[nodiscard]] std::size_t total_switch_state() const;

  /// Sum of counted forwarding-table bytes across all switches (E19).
  [[nodiscard]] PortlandSwitch::TableBytes total_table_bytes() const;

  // --- observability -------------------------------------------------------
  /// The attached flight recorder, or nullptr when Options::obs left it off.
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const {
    return recorder_.get();
  }
  /// The attached engine tracer, or nullptr.
  [[nodiscard]] obs::EngineTracer* engine_tracer() const {
    return tracer_.get();
  }
  /// The attached convergence monitor, or nullptr when Options::obs left
  /// it off.
  [[nodiscard]] obs::ConvergenceMonitor* convergence_monitor() const {
    return monitor_.get();
  }

  /// Captures one metrics snapshot (engine, parser, every device's
  /// counters, every link direction) into `registry` at the current sim
  /// time. Quiescent-only: call between run_until chunks, never from an
  /// event. Purely observational — drives no events, consumes no RNG.
  void snapshot_metrics(obs::MetricsRegistry& registry);

  // --- checkpoint/fork serving --------------------------------------------
  /// Serializes the complete simulation state — pending events, links,
  /// every device, the fabric manager, control plane, flight recorder —
  /// into `out`. Quiescent-only (between run_until chunks). Refuses
  /// (returns false, sets *error) if any pending event is a plain closure
  /// (barrier task / sim().after), since closures cannot serialize; a
  /// converged fabric between chunks has none. `extras` are app-level
  /// objects (traffic generators, scenario timers) appended to the image
  /// in span order.
  bool save_snapshot(std::vector<std::uint8_t>& out,
                     std::span<sim::Snapshotable* const> extras,
                     std::string* error = nullptr);
  bool save_snapshot(std::vector<std::uint8_t>& out,
                     std::string* error = nullptr) {
    return save_snapshot(out, {}, error);
  }

  /// Restores a save_snapshot image into this fabric. The fabric must
  /// have been constructed with the same k, seed, shard count, and
  /// topology options (host/link layout); any worker count >= 1 may
  /// restore another's image — the engine schedules the identical event
  /// sequence either way — while a workers=0 (1 shard) image needs a
  /// workers=0 fabric. A refused image (false + `error`) leaves the fabric
  /// fit only for another restore. Works
  /// both for in-memory forks (restore a warmed fabric back to the
  /// checkpoint) and fresh processes (construct the fabric, then restore;
  /// app callbacks installed by extras/hosts must be re-wired by the
  /// caller). `extras` must match the saving span's order.
  bool restore_snapshot(std::span<const std::uint8_t> image,
                        std::span<sim::Snapshotable* const> extras,
                        std::string* error = nullptr);
  bool restore_snapshot(std::span<const std::uint8_t> image,
                        std::string* error = nullptr) {
    return restore_snapshot(image, {}, error);
  }

  /// Wall time of each phase of the last restore_snapshot, in ns: the
  /// engine clear, the engine's events, links, switches, hosts, the
  /// fabric manager with the control plane and observability, and the
  /// app extras with the closing event census. Eight clock reads per
  /// restore and none per component; a refused image leaves the phases
  /// it did not reach at 0.
  struct RestorePhases {
    std::uint64_t clear_ns = 0;
    std::uint64_t engine_ns = 0;
    std::uint64_t links_ns = 0;
    std::uint64_t switches_ns = 0;
    std::uint64_t hosts_ns = 0;
    std::uint64_t fm_ns = 0;
    std::uint64_t extras_ns = 0;
  };
  [[nodiscard]] const RestorePhases& restore_phases() const {
    return restore_phases_;
  }

 private:
  /// The one checkpoint walk behind save_snapshot and restore_snapshot,
  /// in the direction `io` was built for.
  bool snapshot(sim::SnapshotIo& io,
                std::span<sim::Snapshotable* const> extras,
                std::string* error);

  Options options_;
  topo::FatTree tree_;
  sim::Network net_;
  std::unique_ptr<ControlPlane> control_;
  std::unique_ptr<FabricManager> fm_;

  std::vector<host::Host*> hosts_;                 // attached only
  std::vector<host::Host*> host_by_index_;         // nullptr where skipped
  std::vector<sim::Link*> host_link_by_index_;     // nullptr where skipped
  std::vector<PortlandSwitch*> edges_;
  std::vector<PortlandSwitch*> aggs_;
  std::vector<PortlandSwitch*> cores_;
  std::vector<PortlandSwitch*> switches_;
  std::vector<sim::Link*> fabric_links_;
  sim::FailureInjector injector_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<obs::EngineTracer> tracer_;
  std::unique_ptr<obs::ConvergenceMonitor> monitor_;
  RestorePhases restore_phases_;
};

}  // namespace portland::core
