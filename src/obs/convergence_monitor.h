// Convergence observatory: per-failure reaction timelines and online
// invariant checks, derived from the control-plane and flight-recorder
// event streams.
//
// The monitor subscribes to five control-plane signals — link state
// flips, LDP neighbor loss (failure *detection*), fabric-manager fault
// notifications (*notify*), prune installs (*reroute*) — plus the
// flight recorder's per-frame drop/deliver stream, and assembles one
// typed FailureTimeline per link failure:
//
//     link_down → detect → notify → reroute → recovered
//
// with sim-time deltas between stages and per-flow *blackhole windows*
// (first lost frame → first delivered frame per affected 5-tuple; the
// 5-tuple survives PMAC rewriting because PortLand only rewrites MACs).
//
// Writer model is the FlightRecorder's: devices append to their own
// shard's buffer, so each ShardBuf has exactly one writer thread per
// window; barrier-context writes (Link::set_up runs as a barrier task)
// are ordered by the window cv/mutex protocol. The timeline state
// machine only runs at quiescence (advance()/finalize() from the main
// thread), merging shard streams in canonical (time, shard, seq) order
// — identical for any worker count.
//
// Like the recorder, the monitor is strictly passive: it schedules no
// events, consumes no RNG, and never touches frame bytes beyond
// reading, so enabling it cannot perturb the simulation
// (Soak.ConvergenceMonitorIsInvisibleToExecution pins bit-identical
// frame traces off-vs-on).
//
// The monitor is also the per-packet path checker for §3.5's Theorem 1.
// Every switch ingress of a traced unicast IPv4 frame joins the stream
// with the switch's LDP level; advance() rebuilds each frame's path by
// trace id and checks each hop as it arrives: no switch entered twice,
// no valley (up after down), no lateral hop between same-level switches,
// at most 5 switch hops. Checking per hop rather than at delivery
// catches a loop even when the looping frame is never delivered. A
// host delivery closes the path into the switch-hop histogram; a drop
// discards it. Blackhole-freedom is the timeline-level check: every
// blackhole window must eventually close (unresolved_blackholes()
// counts the ones that never did).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "obs/flight_recorder.h"

namespace portland::obs {

/// IPv4 5-tuple packed into two words; value 0/0 = "not an IPv4 flow".
struct FlowKey {
  std::uint64_t hi = 0;  // src_ip << 32 | dst_ip
  std::uint64_t lo = 0;  // src_port << 24 | dst_port << 8 | proto
  [[nodiscard]] bool valid() const { return (hi | lo) != 0; }
  bool operator==(const FlowKey&) const = default;
};

/// Raw-byte parse of an Ethernet/IPv4 frame into its 5-tuple; returns an
/// invalid key for non-IPv4 frames or truncated headers. Ports are 0 for
/// protocols other than TCP/UDP.
[[nodiscard]] FlowKey parse_flow_key(const std::uint8_t* data,
                                     std::size_t size);

/// "10.0.0.1:7100->10.1.0.2:7100/udp" (proto number when not tcp/udp).
[[nodiscard]] std::string flow_key_to_string(const FlowKey& key);

/// One flow's outage during a failure: first frame lost after the link
/// went down to the first frame delivered after it (0 = never recovered).
struct BlackholeWindow {
  FlowKey flow;
  SimTime first_loss = 0;
  SimTime first_recovery = 0;
  [[nodiscard]] bool closed() const { return first_recovery != 0; }
  [[nodiscard]] SimDuration duration() const {
    return closed() ? first_recovery - first_loss : 0;
  }
};

/// The reaction record for one link failure. Stage times are absolute
/// sim times; 0 = the stage was never observed.
struct FailureTimeline {
  std::uint64_t id = 0;
  std::string link;      // "a<->b" endpoint device names
  /// Endpoint device names (point at the devices' own strings, which
  /// outlive the monitor in every fabric); used for stage matching.
  const char* endpoint_a = nullptr;
  const char* endpoint_b = nullptr;
  SimTime link_down = 0;
  SimTime detect = 0;    // first LDP neighbor-loss at an endpoint switch
  SimTime notify = 0;    // fabric-manager fault-matrix update
  SimTime reroute = 0;   // first prune install after notify
  SimTime recovered = 0; // first post-reroute delivery on an affected flow
  SimTime repaired = 0;  // link came back up (closes the timeline)
  /// Repaired before the reaction chain completed (e.g. flap while the
  /// reroute was still in flight) — stage fields past the flap stay 0.
  bool flapped = false;
  std::vector<BlackholeWindow> blackholes;

  /// End-to-end convergence: recovered when a flow proved the repair,
  /// else the reroute install (control-plane convergence, e.g. when no
  /// flow crossed the failed link); 0 when neither stage was reached.
  [[nodiscard]] SimDuration convergence() const {
    if (recovered != 0) return recovered - link_down;
    if (reroute != 0) return reroute - link_down;
    return 0;
  }
};

/// §3.5's per-packet invariants, one kind per rule a path can break.
enum class PathInvariant : std::uint8_t {
  kRevisit = 0,  // a switch entered twice: a forwarding loop
  kValley,       // went up after going down
  kLateral,      // hop between two switches of the same level
  kTooLong,      // more than kMaxSwitchHops switch hops
};

[[nodiscard]] const char* path_invariant_name(PathInvariant kind);

/// One broken invariant on one frame's path: `device` is the switch at
/// whose ingress the rule broke.
struct PathViolation {
  SimTime time = 0;
  std::uint64_t trace_id = 0;
  PathInvariant kind = PathInvariant::kRevisit;
  const char* device = nullptr;
};

class ConvergenceMonitor {
 public:
  /// The fat-tree diameter: edge, agg, core, agg, edge.
  static constexpr std::size_t kMaxSwitchHops = 5;
  /// Cap on retained violation details (the total keeps counting).
  static constexpr std::size_t kMaxViolationDetails = 64;

  struct Options {
    /// Per-shard cap on buffered events between advance() drains; the
    /// overflow counter records anything past it.
    std::size_t max_events_per_shard = 1 << 20;
    /// Completed timelines retained for /timelines and Prometheus
    /// rendering (oldest dropped past the cap; totals keep counting).
    std::size_t max_completed = 1024;
  };

  ConvergenceMonitor(std::size_t shard_count, Options options);

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  // --- hot path (one writer per shard; see file comment) -----------------

  /// Link carrier flip (both directions). Fired from Link::set_up in
  /// barrier context; `a`/`b` point at the endpoint devices' own name
  /// strings, which outlive the monitor in every fabric.
  void on_link_event(std::uint32_t shard, SimTime t, const char* a,
                     const char* b, bool up);

  /// LDP neighbor timeout (lost=true) or rediscovery at switch `sw`.
  void on_neighbor_event(std::uint32_t shard, SimTime t, const char* sw,
                         bool lost);

  /// Fabric manager processed a FaultNotify (link_up=true for repairs).
  void on_fault_notify(std::uint32_t shard, SimTime t, bool link_up);

  /// A switch applied a PruneUpdate.
  void on_prune_install(std::uint32_t shard, SimTime t, const char* sw);

  /// Per-hop feed from Device::record_hop (only deliveries and switch
  /// ingresses do any work). `level` is the switch's LDP level on a
  /// kIngress hop (higher = nearer the core); only PortlandSwitch sets it.
  void on_hop(std::uint32_t shard, SimTime t, const char* device,
              HopEvent event, std::uint64_t trace_id,
              const std::uint8_t* data, std::size_t size,
              std::uint8_t level = 0);

  /// Per-drop feed from Device::record_drop.
  void on_drop(std::uint32_t shard, SimTime t, std::uint64_t trace_id,
               const std::uint8_t* data, std::size_t size);

  // --- quiescent-only (no window executing) ------------------------------

  /// Drains all shard buffers through the timeline state machine. Call
  /// between run_until() chunks; never concurrently with a window.
  void advance();

  /// advance(), then closes every still-open timeline (marking the ones
  /// that reached reroute-or-better as converged). Call at the end of a
  /// measurement window or before rendering /timelines.
  void finalize();

  [[nodiscard]] const std::vector<FailureTimeline>& completed() const {
    return completed_;
  }
  [[nodiscard]] std::size_t open_timelines() const { return open_.size(); }
  [[nodiscard]] std::uint64_t timelines_total() const {
    return timelines_total_;
  }
  [[nodiscard]] std::uint64_t events_captured() const;
  [[nodiscard]] std::uint64_t events_overflowed() const;
  /// Broken §3.5 invariants over every checked path (one per kind per
  /// path).
  [[nodiscard]] std::uint64_t path_violations() const {
    return path_violations_;
  }
  /// The first kMaxViolationDetails violations, in stream order.
  [[nodiscard]] const std::vector<PathViolation>& path_violation_details()
      const {
    return violation_details_;
  }
  /// Unicast IPv4 frames delivered to a host with their path checked.
  [[nodiscard]] std::uint64_t paths_completed() const {
    return paths_completed_;
  }
  /// switch hops -> delivered frames.
  [[nodiscard]] const std::map<std::size_t, std::uint64_t>&
  path_hop_histogram() const {
    return path_hops_;
  }
  /// Blackhole windows on completed timelines that never saw a recovery
  /// frame — the blackhole-freedom invariant's violation count.
  [[nodiscard]] std::uint64_t unresolved_blackholes() const;

  /// One JSON object per completed timeline, one per line.
  void write_timelines_jsonl(std::string* out) const;

  /// Appends Prometheus text-exposition samples (portland_convergence_*,
  /// portland_blackhole_ms) for scraping alongside the metrics registry.
  void render_prometheus(std::string* out) const;

  /// Forgets everything (timelines, buffered events, open paths);
  /// snapshot restores call this — timelines never cross a fork.
  void clear();

 private:
  enum class EventKind : std::uint8_t {
    kLinkDown = 0,
    kLinkUp,
    kNeighborLost,
    kNeighborBack,
    kFaultNotify,
    kFaultRepair,
    kPruneInstall,
    kFlowDrop,
    kFlowDeliver,
    kSwitchIngress,
  };

  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;  // per-shard capture index
    const char* a = nullptr;  // device / link endpoint name
    const char* b = nullptr;  // link's other endpoint (link events only)
    FlowKey flow;             // kFlowDrop / kFlowDeliver
    /// kSwitchIngress / kFlowDrop / kFlowDeliver of a traced unicast IPv4
    /// frame: the path it belongs to (0 = no path).
    std::uint64_t trace_id = 0;
    EventKind kind = EventKind::kLinkDown;
    std::uint8_t level = 0;  // kSwitchIngress: the switch's LDP level
  };

  /// Padded so neighboring shards' buffers never share a cache line.
  struct alignas(64) ShardState {
    std::vector<Event> events;
    std::uint64_t seq = 0;       // total appended == next seq
    std::uint64_t overflow = 0;  // events past max_events_per_shard
  };

  [[nodiscard]] ShardState& shard_for(std::uint32_t shard) {
    return shards_[shard < shards_.size() ? shard : 0];
  }
  void append(std::uint32_t shard, Event e);

  // State-machine steps (main thread, quiescent).
  void process(const Event& e);
  void open_timeline(const Event& e);
  void close_timeline(std::size_t index, SimTime repaired, bool flapped,
                      bool count_unresolved);
  /// One frame still in flight, as far as the stream has seen it.
  struct OpenPath {
    std::vector<const char*> visited;  // distinct switches, path order
    std::size_t hops = 0;
    std::uint8_t last_level = 0;
    bool descending = false;
    std::uint8_t flagged = 0;  // bit per PathInvariant already raised
  };
  void path_hop(const Event& e);
  void flag(const Event& e, OpenPath& path, PathInvariant kind);

  Options options_;
  std::vector<ShardState> shards_;

  // Timeline state machine (quiescent-only).
  struct OpenWindow {
    FlowKey flow;
    SimTime first_loss = 0;
    std::uint64_t timeline_id = 0;
  };
  std::vector<FailureTimeline> open_;
  std::vector<FailureTimeline> completed_;
  std::vector<OpenWindow> open_windows_;
  std::uint64_t timelines_total_ = 0;
  std::uint64_t next_timeline_id_ = 1;
  std::uint64_t unresolved_blackholes_ = 0;
  std::uint64_t completed_dropped_ = 0;  // past max_completed

  // Path checker (quiescent-only).
  std::unordered_map<std::uint64_t, OpenPath> open_paths_;
  std::map<std::size_t, std::uint64_t> path_hops_;
  std::vector<PathViolation> violation_details_;
  std::uint64_t path_violations_ = 0;
  std::uint64_t paths_completed_ = 0;
};

}  // namespace portland::obs
