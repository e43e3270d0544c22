#include "core/fabric.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/logging.h"
#include "common/rss.h"
#include "common/strings.h"
#include "core/pmac.h"

namespace portland::core {

Ipv4Address PortlandFabric::ip_at(std::size_t pod, std::size_t edge,
                                  std::size_t port) {
  assert(pod < 256 && edge < 256 && port < 255);
  return Ipv4Address(10, static_cast<std::uint8_t>(pod),
                     static_cast<std::uint8_t>(edge),
                     static_cast<std::uint8_t>(port + 1));
}

PortlandFabric::PortlandFabric(Options options)
    : options_(std::move(options)),
      tree_(options_.k),
      net_(options_.seed, {options_.parallel_min_events}),
      injector_(net_) {
  if (options_.config.fm_shards > kMaxFmShards) {
    throw std::invalid_argument(
        "fm_shards above " + std::to_string(kMaxFmShards) +
        ": registry shard addresses would reach the switch ids");
  }
  if (options_.workers == Options::kAutoWorkers) {
    // workers=auto: one shard unless the box and the fabric can both
    // feed a pool (Simulator::resolve_auto_workers); the engine
    // additionally runs sparse windows inline at runtime, so even a
    // resolved pool never loses to one thread on light phases.
    options_.workers = sim::Simulator::resolve_auto_workers(
        std::thread::hardware_concurrency(), tree_.shard_count());
  }
  if (options_.workers >= 1) {
    // One shard per pod plus one for cores + FM. Conservative lookahead: no cross-shard effect (frame over an
    // agg<->core or host access link, control-plane message) can land
    // sooner than the smallest of these latencies, so windows this wide
    // are race-free and the merge order is well-defined.
    const SimDuration lookahead =
        std::min({options_.host_link.propagation,
                  options_.fabric_link.propagation,
                  options_.config.control_latency});
    net_.sim().configure_shards(tree_.shard_count(), lookahead);
    net_.sim().set_workers(options_.workers);
  }

  // The convergence monitor derives per-flow blackhole windows from the
  // flight recorder's hop/drop streams, so asking for it implies tracing.
  if (options_.obs.convergence_monitor) options_.obs.flight_recorder = true;
  if (options_.obs.flight_recorder) {
    obs::FlightRecorder::Options ro;
    ro.ring_capacity = options_.obs.ring_capacity;
    ro.max_traced_frames = options_.obs.trace_frames;
    // LDP keepalives dominate frame counts but carry no tenant traffic;
    // keep them out of traces so rings hold the interesting hops.
    ro.skip_ethertype = net::to_u16(net::EtherType::kLdp);
    // Sized for every fabric shard even on a one-shard engine: devices
    // carry their shard assignment either way, so records always land in
    // range.
    recorder_ =
        std::make_unique<obs::FlightRecorder>(tree_.shard_count(), ro);
    net_.set_flight_recorder(recorder_.get());
  }
  if (options_.obs.engine_trace) {
    tracer_ = std::make_unique<obs::EngineTracer>(tree_.shard_count());
    net_.sim().set_tracer(tracer_.get());
  }
  if (options_.obs.convergence_monitor) {
    monitor_ = std::make_unique<obs::ConvergenceMonitor>(
        tree_.shard_count(), obs::ConvergenceMonitor::Options{});
    net_.set_convergence_monitor(monitor_.get());
  }

  control_ = std::make_unique<ControlPlane>(net_.sim(),
                                            options_.config.control_latency);
  // fm_shards == 0 means auto: one registry shard per pod, the same
  // decomposition the PDES engine already uses.
  if (options_.config.fm_shards == 0) {
    options_.config.fm_shards = tree_.pods();
  }
  const std::size_t fm_shards =
      std::max<std::size_t>(1, options_.config.fm_shards);
  fm_ = std::make_unique<FabricManager>(net_.sim(), *control_,
                                        options_.config);
  // The fabric manager handles its messages on the core shard.
  control_->set_endpoint_shard(kFabricManagerId, tree_.core_shard());
  // Registry shards are pinned round-robin across the pod shards, so ARP
  // service runs in parallel with the data plane instead of serializing
  // on the core shard.
  if (fm_shards > 1) {
    for (std::size_t s = 0; s < fm_shards; ++s) {
      control_->set_endpoint_shard(
          static_cast<SwitchId>(kFmShardIdBase + s),
          static_cast<sim::ShardId>(s % tree_.pods()));
    }
  }
  if (options_.config.fm_replica) {
    control_->set_endpoint_shard(kFmReplicaId, tree_.core_shard());
    std::vector<sim::ShardId> registry_shards(fm_shards, tree_.core_shard());
    if (fm_shards > 1) {
      for (std::size_t s = 0; s < fm_shards; ++s) {
        registry_shards[s] = static_cast<sim::ShardId>(s % tree_.pods());
      }
    }
    fm_->start_replica_sync(registry_shards, tree_.core_shard());
  }
  if (monitor_ != nullptr) {
    fm_->set_convergence_monitor(
        monitor_.get(), static_cast<std::uint32_t>(tree_.core_shard()));
  }

  const std::size_t half = static_cast<std::size_t>(options_.k) / 2;
  const std::size_t cores_per_group =
      options_.cores_per_group == 0
          ? half
          : std::min(options_.cores_per_group, half);
  Rng rng = net_.rng().fork();
  SwitchId next_id = kSwitchIdBase;

  // Bulk reservation (E19): size the device/link vectors, the name index,
  // and one contiguous arena chunk for the whole topology up front, so a
  // k=64 build never reallocates mid-construction.
  const std::size_t n_switches =
      tree_.num_edge() + tree_.num_agg() + half * cores_per_group;
  const std::size_t n_hosts =
      tree_.num_hosts() - options_.skip_host_indices.size();
  const std::size_t n_links = n_hosts + tree_.pods() * half * half +
                              tree_.pods() * half * cores_per_group;
  net_.reserve(n_switches + n_hosts, n_links,
               n_switches * (sizeof(PortlandSwitch) + 64) +
                   n_hosts * (sizeof(host::Host) + 64) +
                   n_links * (sizeof(sim::Link) + 64));
  edges_.reserve(tree_.num_edge());
  aggs_.reserve(tree_.num_agg());
  cores_.reserve(half * cores_per_group);
  hosts_.reserve(n_hosts);
  fabric_links_.reserve(n_links - n_hosts);
  fm_->reserve(n_hosts, n_switches);
  control_->reserve(n_switches + 2 + fm_shards);

  // Switches, in FatTree order: edge, agg, core. Each is pinned to its
  // pod's event shard (cores to the shared core shard) and the control
  // plane learns where to deliver its messages.
  auto make_switch = [&](const std::string& name,
                         sim::ShardId shard) -> PortlandSwitch& {
    PortlandSwitch& sw = net_.add_device<PortlandSwitch>(
        name, next_id++, static_cast<std::size_t>(options_.k), *control_,
        options_.config, rng.fork());
    sw.set_shard(shard);
    control_->set_endpoint_shard(sw.id(), shard);
    return sw;
  };
  for (std::size_t pod = 0; pod < tree_.pods(); ++pod) {
    for (std::size_t e = 0; e < half; ++e) {
      edges_.push_back(&make_switch(str_format("edge-p%zu-%zu", pod, e),
                                    static_cast<sim::ShardId>(pod)));
    }
  }
  for (std::size_t pod = 0; pod < tree_.pods(); ++pod) {
    for (std::size_t a = 0; a < half; ++a) {
      aggs_.push_back(&make_switch(str_format("agg-p%zu-%zu", pod, a),
                                   static_cast<sim::ShardId>(pod)));
    }
  }
  for (std::size_t i = 0; i < half; ++i) {
    for (std::size_t j = 0; j < cores_per_group; ++j) {
      cores_.push_back(&make_switch(str_format("core-%zu-%zu", i, j),
                                    tree_.core_shard()));
    }
  }
  switches_.reserve(edges_.size() + aggs_.size() + cores_.size());
  switches_ = edges_;
  switches_.insert(switches_.end(), aggs_.begin(), aggs_.end());
  switches_.insert(switches_.end(), cores_.begin(), cores_.end());

  // Hosts (except skipped indices) and their access links.
  host_by_index_.assign(tree_.num_hosts(), nullptr);
  host_link_by_index_.assign(tree_.num_hosts(), nullptr);
  std::uint32_t host_counter = 0;
  for (std::size_t pod = 0; pod < tree_.pods(); ++pod) {
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t p = 0; p < half; ++p) {
        const std::size_t index = tree_.host_index(pod, e, p);
        ++host_counter;
        if (options_.skip_host_indices.count(index) != 0) continue;
        host::Host& h = net_.add_device<host::Host>(
            str_format("host-p%zu-e%zu-h%zu", pod, e, p),
            make_amac(host_counter), ip_at(pod, e, p), options_.host_config);
        h.set_shard(static_cast<sim::ShardId>(pod));
        host_by_index_[index] = &h;
        hosts_.push_back(&h);
        sim::Link& link =
            net_.connect(h, 0, *edges_[pod * half + e], p, options_.host_link);
        host_link_by_index_[index] = &link;
      }
    }
  }

  // Edge <-> aggregation.
  for (std::size_t pod = 0; pod < tree_.pods(); ++pod) {
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t a = 0; a < half; ++a) {
        fabric_links_.push_back(&net_.connect(
            *edges_[pod * half + e], half + a, *aggs_[pod * half + a], e,
            options_.fabric_link));
      }
    }
  }
  // Aggregation <-> core. With oversubscription, aggregation uplink ports
  // beyond cores_per_group stay unwired — LDP simply never finds a
  // neighbor there.
  for (std::size_t pod = 0; pod < tree_.pods(); ++pod) {
    for (std::size_t a = 0; a < half; ++a) {
      for (std::size_t j = 0; j < cores_per_group; ++j) {
        fabric_links_.push_back(
            &net_.connect(*aggs_[pod * half + a], half + j,
                          *cores_[a * cores_per_group + j], pod,
                          options_.fabric_link));
      }
    }
  }

  net_.start_all();
}

host::Host* PortlandFabric::host(std::size_t index) const {
  assert(index < host_by_index_.size());
  return host_by_index_[index];
}

host::Host& PortlandFabric::host_at(std::size_t pod, std::size_t edge,
                                    std::size_t port) const {
  host::Host* h = host(tree_.host_index(pod, edge, port));
  assert(h != nullptr && "host index was skipped");
  return *h;
}

PortlandSwitch& PortlandFabric::edge_at(std::size_t pod,
                                        std::size_t pos) const {
  const std::size_t half = static_cast<std::size_t>(options_.k) / 2;
  return *edges_[pod * half + pos];
}

PortlandSwitch& PortlandFabric::agg_at(std::size_t pod,
                                       std::size_t pos) const {
  const std::size_t half = static_cast<std::size_t>(options_.k) / 2;
  return *aggs_[pod * half + pos];
}

PortlandSwitch& PortlandFabric::core_at(std::size_t group,
                                        std::size_t member) const {
  const std::size_t half = static_cast<std::size_t>(options_.k) / 2;
  const std::size_t per_group = options_.cores_per_group == 0
                                    ? half
                                    : std::min(options_.cores_per_group, half);
  return *cores_[group * per_group + member];
}

sim::Link* PortlandFabric::host_link(std::size_t index) const {
  assert(index < host_link_by_index_.size());
  return host_link_by_index_[index];
}

bool PortlandFabric::all_located() const {
  for (const PortlandSwitch* sw : switches_) {
    if (!sw->locator().located()) return false;
  }
  return true;
}

bool PortlandFabric::run_until_converged(SimDuration limit) {
  const SimTime deadline = sim().now() + limit;
  while (!all_located()) {
    if (sim().now() >= deadline) return false;
    sim().run_until(sim().now() + millis(10));
  }
  // Location discovery is done; re-announce every host so each edge
  // assigns PMACs and the fabric manager's registry becomes complete
  // (the boot-time gratuitous ARPs may have preceded discovery). Each
  // announcement transmits from the host's own shard.
  for (host::Host* h : hosts_) {
    sim::ShardGuard guard(sim(), h->shard());
    h->send_gratuitous_arp();
  }
  sim().run_until(sim().now() + millis(20));
  return true;
}

PortlandFabric::LinkKillAnswer PortlandFabric::kill_random_links(
    std::size_t count, SimTime fail_at, SimTime until, Rng& rng) {
  const CounterSet before = fm_->counters();
  LinkKillAnswer out;
  out.links_killed =
      injector_.fail_random_links_at(fabric_links_, count, fail_at, rng)
          .size();
  sim().run_until(until);
  const CounterSet after = fm_->counters();
  out.faults = after.get(Counter::fault_notifications) -
               before.get(Counter::fault_notifications);
  out.reroutes = after.get(Counter::prune_updates_sent) -
                 before.get(Counter::prune_updates_sent);
  out.failed_links = fm_->graph().failed_link_count();
  return out;
}

std::size_t PortlandFabric::total_switch_state() const {
  std::size_t n = 0;
  for (const PortlandSwitch* sw : switches_) n += sw->forwarding_state_size();
  return n;
}

PortlandSwitch::TableBytes PortlandFabric::total_table_bytes() const {
  PortlandSwitch::TableBytes total;
  for (const PortlandSwitch* sw : switches_) {
    const PortlandSwitch::TableBytes b = sw->table_bytes();
    total.host_table += b.host_table;
    total.fib += b.fib;
    total.prunes += b.prunes;
    total.multicast += b.multicast;
    total.other += b.other;
  }
  return total;
}

namespace {
/// Image header magic: "PLFS" (PortLand Fabric Snapshot).
constexpr std::uint32_t kSnapshotMagic = 0x504C4653;
constexpr std::uint32_t kSnapshotVersion = 9;
}  // namespace

bool PortlandFabric::save_snapshot(std::vector<std::uint8_t>& out,
                                   std::span<sim::Snapshotable* const> extras,
                                   std::string* error) {
  sim::SnapshotWriter w(out);
  sim::SnapshotIo io(w);
  return snapshot(io, extras, error);
}

bool PortlandFabric::restore_snapshot(std::span<const std::uint8_t> image,
                                      std::span<sim::Snapshotable* const>
                                          extras,
                                      std::string* error) {
  sim::SnapshotReader r(image);
  sim::SnapshotIo io(r);
  return snapshot(io, extras, error);
}

bool PortlandFabric::snapshot(sim::SnapshotIo& io,
                              std::span<sim::Snapshotable* const> extras,
                              std::string* error) {
  const auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (!io.expect<std::uint32_t>(kSnapshotMagic)) {
    return fail("snapshot: bad magic");
  }
  if (!io.expect<std::uint32_t>(kSnapshotVersion)) {
    return fail("snapshot: version mismatch");
  }
  if (!io.expect<std::uint32_t>(options_.k)) {
    return fail("snapshot: fabric k mismatch");
  }
  if (!io.expect<std::uint64_t>(options_.seed)) {
    return fail("snapshot: seed mismatch");
  }
  if (!io.expect<std::uint32_t>(tree_.shard_count())) {
    return fail("snapshot: shard count mismatch");
  }
  if (!io.expect<std::uint32_t>(net_.devices().size())) {
    return fail("snapshot: device count mismatch");
  }
  if (!io.expect<std::uint32_t>(net_.links().size())) {
    return fail("snapshot: link count mismatch");
  }
  if (!io.expect<std::uint32_t>(extras.size())) {
    return fail("snapshot: extras count mismatch");
  }

  // A load stamps the wall clock at each phase boundary (restore_phases).
  using Clock = std::chrono::steady_clock;
  const bool timed = io.loading();
  Clock::time_point stamp = timed ? Clock::now() : Clock::time_point{};
  const auto lap = [timed, &stamp](std::uint64_t& phase_ns) {
    if (!timed) return;
    const Clock::time_point now = Clock::now();
    phase_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - stamp)
            .count());
    stamp = now;
  };
  if (timed) restore_phases_ = RestorePhases{};

  // 1. Engine: pending events in (time, seq) order. A save refuses plain
  //    closures — nothing else in this walk can fail a save.
  if (io.loading()) {
    // Drop whatever this fabric is currently doing; the image replaces it.
    sim().snapshot_clear();
    lap(restore_phases_.clear_ns);
    if (!sim().restore_engine(io.reader(), error)) return false;
    lap(restore_phases_.engine_ns);
  } else if (!sim().save_engine(io.writer(), error)) {
    return false;
  }

  // 2. Links (network construction order): queue occupancy, in-flight
  //    trains, epochs, down state.
  for (sim::Link* link : net_.links()) link->snapshot(io);
  lap(restore_phases_.links_ns);

  // 3. Devices (construction order: every switch, then every host): each
  //    walks its counters, then its own state (tables, FIBs, protocol
  //    timers, TCP stacks, ...), as its owning shard, so timers re-armed
  //    by a load land in that shard's queues.
  const std::span<sim::Device* const> devices(net_.devices());
  const std::size_t n_switches = std::min(switches_.size(), devices.size());
  const auto walk_devices = [this, &io](std::span<sim::Device* const> some) {
    for (sim::Device* dev : some) {
      sim::ShardGuard guard(sim(), dev->shard());
      dev->snapshot(io);
    }
  };
  walk_devices(devices.first(n_switches));
  lap(restore_phases_.switches_ns);
  walk_devices(devices.subspan(n_switches));
  lap(restore_phases_.hosts_ns);

  // 4. Central services + observability.
  if (const char* bad = fm_->snapshot(io)) {
    return fail(std::string("snapshot: ") + bad);
  }
  control_->snapshot(io);
  bool traced = recorder_ != nullptr;
  io.field(traced);
  if (traced && recorder_ != nullptr) {
    recorder_->snapshot(io);
  } else if (traced) {
    // Image traced, this fabric doesn't: walk the section into a
    // throwaway recorder of the right shape.
    obs::FlightRecorder unused(tree_.shard_count(), {});
    unused.snapshot(io);
  } else if (recorder_ != nullptr) {
    recorder_->clear();  // an untraced image loaded into a traced fabric
  }
  // Timelines never cross a fork: the monitor is passive state derived
  // from one run's event stream, so a load starts it fresh (mirrors the
  // recorder's ring semantics).
  if (io.loading() && monitor_ != nullptr) monitor_->clear();
  lap(restore_phases_.fm_ns);

  // 5. App-level extras, in caller order.
  for (sim::Snapshotable* s : extras) {
    if (io.loading()) {
      s->restore_state(io.reader());
    } else {
      s->save_state(io.writer());
    }
  }

  if (!io.loading()) return true;
  if (!io.ok()) return fail("snapshot: image truncated or corrupt");
  if (io.reader().remaining_size() != 0) {
    return fail("snapshot: trailing bytes after the last section");
  }
  const bool ok = sim().finish_restore(error);
  lap(restore_phases_.extras_ns);
  return ok;
}

void PortlandFabric::snapshot_metrics(obs::MetricsRegistry& registry) {
  sim::Simulator& s = sim();
  obs::MetricsSnapshot& snap = registry.begin_snapshot(s.now());

  std::vector<obs::ScalarSample>& rows = snap.scalars;
  s.counters([&](const char* key, std::uint64_t value) {
    rows.push_back({"engine", key, value});
  });
  snap.per_shard_executed.reserve(s.shard_count());
  for (sim::ShardId sh = 0; sh < s.shard_count(); ++sh) {
    snap.per_shard_executed.push_back(s.shard_executed(sh));
  }
  const net::ParseStats parse = net::parse_stats();
  net::ParseStats::walk([&](const char* key, auto field) {
    rows.push_back({"parse", key, parse.*field});
  });
  const PortlandSwitch::TableBytes tables = total_table_bytes();
  rows.push_back({"memory", "switch_table_bytes", tables.total()});
  rows.push_back({"memory", "host_table_bytes", tables.host_table});
  rows.push_back({"memory", "fib_bytes", tables.fib});
  rows.push_back({"memory", "arena_bytes", net_.arena().bytes_reserved()});
  rows.push_back({"memory", "rss_bytes", current_rss_bytes()});

  snap.devices.reserve(net_.devices().size());
  for (const sim::Device* dev : net_.devices()) {
    obs::DeviceSample& d = snap.devices.emplace_back();
    d.name = dev->name();
    for (const Counter id : kCountersByName) {
      const std::uint64_t value = dev->counters().get(id);
      if (value != 0) d.counters.emplace_back(counter_name(id), value);
    }
  }

  snap.links.reserve(net_.links().size() * 2);
  for (const auto& link : net_.links()) {
    for (int side = 0; side < 2; ++side) {
      obs::LinkSample& l = snap.links.emplace_back();
      l.name = link->device(side).name() + "->" +
               link->device(1 - side).name();
      l.up = link->direction_up(side);
      l.tx_frames = link->tx_frames(side);
      l.tx_bytes = link->tx_bytes(side);
      l.dropped = link->dropped_frames(side);
      l.queue_bytes = link->queued_bytes_now(side);
    }
  }
}

}  // namespace portland::core
