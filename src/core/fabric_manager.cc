#include "core/fabric_manager.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "obs/convergence_monitor.h"
#include "sim/snapshot.h"

namespace portland::core {

FabricManager::FabricManager(sim::Simulator& sim, ControlPlane& control,
                             PortlandConfig config)
    : sim_(&sim), control_(&control), config_(config) {
  shards_.resize(std::max<std::size_t>(1, config_.fm_shards));
  control_->register_endpoint(
      kFabricManagerId, [this](const ControlMessage& m) { handle_message(m); });
  if (shards_.size() > 1) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      control_->register_endpoint(
          static_cast<SwitchId>(kFmShardIdBase + s),
          [this, s](const ControlMessage& m) { handle_shard_message(s, m); });
    }
  }
  if (config_.fm_replica) {
    replica_.resize(1 + shards_.size());
    control_->register_endpoint(
        kFmReplicaId, [this](const ControlMessage& m) {
          if (const auto* d = std::get_if<FmDelta>(&m.body)) {
            on_replica_delta(*d);
          }
        });
  }
}

void FabricManager::send(SwitchId to, ControlBody body, SimDuration extra) {
  control_->send(to, ControlMessage{kFabricManagerId, std::move(body)}, extra);
}

void FabricManager::handle_message(const ControlMessage& msg) {
  counters_.add(Counter::rx_total);
  struct Dispatcher {
    FabricManager& fm;
    SwitchId sender;
    void operator()(const SwitchHello& m) { fm.on_hello(sender, m); }
    void operator()(const PodRequest&) { fm.on_pod_request(sender); }
    // Registry traffic reaching the primary is routed to the owning
    // shard's slice, so direct sends (fm_shards == 1, benches, tests)
    // behave identically to shard-addressed ones.
    void operator()(const HostRegister& m) {
      fm.on_host_register(sender, m, fm.shard_of(m.ip));
    }
    void operator()(const ArpQuery& m) {
      fm.on_arp_query(sender, m, fm.shard_of(m.ip));
    }
    void operator()(const FaultNotify& m) { fm.on_fault_notify(sender, m); }
    void operator()(const McastJoin& m) { fm.on_mcast_join(sender, m); }
    void operator()(const McastLeave& m) { fm.on_mcast_leave(sender, m); }
    void operator()(const McastSenderSeen& m) {
      fm.on_mcast_sender_seen(sender, m);
    }
    // Messages the FM only sends:
    void operator()(const PodAssignment&) {}
    void operator()(const ArpResponse&) {}
    void operator()(const PruneUpdate&) {}
    void operator()(const McastInstall&) {}
    void operator()(const McastRemove&) {}
    void operator()(const InvalidateHost&) {}
    void operator()(const FmDelta&) {}
  };
  std::visit(Dispatcher{*this, msg.sender}, msg.body);
}

void FabricManager::handle_shard_message(std::size_t shard,
                                         const ControlMessage& msg) {
  shards_[shard].counters.add(Counter::rx_total);
  if (const auto* q = std::get_if<ArpQuery>(&msg.body)) {
    on_arp_query(msg.sender, *q, shard);
  } else if (const auto* h = std::get_if<HostRegister>(&msg.body)) {
    on_host_register(msg.sender, *h, shard);
  }
}

// ---------------------------------------------------------------------------
// Topology & pods
// ---------------------------------------------------------------------------

void FabricManager::wipe_soft_state() {
  graph_ = FabricGraph();
  pod_by_requester_.clear();
  next_pod_ = 0;
  for (RegistryShard& s : shards_) s.hosts.clear();
  installed_prunes_.clear();
  groups_.clear();
  installed_trees_.clear();
  synced_switches_.clear();
}

void FabricManager::simulate_failover() {
  counters_.add(Counter::failovers);
  wipe_soft_state();
}

void FabricManager::on_hello(SwitchId sender, const SwitchHello& m) {
  // First hello from a switch this incarnation: flush any reroute state a
  // previous FM installed — this FM will recompute what is still needed.
  const auto sit =
      std::lower_bound(synced_switches_.begin(), synced_switches_.end(),
                       sender);
  if (sit == synced_switches_.end() || *sit != sender) {
    synced_switches_.insert(sit, sender);
    core_dirty_ = true;
    send(sender, PruneUpdate{/*flush=*/true, {}});
  }
  // Pod numbers are soft state too: re-learn the allocator's high-water
  // mark from locators so a failed-over FM never re-issues a pod in use.
  if (m.self.pod != kUnknownPod &&
      static_cast<std::uint16_t>(m.self.pod + 1) > next_pod_) {
    next_pod_ = static_cast<std::uint16_t>(m.self.pod + 1);
    core_dirty_ = true;
  }
  const HelloDelta delta = graph_.apply_hello(sender, m);
  if (!delta.changed) return;
  core_dirty_ = true;
  // Effective reachability (locator, or adjacency ∧ fault matrix) changed.
  // Re-derive any routing state built on the old view: a repair's
  // FaultNotify can arrive before the hellos that restore the adjacency it
  // needs, so prune withdrawal must also run here. The common carrier-loss
  // ordering (FaultNotify already killed the link, this hello merely
  // withdraws its adjacency) is a routing no-op and is skipped.
  // (No-op while nothing is installed, i.e. all of bootstrap.)
  if (delta.routing_changed && !installed_prunes_.empty()) {
    recompute_prunes({}, config_.fm_fault_processing);
  }
  if (!groups_.empty()) {
    recompute_all_groups(config_.fm_multicast_processing);
  }
}

void FabricManager::on_pod_request(SwitchId sender) {
  // Idempotent: one pod per requesting switch (the position-0 edge).
  auto it = std::lower_bound(
      pod_by_requester_.begin(), pod_by_requester_.end(), sender,
      [](const auto& e, SwitchId id) { return e.first < id; });
  if (it == pod_by_requester_.end() || it->first != sender) {
    it = pod_by_requester_.insert(it, {sender, next_pod_});
    ++next_pod_;
    core_dirty_ = true;
  }
  send(sender, PodAssignment{it->second});
}

// ---------------------------------------------------------------------------
// Hosts, proxy ARP, migration
// ---------------------------------------------------------------------------

void FabricManager::on_host_register(SwitchId sender, const HostRegister& m,
                                     std::size_t shard) {
  if (m.ip.is_zero()) return;
  RegistryShard& sh = shards_[shard];
  const HostRecord rec{m.pmac, m.amac, sender, m.edge_port};
  HostRecord* existing = sh.hosts.find(m.ip);
  if (existing != nullptr) {
    if (*existing == rec) return;  // steady-state refresh: nothing changed
    if (existing->pmac != m.pmac) {
      // The IP is reachable at a new PMAC: a VM migrated (paper §3.7).
      // Invalidate the stale mapping at the previous edge switch, which
      // will trap in-flight frames and correct stale ARP caches.
      sh.counters.add(Counter::migrations_detected);
      send(existing->edge, InvalidateHost{m.ip, existing->pmac, m.pmac});
    }
    *existing = rec;
  } else {
    sh.hosts.insert_or_assign(m.ip, rec);
  }
  sh.dirty = true;
}

void FabricManager::on_arp_query(SwitchId sender, const ArpQuery& m,
                                 std::size_t shard) {
  RegistryShard& sh = shards_[shard];
  sh.counters.add(Counter::arp_queries);
  const HostRecord* rec = sh.hosts.find(m.ip);
  if (rec == nullptr) {
    sh.counters.add(Counter::arp_misses);
    send(sender, ArpResponse{m.query_id, m.ip, MacAddress::zero(), false});
    return;
  }
  sh.counters.add(Counter::arp_hits);
  send(sender, ArpResponse{m.query_id, m.ip, rec->pmac, true});
}

void FabricManager::register_host_direct(Ipv4Address ip,
                                         const HostRecord& record) {
  RegistryShard& sh = shards_[shard_of(ip)];
  sh.hosts.insert_or_assign(ip, record);
  sh.dirty = true;
}

std::optional<FabricManager::HostRecord> FabricManager::host(
    Ipv4Address ip) const {
  const HostRecord* rec = shards_[shard_of(ip)].hosts.find(ip);
  if (rec == nullptr) return std::nullopt;
  return *rec;
}

CounterSet FabricManager::counters() const {
  CounterSet merged = counters_;
  for (const RegistryShard& s : shards_) merged += s.counters;
  return merged;
}

// ---------------------------------------------------------------------------
// Hot-standby replica (FmDelta stream)
// ---------------------------------------------------------------------------

void FabricManager::start_replica_sync(
    const std::vector<sim::ShardId>& registry_shards,
    sim::ShardId core_shard) {
  if (!config_.fm_replica || core_sync_timer_ != nullptr) return;
  core_sync_timer_ = std::make_unique<sim::PeriodicTimer>(
      *sim_, config_.fm_replica_sync_interval, [this] { sync_core_section(); });
  {
    // The tick must run where the primary's handlers run: it reads the
    // topology/prune/multicast state those handlers own.
    sim::ShardGuard guard(*sim_, core_shard);
    core_sync_timer_->start();
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].sync_timer = std::make_unique<sim::PeriodicTimer>(
        *sim_, config_.fm_replica_sync_interval,
        [this, s] { sync_shard_section(s); });
    // Each registry shard's tick runs on that shard's simulator shard so
    // serializing its slice never races its handler.
    sim::ShardGuard guard(
        *sim_, s < registry_shards.size() ? registry_shards[s] : core_shard);
    shards_[s].sync_timer->start();
  }
}

void FabricManager::sync_core_section() {
  if (!core_dirty_) return;
  core_dirty_ = false;
  FmDelta d;
  d.section = 0;
  d.version = ++core_version_;
  sim::SnapshotWriter w(d.image);
  sim::SnapshotIo io(w);
  snapshot_core(io);
  send(kFmReplicaId, std::move(d));
}

void FabricManager::sync_shard_section(std::size_t shard) {
  RegistryShard& sh = shards_[shard];
  if (!sh.dirty) return;
  sh.dirty = false;
  FmDelta d;
  d.section = static_cast<std::uint32_t>(1 + shard);
  d.version = ++sh.delta_version;
  sim::SnapshotWriter w(d.image);
  sim::SnapshotIo io(w);
  snapshot_registry(io, sh);
  send(kFmReplicaId, std::move(d));
}

void FabricManager::on_replica_delta(const FmDelta& m) {
  if (m.section >= replica_.size()) return;
  ReplicaSection& s = replica_[m.section];
  if (m.version <= s.version) return;  // reordered stale image
  s.version = m.version;
  s.image = m.image;
}

void FabricManager::failover_to_replica() {
  counters_.add(Counter::failovers);
  counters_.add(Counter::replica_failovers);
  wipe_soft_state();
  if (!replica_.empty() && replica_[0].version > 0) {
    sim::SnapshotReader r(replica_[0].image);
    sim::SnapshotIo io(r);
    snapshot_core(io);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t section = 1 + s;
    if (section < replica_.size() && replica_[section].version > 0) {
      sim::SnapshotReader r(replica_[section].image);
      sim::SnapshotIo io(r);
      snapshot_registry(io, shards_[s]);
    }
  }
  // Everything the new incarnation now holds is unsynced: stream it all
  // again so a second failover isn't built on pre-takeover images.
  core_dirty_ = true;
  for (RegistryShard& s : shards_) s.dirty = true;
}

// ---------------------------------------------------------------------------
// Fault matrix & reroutes
// ---------------------------------------------------------------------------

void FabricManager::on_fault_notify(SwitchId sender, const FaultNotify& m) {
  counters_.add(m.link_up ? Counter::fault_repairs
                          : Counter::fault_notifications);
  if (monitor_ != nullptr) {
    // Recorded before the dedup below: the timeline's notify stage is
    // "the FM heard about the fault", which the first report satisfies
    // (the state machine keeps the earliest time).
    monitor_->on_fault_notify(monitor_shard_, sim_->now(), m.link_up);
  }
  if (!graph_.set_link_state(sender, m.neighbor, m.link_up)) {
    return;  // both endpoints report; second notification is a no-op
  }
  core_dirty_ = true;
  const std::vector<DstKey> keys = graph_.keys_for_link(sender, m.neighbor);
  recompute_prunes(keys, config_.fm_fault_processing);
  recompute_all_groups(config_.fm_multicast_processing);
}

void FabricManager::recompute_prunes(const std::vector<DstKey>& event_keys,
                                     SimDuration base_delay) {
  // Faults interact (a core link failure changes which aggs can serve an
  // earlier edge-link failure's destination), so refresh every key that is
  // either implicated by this event or already has prunes installed.
  std::set<DstKey> keys(event_keys.begin(), event_keys.end());
  for (const auto& [key, pm] : installed_prunes_) keys.insert(key);

  std::map<SwitchId, PruneUpdate> batches;
  for (const DstKey& key : keys) {
    PruneMap fresh = graph_.compute_prunes(key);
    PruneMap& old = installed_prunes_[key];

    for (const auto& [sw, avoid] : fresh) {
      const auto oit = old.find(sw);
      for (const SwitchId id : avoid) {
        if (oit == old.end() || oit->second.count(id) == 0) {
          batches[sw].entries.push_back(
              PruneEntry{key.pod, key.position, id, /*add=*/true});
        }
      }
    }
    for (const auto& [sw, avoid] : old) {
      const auto fit = fresh.find(sw);
      for (const SwitchId id : avoid) {
        if (fit == fresh.end() || fit->second.count(id) == 0) {
          batches[sw].entries.push_back(
              PruneEntry{key.pod, key.position, id, /*add=*/false});
        }
      }
    }

    if (fresh.empty()) {
      installed_prunes_.erase(key);
    } else {
      installed_prunes_[key] = std::move(fresh);
    }
  }

  if (!keys.empty()) core_dirty_ = true;
  counters_.add(Counter::prune_updates_sent, batches.size());
  for (auto& [sw, update] : batches) {
    send(sw, std::move(update), base_delay + config_.flow_install_cost);
  }
}

// ---------------------------------------------------------------------------
// Multicast
// ---------------------------------------------------------------------------

void FabricManager::on_mcast_join(SwitchId sender, const McastJoin& m) {
  groups_[m.group].receivers[sender].insert(m.host_port);
  core_dirty_ = true;
  recompute_group(m.group, config_.fm_multicast_processing);
}

void FabricManager::on_mcast_leave(SwitchId sender, const McastLeave& m) {
  const auto git = groups_.find(m.group);
  if (git == groups_.end()) return;
  const auto rit = git->second.receivers.find(sender);
  if (rit != git->second.receivers.end()) {
    rit->second.erase(m.host_port);
    if (rit->second.empty()) git->second.receivers.erase(rit);
  }
  core_dirty_ = true;
  recompute_group(m.group, config_.fm_multicast_processing);
  if (git->second.empty()) groups_.erase(git);
}

void FabricManager::on_mcast_sender_seen(SwitchId sender,
                                         const McastSenderSeen& m) {
  auto& senders = groups_[m.group].senders;
  if (senders.insert(sender).second) {
    core_dirty_ = true;
    recompute_group(m.group, config_.fm_multicast_processing);
  }
}

void FabricManager::recompute_group(Ipv4Address group, SimDuration base_delay) {
  const auto git = groups_.find(group);
  std::optional<MulticastTree> fresh;
  if (git != groups_.end()) {
    fresh = compute_multicast_tree(graph_, group, git->second);
  }

  const auto old_it = installed_trees_.find(group);
  const MulticastTree* old =
      old_it == installed_trees_.end() ? nullptr : &old_it->second;
  if (old != nullptr && fresh.has_value() && *old == *fresh) return;

  // Remove entries from switches leaving the tree.
  SimDuration delay = base_delay;
  if (old != nullptr) {
    for (const auto& [sw, ports] : old->ports) {
      if (!fresh.has_value() || fresh->ports.count(sw) == 0) {
        send(sw, McastRemove{group}, delay);
        delay += config_.flow_install_cost;
      }
    }
  }
  // Install (or refresh) entries, one flow-mod at a time — the serialized
  // installation is what stretches multicast recovery past unicast's.
  if (fresh.has_value()) {
    for (const auto& [sw, ports] : fresh->ports) {
      McastInstall install;
      install.group = group;
      install.ports.assign(ports.begin(), ports.end());
      send(sw, std::move(install), delay);
      delay += config_.flow_install_cost;
    }
    installed_trees_[group] = std::move(*fresh);
    counters_.add(Counter::mcast_trees_installed);
  } else {
    installed_trees_.erase(group);
    counters_.add(Counter::mcast_trees_unavailable);
  }
  core_dirty_ = true;
}

void FabricManager::recompute_all_groups(SimDuration base_delay) {
  // Collect names first: recompute_group may erase empty groups.
  std::vector<Ipv4Address> names;
  names.reserve(groups_.size());
  for (const auto& [group, state] : groups_) names.push_back(group);
  for (const Ipv4Address g : names) recompute_group(g, base_delay);
}

std::optional<MulticastTree> FabricManager::installed_tree(
    Ipv4Address group) const {
  const auto it = installed_trees_.find(group);
  if (it == installed_trees_.end()) return std::nullopt;
  return it->second;
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

namespace {

void snapshot_port_map(sim::SnapshotIo& io,
                       std::map<SwitchId, std::set<std::uint16_t>>& m) {
  io.list(m, [&io](SwitchId& id, std::set<std::uint16_t>& ports) {
    io.field(id);
    io.list(ports);
  });
}

/// A replica sync timer's armed flag and shot. A load into an FM whose
/// timer is not armed the same way fails the reader.
void snapshot_sync_timer(sim::SnapshotIo& io, sim::PeriodicTimer* t) {
  if (io.expect(t != nullptr) && t != nullptr) t->snapshot(io);
}

}  // namespace

void FabricManager::snapshot_core(sim::SnapshotIo& io) {
  graph_.snapshot(io);
  io.field(next_pod_);
  io.list(pod_by_requester_, [&io](std::pair<SwitchId, std::uint16_t>& e) {
    io.field(e.first);
    io.field(e.second);
  });
  io.list(synced_switches_);

  io.list(installed_prunes_, [&io](DstKey& key, PruneMap& prunes) {
    io.field(key.pod);
    io.field(key.position);
    io.list(prunes, [&io](SwitchId& sw, std::set<SwitchId>& avoid) {
      io.field(sw);
      io.list(avoid);
    });
  });

  io.list(groups_, [&io](Ipv4Address& group, GroupState& state) {
    io.field(group);
    snapshot_port_map(io, state.receivers);
    io.list(state.senders);
  });

  io.list(installed_trees_, [&io](Ipv4Address& group, MulticastTree& tree) {
    io.field(group);
    io.field(tree.group);
    io.field(tree.core);
    snapshot_port_map(io, tree.ports);
  });
}

void FabricManager::snapshot_registry(sim::SnapshotIo& io,
                                      RegistryShard& s) {
  const auto record = [&io](Ipv4Address& ip, HostRecord& rec) {
    io.field(ip);
    io.field(rec.pmac);
    io.field(rec.amac);
    io.field(rec.edge);
    io.field(rec.edge_port);
  };
  const std::uint32_t n = io.count(s.hosts.size());
  if (!io.loading()) {
    s.hosts.for_each_sorted([&record](const FmRegistry<HostRecord>::Entry& e) {
      Ipv4Address ip = e.ip;
      HostRecord rec = e.rec;
      record(ip, rec);
    });
    return;
  }
  // A load replaces the shard's entries. Every entry belongs to the shard
  // it was saved from; one that another shard owns did not come from a
  // save under this configuration.
  s.hosts.clear();
  const std::size_t self = static_cast<std::size_t>(&s - shards_.data());
  for (std::uint32_t i = 0; i < n && io.ok(); ++i) {
    Ipv4Address ip;
    HostRecord rec;
    record(ip, rec);
    if (shard_of(ip) != self) {
      io.fail();
      return;
    }
    s.hosts.insert_or_assign(ip, rec);
  }
}

const char* FabricManager::snapshot(sim::SnapshotIo& io) {
  snapshot_core(io);
  // An image from another registry split or replica setting is refused,
  // as the fabric's restore contract requires the same options. (A reader
  // that already failed reports corruption, not a mismatch.)
  if (!io.ok()) return nullptr;
  if (!io.expect(static_cast<std::uint32_t>(shards_.size()))) {
    return "fm registry shard count mismatch";
  }
  if (!io.expect(config_.fm_replica)) return "fm replica setting mismatch";
  for (RegistryShard& s : shards_) {
    snapshot_registry(io, s);
    io.field(s.delta_version);
    io.field(s.dirty);
    io.counters(s.counters.cells());
    snapshot_sync_timer(io, s.sync_timer.get());
  }
  io.counters(counters_.cells());
  if (!config_.fm_replica) return nullptr;

  if (!io.expect(static_cast<std::uint32_t>(replica_.size()))) return nullptr;
  for (ReplicaSection& s : replica_) {
    io.field(s.version);
    io.blob(s.image);
  }
  io.field(core_version_);
  io.field(core_dirty_);
  snapshot_sync_timer(io, core_sync_timer_.get());
  return nullptr;
}

}  // namespace portland::core
