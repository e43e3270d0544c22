#include "obs/convergence_monitor.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace portland::obs {

namespace {

void append_ms_field(std::string* out, const char* key, SimTime base,
                     SimTime stage, bool trailing_comma = true) {
  char buf[96];
  if (stage == 0) {
    std::snprintf(buf, sizeof(buf), "\"%s\":null%s", key,
                  trailing_comma ? "," : "");
  } else {
    std::snprintf(buf, sizeof(buf), "\"%s\":%.3f%s", key,
                  static_cast<double>(stage - base) / 1e6,
                  trailing_comma ? "," : "");
  }
  out->append(buf);
}

/// The trace id a frame's path is checked under: 0 unless the frame is
/// traced and unicast. Multicast replicas share one trace id across
/// their branches, so they have no single path. `data` holds at least an
/// Ethernet header (the caller parsed a valid IPv4 flow key from it).
[[nodiscard]] std::uint64_t path_id(std::uint64_t trace_id,
                                    const std::uint8_t* data) {
  return (data[0] & 1) != 0 ? 0 : trace_id;
}

[[nodiscard]] constexpr std::uint8_t bit_of(PathInvariant kind) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(kind));
}

}  // namespace

const char* path_invariant_name(PathInvariant kind) {
  switch (kind) {
    case PathInvariant::kRevisit:
      return "revisit";
    case PathInvariant::kValley:
      return "valley";
    case PathInvariant::kLateral:
      return "lateral";
    case PathInvariant::kTooLong:
      return "too_long";
  }
  return "unknown";
}

FlowKey parse_flow_key(const std::uint8_t* data, std::size_t size) {
  FlowKey key;
  if (data == nullptr || size < 14 + 20) return key;
  if (data[12] != 0x08 || data[13] != 0x00) return key;  // not IPv4
  const std::uint8_t* ip = data + 14;
  if ((ip[0] >> 4) != 4) return key;
  const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0f) * 4;
  if (ihl < 20 || size < 14 + ihl) return key;
  const std::uint8_t proto = ip[9];
  const std::uint64_t src_ip = static_cast<std::uint64_t>(ip[12]) << 24 |
                               static_cast<std::uint64_t>(ip[13]) << 16 |
                               static_cast<std::uint64_t>(ip[14]) << 8 |
                               static_cast<std::uint64_t>(ip[15]);
  const std::uint64_t dst_ip = static_cast<std::uint64_t>(ip[16]) << 24 |
                               static_cast<std::uint64_t>(ip[17]) << 16 |
                               static_cast<std::uint64_t>(ip[18]) << 8 |
                               static_cast<std::uint64_t>(ip[19]);
  std::uint64_t src_port = 0;
  std::uint64_t dst_port = 0;
  if ((proto == 6 || proto == 17) && size >= 14 + ihl + 4) {
    const std::uint8_t* l4 = ip + ihl;
    src_port = static_cast<std::uint64_t>(l4[0]) << 8 | l4[1];
    dst_port = static_cast<std::uint64_t>(l4[2]) << 8 | l4[3];
  }
  key.hi = src_ip << 32 | dst_ip;
  key.lo = src_port << 24 | dst_port << 8 | proto;
  return key;
}

std::string flow_key_to_string(const FlowKey& key) {
  if (!key.valid()) return "invalid";
  const std::uint32_t src = static_cast<std::uint32_t>(key.hi >> 32);
  const std::uint32_t dst = static_cast<std::uint32_t>(key.hi);
  const unsigned src_port = static_cast<unsigned>(key.lo >> 24 & 0xffff);
  const unsigned dst_port = static_cast<unsigned>(key.lo >> 8 & 0xffff);
  const unsigned proto = static_cast<unsigned>(key.lo & 0xff);
  char proto_buf[16];
  const char* proto_name = proto_buf;
  if (proto == 6) {
    proto_name = "tcp";
  } else if (proto == 17) {
    proto_name = "udp";
  } else {
    std::snprintf(proto_buf, sizeof(proto_buf), "%u", proto);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u:%u->%u.%u.%u.%u:%u/%s",
                src >> 24, src >> 16 & 0xff, src >> 8 & 0xff, src & 0xff,
                src_port, dst >> 24, dst >> 16 & 0xff, dst >> 8 & 0xff,
                dst & 0xff, dst_port, proto_name);
  return buf;
}

ConvergenceMonitor::ConvergenceMonitor(std::size_t shard_count,
                                       Options options)
    : options_(options), shards_(shard_count == 0 ? 1 : shard_count) {}

void ConvergenceMonitor::append(std::uint32_t shard, Event e) {
  ShardState& s = shard_for(shard);
  if (s.events.size() >= options_.max_events_per_shard) {
    ++s.overflow;
    return;
  }
  e.seq = s.seq++;
  s.events.push_back(e);
}

void ConvergenceMonitor::on_link_event(std::uint32_t shard, SimTime t,
                                       const char* a, const char* b,
                                       bool up) {
  Event e;
  e.time = t;
  e.kind = up ? EventKind::kLinkUp : EventKind::kLinkDown;
  e.a = a;
  e.b = b;
  append(shard, e);
}

void ConvergenceMonitor::on_neighbor_event(std::uint32_t shard, SimTime t,
                                           const char* sw, bool lost) {
  Event e;
  e.time = t;
  e.kind = lost ? EventKind::kNeighborLost : EventKind::kNeighborBack;
  e.a = sw;
  append(shard, e);
}

void ConvergenceMonitor::on_fault_notify(std::uint32_t shard, SimTime t,
                                         bool link_up) {
  Event e;
  e.time = t;
  e.kind = link_up ? EventKind::kFaultRepair : EventKind::kFaultNotify;
  append(shard, e);
}

void ConvergenceMonitor::on_prune_install(std::uint32_t shard, SimTime t,
                                          const char* sw) {
  Event e;
  e.time = t;
  e.kind = EventKind::kPruneInstall;
  e.a = sw;
  append(shard, e);
}

void ConvergenceMonitor::on_hop(std::uint32_t shard, SimTime t,
                                const char* device, HopEvent event,
                                std::uint64_t trace_id,
                                const std::uint8_t* data, std::size_t size,
                                std::uint8_t level) {
  if (event != HopEvent::kDeliver && event != HopEvent::kIngress) return;
  const FlowKey flow = parse_flow_key(data, size);
  if (!flow.valid()) return;
  Event e;
  e.time = t;
  e.a = device;
  e.trace_id = path_id(trace_id, data);
  if (event == HopEvent::kDeliver) {
    e.kind = EventKind::kFlowDeliver;
    e.flow = flow;
  } else {
    if (e.trace_id == 0) return;
    e.kind = EventKind::kSwitchIngress;
    e.level = level;
  }
  append(shard, e);
}

void ConvergenceMonitor::on_drop(std::uint32_t shard, SimTime t,
                                 std::uint64_t trace_id,
                                 const std::uint8_t* data,
                                 std::size_t size) {
  const FlowKey flow = parse_flow_key(data, size);
  if (!flow.valid()) return;
  Event e;
  e.time = t;
  e.kind = EventKind::kFlowDrop;
  e.flow = flow;
  e.trace_id = path_id(trace_id, data);
  append(shard, e);
}

void ConvergenceMonitor::advance() {
  // Drain every shard buffer, then process in canonical
  // (time, shard, seq) order — the same total order for any worker count.
  struct Tagged {
    Event e;
    std::uint32_t shard = 0;
  };
  std::vector<Tagged> drained;
  std::size_t total = 0;
  for (const ShardState& s : shards_) total += s.events.size();
  if (total == 0) return;
  drained.reserve(total);
  for (std::uint32_t i = 0; i < shards_.size(); ++i) {
    for (const Event& e : shards_[i].events) drained.push_back({e, i});
    shards_[i].events.clear();  // capacity retained for the next window
  }
  std::sort(drained.begin(), drained.end(),
            [](const Tagged& x, const Tagged& y) {
              if (x.e.time != y.e.time) return x.e.time < y.e.time;
              if (x.shard != y.shard) return x.shard < y.shard;
              return x.e.seq < y.e.seq;
            });
  for (const Tagged& t : drained) process(t.e);
}

void ConvergenceMonitor::process(const Event& e) {
  switch (e.kind) {
    case EventKind::kLinkDown:
      open_timeline(e);
      break;
    case EventKind::kLinkUp:
      for (std::size_t i = 0; i < open_.size(); ++i) {
        const FailureTimeline& tl = open_[i];
        const bool same =
            (std::strcmp(tl.endpoint_a, e.a) == 0 &&
             std::strcmp(tl.endpoint_b, e.b) == 0) ||
            (std::strcmp(tl.endpoint_a, e.b) == 0 &&
             std::strcmp(tl.endpoint_b, e.a) == 0);
        if (same) {
          // Repaired before a reroute was even installed = a flap: the
          // reaction chain never completed for this failure.
          close_timeline(i, e.time, /*flapped=*/tl.reroute == 0,
                         /*count_unresolved=*/false);
          break;
        }
      }
      break;
    case EventKind::kNeighborLost:
      for (FailureTimeline& tl : open_) {
        if (tl.detect != 0) continue;
        if (std::strcmp(tl.endpoint_a, e.a) == 0 ||
            std::strcmp(tl.endpoint_b, e.a) == 0) {
          tl.detect = e.time;
        }
      }
      break;
    case EventKind::kNeighborBack:
      break;
    case EventKind::kFaultNotify:
      // The FM does not tell us which link a notify was for, so the
      // stage attaches to every open timeline that has been detected but
      // not yet notified — a deterministic approximation that is exact
      // for single failures and shares the stage across overlapping ones.
      for (FailureTimeline& tl : open_) {
        if (tl.notify == 0 && tl.detect != 0) tl.notify = e.time;
      }
      break;
    case EventKind::kFaultRepair:
      break;
    case EventKind::kPruneInstall:
      for (FailureTimeline& tl : open_) {
        if (tl.reroute == 0 && tl.notify != 0) tl.reroute = e.time;
      }
      break;
    case EventKind::kSwitchIngress:
      path_hop(e);
      break;
    case EventKind::kFlowDrop: {
      if (e.trace_id != 0) open_paths_.erase(e.trace_id);
      if (open_.empty()) break;  // flows only tracked during failures
      for (const OpenWindow& w : open_windows_) {
        if (w.flow == e.flow) return;  // window already open
      }
      // Attribute the window to the most recent failure at the drop time.
      const FailureTimeline* owner = nullptr;
      for (const FailureTimeline& tl : open_) {
        if (tl.link_down <= e.time &&
            (owner == nullptr || tl.link_down > owner->link_down)) {
          owner = &tl;
        }
      }
      if (owner == nullptr) owner = &open_.back();
      open_windows_.push_back(OpenWindow{e.flow, e.time, owner->id});
      break;
    }
    case EventKind::kFlowDeliver:
      if (e.trace_id != 0) {
        // A delivery without ingress hops crossed no PortLand switch
        // (e.g. a hypervisor vswitch kept it local): a 0-hop path.
        std::size_t hops = 0;
        if (const auto it = open_paths_.find(e.trace_id);
            it != open_paths_.end()) {
          hops = it->second.hops;
          open_paths_.erase(it);
        }
        ++path_hops_[hops];
        ++paths_completed_;
      }
      for (std::size_t i = 0; i < open_windows_.size(); ++i) {
        if (!(open_windows_[i].flow == e.flow)) continue;
        const OpenWindow w = open_windows_[i];
        open_windows_.erase(open_windows_.begin() +
                            static_cast<std::ptrdiff_t>(i));
        for (FailureTimeline& tl : open_) {
          if (tl.id != w.timeline_id) continue;
          tl.blackholes.push_back(
              BlackholeWindow{w.flow, w.first_loss, e.time});
          if (tl.reroute != 0 && tl.recovered == 0) tl.recovered = e.time;
          break;
        }
        break;
      }
      break;
  }
}

void ConvergenceMonitor::path_hop(const Event& e) {
  OpenPath& path = open_paths_[e.trace_id];
  // After a revisit the list stops growing, so a looping frame's list
  // stays bounded by the switches it reached before the loop.
  if ((path.flagged & bit_of(PathInvariant::kRevisit)) == 0) {
    if (std::find(path.visited.begin(), path.visited.end(), e.a) !=
        path.visited.end()) {
      flag(e, path, PathInvariant::kRevisit);
    } else {
      path.visited.push_back(e.a);
    }
  }
  if (++path.hops > kMaxSwitchHops) flag(e, path, PathInvariant::kTooLong);
  // Levels rise, then fall, and never rise again; the first valley or
  // lateral hop ends the level check for this path.
  constexpr std::uint8_t kLevelRules =
      bit_of(PathInvariant::kValley) | bit_of(PathInvariant::kLateral);
  if (path.hops > 1 && (path.flagged & kLevelRules) == 0) {
    if (e.level < path.last_level) {
      path.descending = true;
    } else if (path.descending && e.level > path.last_level) {
      flag(e, path, PathInvariant::kValley);
    } else if (e.level == path.last_level) {
      flag(e, path, PathInvariant::kLateral);
    }
  }
  path.last_level = e.level;
}

void ConvergenceMonitor::flag(const Event& e, OpenPath& path,
                              PathInvariant kind) {
  if ((path.flagged & bit_of(kind)) != 0) return;
  path.flagged |= bit_of(kind);
  ++path_violations_;
  if (violation_details_.size() < kMaxViolationDetails) {
    violation_details_.push_back(PathViolation{e.time, e.trace_id, kind, e.a});
  }
}

void ConvergenceMonitor::open_timeline(const Event& e) {
  for (const FailureTimeline& tl : open_) {
    const bool same = (std::strcmp(tl.endpoint_a, e.a) == 0 &&
                       std::strcmp(tl.endpoint_b, e.b) == 0) ||
                      (std::strcmp(tl.endpoint_a, e.b) == 0 &&
                       std::strcmp(tl.endpoint_b, e.a) == 0);
    if (same) return;  // already tracking this link's failure
  }
  FailureTimeline tl;
  tl.id = next_timeline_id_++;
  tl.endpoint_a = e.a;
  tl.endpoint_b = e.b;
  tl.link.assign(e.a);
  tl.link.append("<->");
  tl.link.append(e.b);
  tl.link_down = e.time;
  open_.push_back(std::move(tl));
  ++timelines_total_;
}

void ConvergenceMonitor::close_timeline(std::size_t index, SimTime repaired,
                                        bool flapped,
                                        bool count_unresolved) {
  FailureTimeline tl = std::move(open_[index]);
  open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(index));
  tl.repaired = repaired;
  tl.flapped = flapped;
  // Move this failure's still-open windows into the timeline, unclosed.
  // On a repair closure the link itself restores connectivity, so an
  // unclosed window is lifecycle, not a blackhole violation; on a
  // finalize() closure it means the flow never saw a frame again.
  for (std::size_t i = 0; i < open_windows_.size();) {
    if (open_windows_[i].timeline_id == tl.id) {
      tl.blackholes.push_back(BlackholeWindow{
          open_windows_[i].flow, open_windows_[i].first_loss, 0});
      if (count_unresolved) ++unresolved_blackholes_;
      open_windows_.erase(open_windows_.begin() +
                          static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  completed_.push_back(std::move(tl));
  if (completed_.size() > options_.max_completed) {
    completed_.erase(completed_.begin());
    ++completed_dropped_;
  }
}

void ConvergenceMonitor::finalize() {
  advance();
  while (!open_.empty()) {
    close_timeline(0, /*repaired=*/0, /*flapped=*/false,
                   /*count_unresolved=*/true);
  }
}

std::uint64_t ConvergenceMonitor::events_captured() const {
  std::uint64_t total = 0;
  for (const ShardState& s : shards_) total += s.seq;
  return total;
}

std::uint64_t ConvergenceMonitor::events_overflowed() const {
  std::uint64_t total = 0;
  for (const ShardState& s : shards_) total += s.overflow;
  return total;
}

std::uint64_t ConvergenceMonitor::unresolved_blackholes() const {
  return unresolved_blackholes_;
}

void ConvergenceMonitor::write_timelines_jsonl(std::string* out) const {
  char buf[160];
  for (const FailureTimeline& tl : completed_) {
    std::snprintf(buf, sizeof(buf), "{\"id\":%" PRIu64 ",\"link\":\"",
                  tl.id);
    out->append(buf);
    out->append(tl.link);  // device names: [a-z0-9-], no JSON escapes
    std::snprintf(buf, sizeof(buf), "\",\"t_down_ns\":%" PRId64 ",",
                  static_cast<std::int64_t>(tl.link_down));
    out->append(buf);
    append_ms_field(out, "detect_ms", tl.link_down, tl.detect);
    append_ms_field(out, "notify_ms", tl.link_down, tl.notify);
    append_ms_field(out, "reroute_ms", tl.link_down, tl.reroute);
    append_ms_field(out, "recovered_ms", tl.link_down, tl.recovered);
    append_ms_field(out, "convergence_ms", 0, tl.convergence());
    out->append(tl.repaired != 0 ? "\"repaired\":true," :
                                   "\"repaired\":false,");
    out->append(tl.flapped ? "\"flapped\":true," : "\"flapped\":false,");
    out->append("\"blackholes\":[");
    for (std::size_t i = 0; i < tl.blackholes.size(); ++i) {
      const BlackholeWindow& w = tl.blackholes[i];
      if (i != 0) out->append(",");
      out->append("{\"flow\":\"");
      out->append(flow_key_to_string(w.flow));
      std::snprintf(buf, sizeof(buf), "\",\"start_ns\":%" PRId64 ",",
                    static_cast<std::int64_t>(w.first_loss));
      out->append(buf);
      if (w.closed()) {
        std::snprintf(buf, sizeof(buf),
                      "\"end_ns\":%" PRId64 ",\"ms\":%.3f}",
                      static_cast<std::int64_t>(w.first_recovery),
                      static_cast<double>(w.duration()) / 1e6);
        out->append(buf);
      } else {
        out->append("\"end_ns\":null,\"ms\":null}");
      }
    }
    out->append("]}\n");
  }
}

void ConvergenceMonitor::render_prometheus(std::string* out) const {
  char buf[192];
  const std::pair<const char*, std::uint64_t> totals[] = {
      {"portland_convergence_timelines_completed",
       static_cast<std::uint64_t>(completed_.size()) + completed_dropped_},
      {"portland_convergence_timelines_open",
       static_cast<std::uint64_t>(open_.size())},
      {"portland_convergence_events_captured", events_captured()},
      {"portland_convergence_events_overflowed", events_overflowed()},
      {"portland_convergence_path_violations", path_violations_},
      {"portland_convergence_unresolved_blackholes",
       unresolved_blackholes_},
  };
  for (const auto& [name, value] : totals) {
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", name, value);
    out->append(buf);
  }
  // Per-timeline samples for the most recent completions (labels are
  // device names, [a-z0-9-] only — no escaping needed).
  constexpr std::size_t kMaxRendered = 128;
  const std::size_t first =
      completed_.size() > kMaxRendered ? completed_.size() - kMaxRendered
                                       : 0;
  for (std::size_t i = first; i < completed_.size(); ++i) {
    const FailureTimeline& tl = completed_[i];
    if (tl.convergence() != 0) {
      std::snprintf(buf, sizeof(buf),
                    "portland_convergence_ms{link=\"%s\",id=\"%" PRIu64
                    "\"} %.3f\n",
                    tl.link.c_str(), tl.id,
                    static_cast<double>(tl.convergence()) / 1e6);
      out->append(buf);
    }
    if (tl.detect != 0) {
      std::snprintf(buf, sizeof(buf),
                    "portland_convergence_detect_ms{link=\"%s\",id=\"%" PRIu64
                    "\"} %.3f\n",
                    tl.link.c_str(), tl.id,
                    static_cast<double>(tl.detect - tl.link_down) / 1e6);
      out->append(buf);
    }
    for (const BlackholeWindow& w : tl.blackholes) {
      if (!w.closed()) continue;
      std::snprintf(buf, sizeof(buf),
                    "portland_blackhole_ms{link=\"%s\",flow=\"%s\"} %.3f\n",
                    tl.link.c_str(), flow_key_to_string(w.flow).c_str(),
                    static_cast<double>(w.duration()) / 1e6);
      out->append(buf);
    }
  }
}

void ConvergenceMonitor::clear() {
  for (ShardState& s : shards_) {
    s.events.clear();
    s.seq = 0;
    s.overflow = 0;
  }
  open_.clear();
  completed_.clear();
  open_windows_.clear();
  timelines_total_ = 0;
  next_timeline_id_ = 1;
  unresolved_blackholes_ = 0;
  completed_dropped_ = 0;
  open_paths_.clear();
  path_hops_.clear();
  violation_details_.clear();
  path_violations_ = 0;
  paths_completed_ = 0;
}

}  // namespace portland::obs
