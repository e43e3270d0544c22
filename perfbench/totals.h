// Raw cumulative counters read from the library's public accessors at a
// quiescent point. Per-layer metrics are deltas between two captures.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "metrics.h"
#include "net/packet.h"
#include "obs/drop_reason.h"

namespace perfbench {

struct Totals {
  // Engine.
  std::uint64_t executed = 0, nodes_pushed = 0, train_frames = 0,
                trains_popped = 0, train_repushes = 0, cascaded = 0,
                windows = 0, mail = 0, windows_inline = 0;
  // Links.
  std::uint64_t hops = 0, link_drops = 0;
  // Switches.
  std::uint64_t fc_hits = 0, fc_misses = 0, fib_rebuilds = 0,
                arp_coalesced = 0, arp_negative_hits = 0, switch_drops = 0,
                ldms = 0;
  // Fabric manager.
  std::vector<std::uint64_t> fm_queries;  // per registry shard
  std::uint64_t faults = 0, prunes = 0;
  // Hosts (only when captured with hosts).
  std::uint64_t resolutions = 0, arp_requests = 0, arp_failed = 0;
  Log2Histogram arp_hist;
  // Parser and allocator.
  std::uint64_t parse_calls = 0, meta_hits = 0, allocs = 0, alloc_bytes = 0;

  [[nodiscard]] std::uint64_t fm_query_total() const {
    std::uint64_t n = 0;
    for (const std::uint64_t q : fm_queries) n += q;
    return n;
  }
};

/// Host resolution counters only: cheap enough to read once per round.
inline std::uint64_t host_resolutions(const portland::core::PortlandFabric& f) {
  std::uint64_t n = 0;
  for (const portland::host::Host* h : f.hosts()) {
    n += h->counters().get("arp_resolutions");
  }
  return n;
}

/// Reads every counter. `with_hosts` adds the per-host ARP counters,
/// which cost a string lookup per host and are skipped on paths that
/// capture once per query.
inline Totals capture(portland::core::PortlandFabric& f,
                      const std::atomic<std::uint64_t>& allocs,
                      const std::atomic<std::uint64_t>& alloc_bytes,
                      bool with_hosts) {
  // Names built once: a capture per what-if query must stay cheap.
  static const std::string kCoalesced = "arp_coalesced";
  static const std::string kNegativeHits = "arp_negative_hits";
  static const std::vector<std::string> kDropNames = [] {
    std::vector<std::string> names;
    for (std::size_t r = 1; r < portland::obs::kDropReasonCount; ++r) {
      names.emplace_back(portland::obs::drop_reason_counter(
          static_cast<portland::obs::DropReason>(r)));
    }
    return names;
  }();
  Totals t;
  // Read first, so the string temporaries below are not counted.
  t.allocs = allocs.load(std::memory_order_relaxed);
  t.alloc_bytes = alloc_bytes.load(std::memory_order_relaxed);
  portland::sim::Simulator& sim = f.sim();
  t.executed = sim.executed_events();
  t.nodes_pushed = sim.nodes_pushed();
  t.train_frames = sim.train_frames();
  t.trains_popped = sim.trains_popped();
  t.train_repushes = sim.train_repushes();
  t.cascaded = sim.wheel_stats().cascaded_nodes;
  t.windows = sim.windows_executed();
  t.mail = sim.mail_merged();
  t.windows_inline = sim.windows_inline();
  for (const auto* link : f.network().links()) {
    t.hops += link->tx_frames(0) + link->tx_frames(1);
    t.link_drops += link->dropped_frames(0) + link->dropped_frames(1);
  }
  for (const portland::core::PortlandSwitch* sw : f.switches()) {
    t.fc_hits += sw->flow_cache_hits();
    t.fc_misses += sw->flow_cache_misses();
    t.fib_rebuilds += sw->fib_rebuilds();
    t.ldms += sw->ldp().ldms_sent();
    const auto& c = sw->counters();
    t.arp_coalesced += c.get(kCoalesced);
    t.arp_negative_hits += c.get(kNegativeHits);
    for (const std::string& name : kDropNames) t.switch_drops += c.get(name);
  }
  const portland::core::FabricManager& fm = f.fabric_manager();
  for (std::size_t s = 0; s < fm.shard_count(); ++s) {
    t.fm_queries.push_back(fm.shard_counters(s).get("arp_queries"));
  }
  const portland::CounterSet& fmc = fm.counters();
  t.faults = fmc.get("fault_notifications");
  t.prunes = fmc.get("prune_updates_sent");
  if (with_hosts) {
    static const std::vector<std::string> kBuckets = [] {
      std::vector<std::string> names;
      for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
        names.push_back("arp_latency_us_le_" + std::to_string(1u << b));
      }
      return names;
    }();
    for (const portland::host::Host* h : f.hosts()) {
      const auto& c = h->counters();
      t.resolutions += c.get("arp_resolutions");
      t.arp_requests += c.get("arp_requests_sent");
      t.arp_failed += c.get("arp_resolution_failed");
      for (int b = 0; b < Log2Histogram::kBuckets; ++b) {
        t.arp_hist.le[b] += c.get(kBuckets[static_cast<std::size_t>(b)]);
      }
      t.arp_hist.over += c.get("arp_latency_us_over");
    }
  }
  const portland::net::ParseStats ps = portland::net::parse_stats();
  t.parse_calls = ps.parse_calls;
  t.meta_hits = ps.meta_hits;
  return t;
}

/// b - a, field by field (FM shard vectors element-wise).
inline Totals delta(const Totals& b, const Totals& a) {
  Totals d;
#define PB_D(f) d.f = b.f - a.f
  PB_D(executed); PB_D(nodes_pushed); PB_D(train_frames);
  PB_D(trains_popped); PB_D(train_repushes); PB_D(cascaded);
  PB_D(windows); PB_D(mail); PB_D(windows_inline);
  PB_D(hops); PB_D(link_drops);
  PB_D(fc_hits); PB_D(fc_misses); PB_D(fib_rebuilds); PB_D(arp_coalesced);
  PB_D(arp_negative_hits); PB_D(switch_drops); PB_D(ldms);
  PB_D(faults); PB_D(prunes);
  PB_D(resolutions); PB_D(arp_requests); PB_D(arp_failed);
  PB_D(parse_calls); PB_D(meta_hits); PB_D(allocs); PB_D(alloc_bytes);
#undef PB_D
  for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
    d.arp_hist.le[i] = b.arp_hist.le[i] - a.arp_hist.le[i];
  }
  d.arp_hist.over = b.arp_hist.over - a.arp_hist.over;
  d.fm_queries.resize(b.fm_queries.size());
  for (std::size_t i = 0; i < b.fm_queries.size(); ++i) {
    d.fm_queries[i] =
        b.fm_queries[i] - (i < a.fm_queries.size() ? a.fm_queries[i] : 0);
  }
  return d;
}

/// a += d (accumulating per-query deltas of a forked workload).
inline void accumulate(Totals& a, const Totals& d) {
#define PB_A(f) a.f += d.f
  PB_A(executed); PB_A(nodes_pushed); PB_A(train_frames);
  PB_A(trains_popped); PB_A(train_repushes); PB_A(cascaded);
  PB_A(windows); PB_A(mail); PB_A(windows_inline);
  PB_A(hops); PB_A(link_drops);
  PB_A(fc_hits); PB_A(fc_misses); PB_A(fib_rebuilds); PB_A(arp_coalesced);
  PB_A(arp_negative_hits); PB_A(switch_drops); PB_A(ldms);
  PB_A(faults); PB_A(prunes);
  PB_A(resolutions); PB_A(arp_requests); PB_A(arp_failed);
  PB_A(parse_calls); PB_A(meta_hits); PB_A(allocs); PB_A(alloc_bytes);
#undef PB_A
  for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
    a.arp_hist.le[i] += d.arp_hist.le[i];
  }
  a.arp_hist.over += d.arp_hist.over;
  a.fm_queries.resize(std::max(a.fm_queries.size(), d.fm_queries.size()));
  for (std::size_t i = 0; i < d.fm_queries.size(); ++i) {
    a.fm_queries[i] += d.fm_queries[i];
  }
}

}  // namespace perfbench
