// Streaming statistics accumulators and the typed counter table.
//
// `Accumulator` keeps count/mean/variance (Welford) plus min/max without
// storing samples. Every per-device counter is declared once, in
// PORTLAND_COUNTERS below, as an id (`Counter`) plus the name tests,
// benches and metrics read it by. A `CounterSet` is a dense array with
// one cell per id: hot paths increment by id, snapshots store
// (id, value) pairs, and only the cold by-name read touches a string.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace portland {

class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  void reset();

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// X(name): every counter any device, the fabric manager or a host keeps,
// declared once. The id is Counter::name and the name its spelling, which
// tests, benches and metrics read; ids are positions and only ever appear
// in snapshot images of the same build.
#define PORTLAND_COUNTERS(X)                                            \
  /* Every device: frames and bytes through its ports. */               \
  X(tx_frames) X(tx_bytes) X(rx_frames) X(rx_bytes)                     \
  /* One per obs::DropReason, in DropReason order. */                   \
  X(rx_malformed) X(drop_before_located) X(drop_data_on_fabric_port)    \
  X(drop_bad_host_src) X(drop_unknown_local_dst) X(drop_no_uplink)      \
  X(drop_no_downlink) X(drop_no_pod_port) X(drop_unlocated)             \
  X(drop_mcast_no_ip) X(drop_mcast_no_entry) X(drop_link_down)          \
  X(drop_queue_full) X(tx_drop_unconnected)                             \
  /* PortLand switches. */                                              \
  X(host_broadcasts) X(migration_redirects) X(garp_consumed)            \
  X(arp_requests_intercepted) X(arp_negative_hits) X(arp_coalesced)     \
  X(arp_fallback_broadcasts) X(arp_proxied_replies)                     \
  X(arp_query_timeouts) X(migration_garps_sent) X(hosts_learned)        \
  X(prune_flushes) X(prune_updates_applied) X(mcast_install_bad_port)   \
  X(mcast_installs) X(invalidations_applied) X(location_updates)        \
  X(neighbors_lost) X(neighbors_recovered)                              \
  /* Baseline learning switches. */                                     \
  X(drop_port_blocked) X(drop_port_learning) X(floods)                  \
  /* Hosts and their vswitches. */                                      \
  X(drop_unknown_vm) X(garp_sent) X(rx_ignored) X(arp_replies_sent)     \
  X(rx_wrong_ip) X(tcp_rx_no_connection) X(rx_ip_other)                 \
  X(udp_rx_unjoined_group) X(udp_rx_unbound) X(igmp_joins_sent)         \
  X(igmp_leaves_sent) X(arp_pending_overflow) X(arp_requests_sent)      \
  X(arp_resolution_failed) X(arp_resolutions)                           \
  /* ARP resolution latency, log2 buckets (arp_latency_counter). */     \
  X(arp_latency_us_le_1) X(arp_latency_us_le_2)                         \
  X(arp_latency_us_le_4) X(arp_latency_us_le_8)                         \
  X(arp_latency_us_le_16) X(arp_latency_us_le_32)                       \
  X(arp_latency_us_le_64) X(arp_latency_us_le_128)                      \
  X(arp_latency_us_le_256) X(arp_latency_us_le_512)                     \
  X(arp_latency_us_le_1024) X(arp_latency_us_le_2048)                   \
  X(arp_latency_us_le_4096) X(arp_latency_us_le_8192)                   \
  X(arp_latency_us_le_16384) X(arp_latency_us_le_32768)                 \
  X(arp_latency_us_over)                                                \
  /* The fabric manager (primary and registry shards). */               \
  X(rx_total) X(failovers) X(replica_failovers)                         \
  X(migrations_detected) X(arp_queries) X(arp_misses) X(arp_hits)       \
  X(fault_notifications) X(fault_repairs) X(prune_updates_sent)         \
  X(mcast_trees_installed) X(mcast_trees_unavailable)

enum class Counter : std::uint16_t {
#define PORTLAND_COUNTER_ID(name) name,
  PORTLAND_COUNTERS(PORTLAND_COUNTER_ID)
#undef PORTLAND_COUNTER_ID
  kCount
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

[[nodiscard]] constexpr const char* counter_name(Counter c) {
  constexpr std::array<const char*, kCounterCount> kNames{
#define PORTLAND_COUNTER_NAME(name) #name,
      PORTLAND_COUNTERS(PORTLAND_COUNTER_NAME)
#undef PORTLAND_COUNTER_NAME
  };
  return kNames[static_cast<std::size_t>(c)];
}

/// Every id, sorted by name: the by-name read's binary-search index and
/// the order metrics render in.
inline constexpr std::array<Counter, kCounterCount> kCountersByName = [] {
  std::array<Counter, kCounterCount> ids{};
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    ids[i] = static_cast<Counter>(i);
  }
  std::sort(ids.begin(), ids.end(), [](Counter a, Counter b) {
    return std::string_view(counter_name(a)) < counter_name(b);
  });
  return ids;
}();

/// The `arp_latency_us_*` histogram: bucket b < 16 counts resolutions of
/// at most 2^b microseconds, bucket 16 ("over") the rest.
inline constexpr std::size_t kArpLatencyBuckets = 17;
static_assert(static_cast<std::size_t>(Counter::arp_latency_us_over) -
                  static_cast<std::size_t>(Counter::arp_latency_us_le_1) + 1 ==
              kArpLatencyBuckets);

[[nodiscard]] constexpr Counter arp_latency_counter(std::size_t bucket) {
  return static_cast<Counter>(
      static_cast<std::size_t>(Counter::arp_latency_us_le_1) + bucket);
}

/// One owner's counters: a cell per id, zero until counted.
class CounterSet {
 public:
  void add(Counter id, std::uint64_t delta = 1) {
    cells_[static_cast<std::size_t>(id)] += delta;
  }

  [[nodiscard]] std::uint64_t get(Counter id) const {
    return cells_[static_cast<std::size_t>(id)];
  }

  /// By-name read for tests, benches and reports (a binary search over
  /// kCountersByName); zero for a name no counter has.
  [[nodiscard]] std::uint64_t get(std::string_view name) const;

  void reset() { cells_.fill(0); }

  /// Adds `other` cell by cell (merging per-shard sets).
  CounterSet& operator+=(const CounterSet& other) {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      cells_[i] += other.cells_[i];
    }
    return *this;
  }

  [[nodiscard]] bool operator==(const CounterSet&) const = default;

  /// The cells, indexed by Counter (snapshot save/restore).
  [[nodiscard]] std::span<std::uint64_t> cells() { return cells_; }
  [[nodiscard]] std::span<const std::uint64_t> cells() const {
    return cells_;
  }

 private:
  std::array<std::uint64_t, kCounterCount> cells_{};
};

/// Computes the p-th percentile (0..100) of `values` by sorting a copy.
/// Returns 0 for an empty vector.
[[nodiscard]] double percentile(std::vector<double> values, double p);

}  // namespace portland
