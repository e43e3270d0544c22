// Unit tests for the common substrate: byte I/O, addresses, RNG, stats.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/byte_io.h"
#include "common/histogram.h"
#include "common/ipv4_address.h"
#include "common/mac_address.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/units.h"
#include "obs/drop_reason.h"

namespace portland {
namespace {

TEST(ByteIo, RoundTripScalars) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.str("portland");

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "portland");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining_size(), 0u);
}

TEST(ByteIo, BigEndianLayout) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u16(0x0102);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
}

TEST(ByteIo, UnderflowLatchesFailure) {
  const std::vector<std::uint8_t> buf = {0x01, 0x02};
  ByteReader r(buf);
  EXPECT_EQ(r.u16(), 0x0102);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // underflow
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // still failed
  EXPECT_FALSE(r.ok());
}

TEST(ByteIo, BytesAndSkip) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  const std::uint8_t data[4] = {1, 2, 3, 4};
  w.bytes(data);

  ByteReader r(buf);
  r.skip(1);
  std::uint8_t out[2] = {};
  r.bytes(out);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 3);
  EXPECT_EQ(r.remaining_size(), 1u);
}

TEST(MacAddress, RoundTripString) {
  const MacAddress m = MacAddress::parse("02:0a:0b:0c:0d:0e");
  EXPECT_EQ(m.to_string(), "02:0a:0b:0c:0d:0e");
  EXPECT_EQ(MacAddress::parse(m.to_string()), m);
}

TEST(MacAddress, ParseRejectsGarbage) {
  EXPECT_TRUE(MacAddress::parse("not a mac").is_zero());
  EXPECT_TRUE(MacAddress::parse("02:0a:0b").is_zero());
}

TEST(MacAddress, U64RoundTrip) {
  const std::uint64_t v = 0x0123456789ABULL;
  EXPECT_EQ(MacAddress::from_u64(v).to_u64(), v);
}

TEST(MacAddress, BroadcastAndMulticastBits) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_multicast());
  EXPECT_FALSE(MacAddress::from_u64(0x020000000001).is_multicast());
  EXPECT_TRUE(MacAddress::from_u64(0x01005E000001).is_multicast());
}

TEST(MacAddress, SerializeRoundTrip) {
  const MacAddress m = MacAddress::from_u64(0xA1B2C3D4E5F6ULL);
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  m.serialize(w);
  ByteReader r(buf);
  EXPECT_EQ(MacAddress::deserialize(r), m);
}

TEST(Ipv4Address, RoundTrip) {
  const Ipv4Address a(10, 1, 2, 3);
  EXPECT_EQ(a.to_string(), "10.1.2.3");
  EXPECT_EQ(Ipv4Address::parse("10.1.2.3"), a);
  EXPECT_TRUE(Ipv4Address::parse("999.1.1.1").is_zero());
  EXPECT_TRUE(Ipv4Address::parse("nope").is_zero());
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, UniformCoversRangeEnds) {
  Rng rng(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000 && !(lo && hi); ++i) {
    const std::int64_t v = rng.uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo |= (v == -3);
    hi |= (v == 3);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(13);
  const auto picks = rng.sample_indices(20, 8);
  ASSERT_EQ(picks.size(), 8u);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 8u);
  for (const auto p : picks) EXPECT_LT(p, 20u);
}

TEST(Rng, SampleIndicesRefusesCountAboveN) {
  Rng rng(13);
  EXPECT_EQ(rng.sample_indices(4, 4).size(), 4u);
  EXPECT_THROW((void)rng.sample_indices(4, 5), std::invalid_argument);
  EXPECT_THROW((void)rng.sample_indices(0, 1), std::invalid_argument);
}

TEST(Rng, ExponentialMeanApproximate) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Accumulator, Moments) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 0.01);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Percentile, Basics) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(CounterSet, AddAndGet) {
  CounterSet c;
  c.add(Counter::floods);
  c.add(Counter::floods, 4);
  EXPECT_EQ(c.get(Counter::floods), 5u);
  EXPECT_EQ(c.get("floods"), 5u);
  EXPECT_EQ(c.get(Counter::rx_frames), 0u);
  EXPECT_EQ(c.get("missing"), 0u);

  CounterSet d;
  d.add(Counter::floods, 2);
  d.add(Counter::rx_bytes, 7);
  c += d;
  EXPECT_EQ(c.get(Counter::floods), 7u);
  EXPECT_EQ(c.get(Counter::rx_bytes), 7u);
  EXPECT_FALSE(c == d);

  c.reset();
  EXPECT_TRUE(c == CounterSet{});
}

// Counter names are public surface: tests, benches, reports and metrics
// read them, so the table must stay unique, resolvable, and spelled as
// before.
TEST(CounterSet, NameTableIsPinned) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto id = static_cast<Counter>(i);
    const std::string_view name = counter_name(id);
    EXPECT_FALSE(name.empty()) << i;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    CounterSet c;
    c.add(id, i + 1);
    EXPECT_EQ(c.get(name), i + 1) << name;
    EXPECT_EQ(c.get(std::string(name)), i + 1) << name;
  }

  constexpr const char* kDropCounters[] = {
      "drop_none",           "rx_malformed",
      "drop_before_located", "drop_data_on_fabric_port",
      "drop_bad_host_src",   "drop_unknown_local_dst",
      "drop_no_uplink",      "drop_no_downlink",
      "drop_no_pod_port",    "drop_unlocated",
      "drop_mcast_no_ip",    "drop_mcast_no_entry",
      "drop_link_down",      "drop_queue_full",
      "tx_drop_unconnected",
  };
  static_assert(std::size(kDropCounters) == obs::kDropReasonCount);
  for (std::size_t r = 0; r < obs::kDropReasonCount; ++r) {
    const auto reason = static_cast<obs::DropReason>(r);
    EXPECT_STREQ(obs::drop_reason_counter(reason), kDropCounters[r]);
    if (r == 0) continue;  // kNone counts nothing
    CounterSet c;
    c.add(obs::drop_counter(reason));
    EXPECT_EQ(c.get(kDropCounters[r]), 1u) << kDropCounters[r];
  }
  // Both are drop reasons and plain counters, each a single cell.
  EXPECT_EQ(obs::drop_counter(obs::DropReason::kMalformed),
            Counter::rx_malformed);
  EXPECT_EQ(obs::drop_counter(obs::DropReason::kUnconnectedPort),
            Counter::tx_drop_unconnected);

  constexpr const char* kArpBuckets[] = {
      "arp_latency_us_le_1",     "arp_latency_us_le_2",
      "arp_latency_us_le_4",     "arp_latency_us_le_8",
      "arp_latency_us_le_16",    "arp_latency_us_le_32",
      "arp_latency_us_le_64",    "arp_latency_us_le_128",
      "arp_latency_us_le_256",   "arp_latency_us_le_512",
      "arp_latency_us_le_1024",  "arp_latency_us_le_2048",
      "arp_latency_us_le_4096",  "arp_latency_us_le_8192",
      "arp_latency_us_le_16384", "arp_latency_us_le_32768",
      "arp_latency_us_over",
  };
  static_assert(std::size(kArpBuckets) == kArpLatencyBuckets);
  for (std::size_t b = 0; b < kArpLatencyBuckets; ++b) {
    EXPECT_STREQ(counter_name(arp_latency_counter(b)), kArpBuckets[b]);
  }

  // Unknown names read zero, even from a set with every cell counted.
  CounterSet all;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    all.add(static_cast<Counter>(i));
  }
  for (const char* unknown : {"", "missing", "a", "zzz", "tx_frame",
                              "tx_framesx", "arp_latency_us_le_3"}) {
    EXPECT_EQ(all.get(unknown), 0u) << unknown;
  }
}

TEST(Histogram, CdfMonotone) {
  Histogram h(0, 100, 10);
  for (int i = 0; i < 100; ++i) h.add(i);
  double prev = 0;
  for (std::size_t b = 0; b < h.bucket_count(); ++b) {
    EXPECT_GE(h.cdf_at(b), prev);
    prev = h.cdf_at(b);
  }
  EXPECT_DOUBLE_EQ(h.cdf_at(h.bucket_count() - 1), 1.0);
}

TEST(Histogram, ClampsOutliers) {
  Histogram h(0, 10, 5);
  h.add(-100);
  h.add(1e9);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
}

TEST(Stats, PercentileEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);   // empty -> 0, not a crash
  EXPECT_DOUBLE_EQ(percentile({7.5}, 0), 7.5);  // single sample, any p
  EXPECT_DOUBLE_EQ(percentile({7.5}, 50), 7.5);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 100), 7.5);
  // Out-of-range p clamps to the extremes.
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3}, -5), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3}, 400), 3.0);
  // Midpoint interpolates between neighbors.
  EXPECT_DOUBLE_EQ(percentile({10, 20}, 50), 15.0);
}

TEST(Stats, AccumulatorEdgeCases) {
  Accumulator a;
  // Empty: everything is zero, not NaN or garbage.
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
  // One sample: sample variance (n-1 denominator) is still zero.
  a.add(-3.0);
  EXPECT_DOUBLE_EQ(a.mean(), -3.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), -3.0);
  EXPECT_DOUBLE_EQ(a.max(), -3.0);
  // Two samples: variance turns on.
  a.add(5.0);
  EXPECT_DOUBLE_EQ(a.mean(), 1.0);
  EXPECT_DOUBLE_EQ(a.variance(), 32.0);  // ((-4)^2 + 4^2) / (2-1)
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Histogram, EmptyCdfIsZero) {
  Histogram h(0, 10, 4);
  EXPECT_EQ(h.total(), 0u);
  for (std::size_t b = 0; b < h.bucket_count(); ++b) {
    EXPECT_DOUBLE_EQ(h.cdf_at(b), 0.0);
  }
  EXPECT_EQ(h.render_cdf(), "");
}

TEST(Histogram, SingleBucketTakesEverything) {
  Histogram h(0, 1, 1);
  h.add(-1e12);
  h.add(0.5);
  h.add(1e12);
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_DOUBLE_EQ(h.cdf_at(0), 1.0);
}

TEST(Histogram, BoundaryValuesLandInEdgeBuckets) {
  Histogram h(0, 10, 5);
  h.add(0);     // exactly lo -> first bucket
  h.add(10);    // exactly hi -> clamped into last bucket
  h.add(9.999);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(4), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Strings, Format) {
  EXPECT_EQ(str_format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
}

TEST(Units, Conversions) {
  EXPECT_EQ(millis(1), 1'000'000);
  EXPECT_EQ(seconds(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(to_millis(millis(65)), 65.0);
  EXPECT_EQ(format_time(millis(12)), "12.000ms");
  EXPECT_EQ(format_time(500), "500ns");
}

}  // namespace
}  // namespace portland
