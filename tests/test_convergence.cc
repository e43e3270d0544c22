// ConvergenceMonitor unit tests: the failure-timeline state machine fed
// with synthetic event streams (flap during reroute, zero affected
// flows, overlapping failures, unresolved blackholes), §3.5's per-packet
// path invariants, 5-tuple parsing, the JSONL/Prometheus
// renderers, and a real-socket round trip through the HTTP exporter.
//
// The end-to-end feeds (devices, FM, links) are covered by the soak
// suite (Soak.ConvergenceMonitorIsInvisibleToExecution) and E21.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/convergence_monitor.h"
#include "obs/http_exporter.h"

namespace portland::obs {
namespace {

// Stable name pointers: the monitor matches stages by endpoint identity
// the way it does in the fabric (device name strings outlive it).
constexpr char kEdge[] = "edge-p0-0";
constexpr char kAgg[] = "agg-p0-0";
constexpr char kEdge2[] = "edge-p1-0";
constexpr char kCore[] = "core-0-0";

std::vector<std::uint8_t> udp_frame(std::uint32_t src_ip,
                                    std::uint32_t dst_ip,
                                    std::uint16_t src_port,
                                    std::uint16_t dst_port,
                                    std::uint8_t proto = 17) {
  std::vector<std::uint8_t> f(14 + 20 + 8, 0);
  f[12] = 0x08;  // EtherType IPv4
  f[13] = 0x00;
  f[14] = 0x45;  // version 4, IHL 5
  f[14 + 9] = proto;
  for (int i = 0; i < 4; ++i) {
    f[14 + 12 + i] = static_cast<std::uint8_t>(src_ip >> (24 - 8 * i));
    f[14 + 16 + i] = static_cast<std::uint8_t>(dst_ip >> (24 - 8 * i));
  }
  f[34] = static_cast<std::uint8_t>(src_port >> 8);
  f[35] = static_cast<std::uint8_t>(src_port);
  f[36] = static_cast<std::uint8_t>(dst_port >> 8);
  f[37] = static_cast<std::uint8_t>(dst_port);
  return f;
}

TEST(FlowKey, ParsesEthernetIpv4Frames) {
  const auto udp = udp_frame(0x0A000001, 0x0A010002, 7100, 7100);
  const FlowKey key = parse_flow_key(udp.data(), udp.size());
  ASSERT_TRUE(key.valid());
  EXPECT_EQ(flow_key_to_string(key), "10.0.0.1:7100->10.1.0.2:7100/udp");

  const auto tcp = udp_frame(0x0A000001, 0x0A010002, 5001, 80, 6);
  EXPECT_EQ(flow_key_to_string(parse_flow_key(tcp.data(), tcp.size())),
            "10.0.0.1:5001->10.1.0.2:80/tcp");

  // Non-TCP/UDP protocols parse with zero ports.
  const auto icmp = udp_frame(0x0A000001, 0x0A010002, 0, 0, 1);
  const FlowKey icmp_key = parse_flow_key(icmp.data(), icmp.size());
  ASSERT_TRUE(icmp_key.valid());
  EXPECT_EQ(flow_key_to_string(icmp_key), "10.0.0.1:0->10.1.0.2:0/1");

  // Non-IPv4 EtherType and truncated headers are rejected.
  auto arp = udp_frame(1, 2, 3, 4);
  arp[12] = 0x08;
  arp[13] = 0x06;
  EXPECT_FALSE(parse_flow_key(arp.data(), arp.size()).valid());
  EXPECT_FALSE(parse_flow_key(udp.data(), 20).valid());
  EXPECT_FALSE(parse_flow_key(nullptr, 100).valid());
}

TEST(ConvergenceMonitor, SingleFailureTimeline) {
  ConvergenceMonitor monitor(1, {});
  const auto frame = udp_frame(0x0A000001, 0x0A010002, 7100, 7100);

  monitor.on_link_event(0, millis(1), kEdge, kAgg, /*up=*/false);
  monitor.on_drop(0, millis(2), 0, frame.data(), frame.size());
  monitor.on_neighbor_event(0, millis(51), kEdge, /*lost=*/true);
  monitor.on_fault_notify(0, millis(52), /*link_up=*/false);
  monitor.on_prune_install(0, millis(54), kEdge);
  monitor.on_hop(0, millis(55), kEdge2, HopEvent::kDeliver, 9,
                 frame.data(), frame.size());
  monitor.on_link_event(0, millis(100), kEdge, kAgg, /*up=*/true);
  monitor.advance();

  ASSERT_EQ(monitor.completed().size(), 1u);
  EXPECT_EQ(monitor.open_timelines(), 0u);
  const FailureTimeline& tl = monitor.completed()[0];
  EXPECT_EQ(tl.link, "edge-p0-0<->agg-p0-0");
  EXPECT_EQ(tl.link_down, millis(1));
  EXPECT_EQ(tl.detect, millis(51));
  EXPECT_EQ(tl.notify, millis(52));
  EXPECT_EQ(tl.reroute, millis(54));
  EXPECT_EQ(tl.recovered, millis(55));
  EXPECT_EQ(tl.repaired, millis(100));
  EXPECT_FALSE(tl.flapped);
  EXPECT_EQ(tl.convergence(), millis(54));  // recovered - link_down
  ASSERT_EQ(tl.blackholes.size(), 1u);
  EXPECT_TRUE(tl.blackholes[0].closed());
  EXPECT_EQ(tl.blackholes[0].duration(), millis(53));
  EXPECT_EQ(monitor.unresolved_blackholes(), 0u);
}

// Repaired while the reroute was still in flight: the timeline closes
// flapped, with the stages past the flap left unset.
TEST(ConvergenceMonitor, FlapDuringReroute) {
  ConvergenceMonitor monitor(1, {});
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.on_neighbor_event(0, millis(51), kAgg, true);
  monitor.on_link_event(0, millis(52), kAgg, kEdge, true);  // reversed order
  monitor.advance();

  ASSERT_EQ(monitor.completed().size(), 1u);
  const FailureTimeline& tl = monitor.completed()[0];
  EXPECT_TRUE(tl.flapped);
  EXPECT_EQ(tl.detect, millis(51));
  EXPECT_EQ(tl.reroute, 0);
  EXPECT_EQ(tl.repaired, millis(52));
  EXPECT_EQ(tl.convergence(), 0);
}

// A failure no flow crossed still converges at the control plane: the
// reroute install is the convergence stage and there are no blackholes.
TEST(ConvergenceMonitor, ZeroAffectedFlows) {
  ConvergenceMonitor monitor(1, {});
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.on_neighbor_event(0, millis(51), kEdge, true);
  monitor.on_fault_notify(0, millis(52), false);
  monitor.on_prune_install(0, millis(53), kCore);
  monitor.on_link_event(0, millis(200), kEdge, kAgg, true);
  monitor.advance();

  ASSERT_EQ(monitor.completed().size(), 1u);
  const FailureTimeline& tl = monitor.completed()[0];
  EXPECT_TRUE(tl.blackholes.empty());
  EXPECT_EQ(tl.recovered, 0);
  EXPECT_EQ(tl.convergence(), millis(52));  // reroute - link_down
  EXPECT_FALSE(tl.flapped);
}

// Two failures overlapping in time: stages attach per timeline (detect
// by endpoint, notify/reroute to the detected-but-unserved ones), and
// each closes on its own repair.
TEST(ConvergenceMonitor, OverlappingFailures) {
  ConvergenceMonitor monitor(1, {});
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.on_link_event(0, millis(5), kEdge2, kCore, false);
  monitor.on_neighbor_event(0, millis(51), kEdge, true);
  monitor.on_fault_notify(0, millis(52), false);
  monitor.on_prune_install(0, millis(53), kCore);
  monitor.on_neighbor_event(0, millis(55), kEdge2, true);
  monitor.on_fault_notify(0, millis(56), false);
  monitor.on_prune_install(0, millis(57), kCore);
  monitor.on_link_event(0, millis(100), kEdge, kAgg, true);
  monitor.on_link_event(0, millis(110), kEdge2, kCore, true);
  monitor.advance();

  ASSERT_EQ(monitor.completed().size(), 2u);
  EXPECT_EQ(monitor.timelines_total(), 2u);
  const FailureTimeline& first = monitor.completed()[0];
  const FailureTimeline& second = monitor.completed()[1];
  EXPECT_EQ(first.link, "edge-p0-0<->agg-p0-0");
  EXPECT_EQ(first.detect, millis(51));
  EXPECT_EQ(first.notify, millis(52));
  EXPECT_EQ(first.reroute, millis(53));
  EXPECT_EQ(second.link, "edge-p1-0<->core-0-0");
  EXPECT_EQ(second.detect, millis(55));
  EXPECT_EQ(second.notify, millis(56));
  EXPECT_EQ(second.reroute, millis(57));
}

// A drop with no failure in flight is background loss, not a blackhole;
// a window whose flow never recovers before finalize() is the
// blackhole-freedom violation.
TEST(ConvergenceMonitor, UnresolvedBlackholeOnFinalize) {
  ConvergenceMonitor monitor(1, {});
  const auto frame = udp_frame(0x0A000001, 0x0A010002, 7100, 7100);

  // No open timeline yet: this drop must not open a window.
  monitor.on_drop(0, millis(0), 0, frame.data(), frame.size());
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.on_drop(0, millis(2), 0, frame.data(), frame.size());
  monitor.on_neighbor_event(0, millis(51), kEdge, true);
  monitor.finalize();

  ASSERT_EQ(monitor.completed().size(), 1u);
  const FailureTimeline& tl = monitor.completed()[0];
  ASSERT_EQ(tl.blackholes.size(), 1u);
  EXPECT_FALSE(tl.blackholes[0].closed());
  EXPECT_EQ(tl.blackholes[0].first_loss, millis(2));
  EXPECT_EQ(tl.repaired, 0);
  EXPECT_EQ(monitor.unresolved_blackholes(), 1u);
}

// §3.5's four path invariants, each broken by one synthetic path. Hops
// alternate between two shards and are fed newest first, so the check
// only sees paths in order because advance() merges the streams.
TEST(ConvergenceMonitor, PathInvariantsFlagEachViolation) {
  // LDP levels: edge 1, aggregation 2, core 3; kSpine is a fourth level
  // that only a deeper tree than a fat tree would have.
  constexpr std::uint8_t kE = 1;
  constexpr std::uint8_t kA = 2;
  constexpr std::uint8_t kC = 3;
  static constexpr char kEdge3[] = "edge-p2-0";
  static constexpr char kAgg2[] = "agg-p1-0";
  static constexpr char kSpine[] = "spine-0";
  static constexpr char kHost[] = "host-0";
  const auto unicast = udp_frame(0x0A000001, 0x0A010002, 7100, 7100);
  auto multicast = unicast;
  multicast[0] = 0x01;  // group bit of the destination MAC

  struct Path {
    std::uint64_t trace = 0;
    SimTime start = 0;
    std::vector<std::pair<const char*, std::uint8_t>> hops;
    bool dropped = false;
    bool is_multicast = false;
  };
  const std::vector<Path> paths = {
      {1, micros(0), {{kEdge, kE}, {kAgg, kA}, {kCore, kC}, {kAgg2, kA},
                      {kEdge2, kE}}},                                 // clean
      {2, micros(1), {{kEdge, kE}, {kAgg, kA}, {kEdge, kE}}},          // revisit
      {3, micros(2), {{kEdge, kE}, {kAgg, kA}, {kEdge2, kE}, {kAgg2, kA},
                      {kEdge3, kE}}},                                 // valley
      {4, micros(3), {{kEdge, kE}, {kAgg, kA}, {kAgg2, kA}, {kEdge2, kE}}},
      {5, micros(4), {{kEdge, kE}, {kAgg, kA}, {kCore, kC}, {kSpine, 4},
                      {kAgg2, kA}, {kEdge2, kE}}},                    // 6 hops
      {6, micros(5), {}},                                             // 0 hops
      {7, micros(6), {{kEdge, kE}, {kAgg, kA}}, /*dropped=*/true},
      {8, micros(7), {{kEdge, kE}, {kAgg, kA}, {kEdge, kE}}, false,
       /*is_multicast=*/true},
      // The dropped trace again: a fresh path, not a revisit.
      {7, micros(100), {{kEdge, kE}, {kAgg, kA}}},
  };
  std::vector<std::function<void(ConvergenceMonitor&)>> feed;
  for (const Path& p : paths) {
    const auto& frame = p.is_multicast ? multicast : unicast;
    for (std::size_t j = 0; j < p.hops.size(); ++j) {
      const auto [device, level] = p.hops[j];
      const SimTime t = p.start + micros(10 * static_cast<SimTime>(j));
      feed.push_back([&frame, &p, j, t, device, level](ConvergenceMonitor& m) {
        m.on_hop(static_cast<std::uint32_t>(j % 2), t, device,
                 HopEvent::kIngress, p.trace, frame.data(), frame.size(),
                 level);
      });
    }
    const std::size_t n = p.hops.size();
    const SimTime t = p.start + micros(10 * static_cast<SimTime>(n));
    feed.push_back([&frame, &p, n, t](ConvergenceMonitor& m) {
      const auto shard = static_cast<std::uint32_t>(n % 2);
      if (p.dropped) {
        m.on_drop(shard, t, p.trace, frame.data(), frame.size());
      } else {
        m.on_hop(shard, t, kHost, HopEvent::kDeliver, p.trace, frame.data(),
                 frame.size());
      }
    });
  }
  ConvergenceMonitor monitor(2, {});
  for (auto it = feed.rbegin(); it != feed.rend(); ++it) (*it)(monitor);
  monitor.advance();

  // One violation of the right kind per broken path, in stream order:
  // revisit at 21 us, lateral at 23 us, valley at 32 us, 6th hop at 54 us.
  EXPECT_EQ(monitor.path_violations(), 4u);
  const auto& details = monitor.path_violation_details();
  ASSERT_EQ(details.size(), 4u);
  EXPECT_EQ(details[0].kind, PathInvariant::kRevisit);
  EXPECT_EQ(details[0].trace_id, 2u);
  EXPECT_EQ(details[0].device, kEdge);
  EXPECT_EQ(details[0].time, micros(21));
  EXPECT_EQ(details[1].kind, PathInvariant::kLateral);
  EXPECT_EQ(details[1].trace_id, 4u);
  EXPECT_EQ(details[1].device, kAgg2);
  EXPECT_EQ(details[2].kind, PathInvariant::kValley);
  EXPECT_EQ(details[2].trace_id, 3u);
  EXPECT_EQ(details[2].device, kAgg2);
  EXPECT_EQ(details[3].kind, PathInvariant::kTooLong);
  EXPECT_EQ(details[3].trace_id, 5u);
  EXPECT_EQ(details[3].device, kEdge2);
  EXPECT_STREQ(path_invariant_name(details[3].kind), "too_long");

  // Seven unicast deliveries close a path; the drop and the multicast
  // frame (despite its repeated switch) add none.
  EXPECT_EQ(monitor.paths_completed(), 7u);
  const std::map<std::size_t, std::uint64_t> expected = {
      {0, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 2}, {6, 1}};
  EXPECT_EQ(monitor.path_hop_histogram(), expected);

  std::string prom;
  monitor.render_prometheus(&prom);
  EXPECT_NE(prom.find("portland_convergence_path_violations 4\n"),
            std::string::npos);
  monitor.clear();
  EXPECT_EQ(monitor.path_violations(), 0u);
  EXPECT_EQ(monitor.paths_completed(), 0u);
  EXPECT_TRUE(monitor.path_hop_histogram().empty());
  EXPECT_TRUE(monitor.path_violation_details().empty());
}

TEST(ConvergenceMonitor, RendersJsonlAndPrometheus) {
  ConvergenceMonitor monitor(1, {});
  const auto frame = udp_frame(0x0A000001, 0x0A010002, 7100, 7100);
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.on_drop(0, millis(2), 0, frame.data(), frame.size());
  monitor.on_neighbor_event(0, millis(51), kEdge, true);
  monitor.on_fault_notify(0, millis(52), false);
  monitor.on_prune_install(0, millis(54), kEdge);
  monitor.on_hop(0, millis(55), kEdge2, HopEvent::kDeliver, 9,
                 frame.data(), frame.size());
  monitor.on_link_event(0, millis(100), kEdge, kAgg, true);
  monitor.advance();

  std::string jsonl;
  monitor.write_timelines_jsonl(&jsonl);
  EXPECT_NE(jsonl.find("\"link\":\"edge-p0-0<->agg-p0-0\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"detect_ms\":50.000"), std::string::npos);
  EXPECT_NE(jsonl.find("\"convergence_ms\":54.000"), std::string::npos);
  EXPECT_NE(jsonl.find("\"repaired\":true"), std::string::npos);
  EXPECT_NE(jsonl.find("10.0.0.1:7100->10.1.0.2:7100/udp"),
            std::string::npos);
  EXPECT_EQ(jsonl.back(), '\n');

  std::string prom;
  monitor.render_prometheus(&prom);
  EXPECT_NE(prom.find("portland_convergence_timelines_completed 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("portland_convergence_ms{link=\"edge-p0-0<->"
                      "agg-p0-0\",id=\"1\"} 54.000"),
            std::string::npos);
  EXPECT_NE(prom.find("portland_blackhole_ms{"), std::string::npos);

  // A never-completed stage renders as null, not 0.
  ConvergenceMonitor flap(1, {});
  flap.on_link_event(0, millis(1), kEdge, kAgg, false);
  flap.on_link_event(0, millis(2), kEdge, kAgg, true);
  flap.advance();
  std::string flap_jsonl;
  flap.write_timelines_jsonl(&flap_jsonl);
  EXPECT_NE(flap_jsonl.find("\"detect_ms\":null"), std::string::npos);
  EXPECT_NE(flap_jsonl.find("\"convergence_ms\":null"), std::string::npos);
  EXPECT_NE(flap_jsonl.find("\"flapped\":true"), std::string::npos);
}

TEST(ConvergenceMonitor, ClearForgetsEverything) {
  ConvergenceMonitor monitor(2, {});
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.on_neighbor_event(1, millis(51), kEdge, true);
  monitor.finalize();
  ASSERT_EQ(monitor.completed().size(), 1u);

  monitor.clear();
  EXPECT_TRUE(monitor.completed().empty());
  EXPECT_EQ(monitor.open_timelines(), 0u);
  EXPECT_EQ(monitor.events_captured(), 0u);
  EXPECT_EQ(monitor.timelines_total(), 0u);
  EXPECT_EQ(monitor.unresolved_blackholes(), 0u);
  // Timeline ids restart, as after a snapshot restore.
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.finalize();
  ASSERT_EQ(monitor.completed().size(), 1u);
  EXPECT_EQ(monitor.completed()[0].id, 1u);
}

// Events from different shards merge in canonical (time, shard, seq)
// order, so the state machine sees one deterministic stream.
TEST(ConvergenceMonitor, MergesShardStreamsByTime) {
  ConvergenceMonitor monitor(4, {});
  // Appended out of order across shards; sorted by time at advance().
  monitor.on_prune_install(3, millis(54), kCore);
  monitor.on_fault_notify(2, millis(52), false);
  monitor.on_neighbor_event(1, millis(51), kEdge, true);
  monitor.on_link_event(0, millis(1), kEdge, kAgg, false);
  monitor.finalize();

  ASSERT_EQ(monitor.completed().size(), 1u);
  const FailureTimeline& tl = monitor.completed()[0];
  EXPECT_EQ(tl.detect, millis(51));
  EXPECT_EQ(tl.notify, millis(52));
  EXPECT_EQ(tl.reroute, millis(54));
  EXPECT_EQ(monitor.events_captured(), 4u);
}

// Real-socket round trip: publish, connect, poll, read.
TEST(HttpExporter, ServesPublishedBodiesOverLoopback) {
  HttpExporter exporter(0);  // ephemeral port
  std::string error;
  ASSERT_TRUE(exporter.start(&error)) << error;
  ASSERT_TRUE(exporter.running());
  ASSERT_NE(exporter.port(), 0);
  exporter.publish_metrics("portland_up 1\n");
  exporter.publish_timelines("{\"id\":1}\n");

  const auto fetch = [&exporter](const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(exporter.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    exporter.poll();  // single-threaded: accept + answer now
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
  };

  const std::string health = fetch("GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = fetch("GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain"), std::string::npos);
  EXPECT_NE(metrics.find("portland_up 1"), std::string::npos);

  const std::string timelines = fetch("GET /timelines HTTP/1.1\r\n\r\n");
  EXPECT_NE(timelines.find("application/json"), std::string::npos);
  EXPECT_NE(timelines.find("{\"id\":1}"), std::string::npos);

  EXPECT_NE(fetch("GET /nope HTTP/1.1\r\n\r\n").find("404"),
            std::string::npos);
  EXPECT_NE(fetch("POST /metrics HTTP/1.1\r\n\r\n").find("405"),
            std::string::npos);

  // Republish swaps the served body.
  exporter.publish_metrics("portland_up 2\n");
  EXPECT_NE(fetch("GET /metrics HTTP/1.1\r\n\r\n").find("portland_up 2"),
            std::string::npos);

  EXPECT_EQ(exporter.requests_served(), 6u);
  exporter.stop();
  EXPECT_FALSE(exporter.running());
}

}  // namespace
}  // namespace portland::obs
