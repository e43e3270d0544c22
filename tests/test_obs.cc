// Unit + integration tests for the observability subsystem: the frame
// flight recorder, the metrics registry/exporters, and the Perfetto
// trace writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string_view>

#include "core/fabric.h"
#include "host/apps.h"
#include "net/packet.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"

namespace portland::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

HopRecord hop(SimTime t, std::uint64_t id, HopEvent e,
              const char* device = "dev") {
  HopRecord r;
  r.time = t;
  r.trace_id = id;
  r.device = device;
  r.event = e;
  return r;
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, TraceIdsAreDeterministicAndShardDistinct) {
  FlightRecorder rec(3, {});
  // Per shard: ((shard+1) << 40) | counter, counter starting at 1.
  EXPECT_EQ(rec.begin_trace(0, 0x0800), (1ull << 40) | 1);
  EXPECT_EQ(rec.begin_trace(0, 0x0800), (1ull << 40) | 2);
  EXPECT_EQ(rec.begin_trace(2, 0x0800), (3ull << 40) | 1);
  EXPECT_EQ(rec.traced_frames(), 3u);
}

TEST(FlightRecorder, SkipEthertypeFiltersAndCapLimits) {
  FlightRecorder::Options opt;
  opt.skip_ethertype = 0x88B5;  // LDP in the real fabric
  opt.max_traced_frames = 2;
  FlightRecorder rec(1, opt);
  EXPECT_EQ(rec.begin_trace(0, 0x88B5), 0u);  // filtered
  EXPECT_NE(rec.begin_trace(0, 0x0800), 0u);
  EXPECT_NE(rec.begin_trace(0, 0x0806), 0u);
  EXPECT_EQ(rec.begin_trace(0, 0x0800), 0u);  // budget exhausted
  EXPECT_EQ(rec.traced_frames(), 2u);
}

TEST(FlightRecorder, RingEvictsOldestButDropLogIsImmune) {
  FlightRecorder::Options opt;
  opt.ring_capacity = 4;
  opt.drop_log_capacity = 2;
  FlightRecorder rec(1, opt);
  for (int i = 0; i < 10; ++i) {
    rec.record(0, hop(i, 1, HopEvent::kIngress));
  }
  EXPECT_EQ(rec.records_captured(), 10u);
  EXPECT_EQ(rec.records_evicted(), 6u);
  const auto merged = rec.merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged.front().time, 6);  // oldest survivor
  EXPECT_EQ(merged.back().time, 9);

  // Drops: counted past the log cap, retained up to it, never evicted by
  // ring wraparound.
  for (int i = 0; i < 5; ++i) {
    HopRecord d = hop(100 + i, 0, HopEvent::kDrop);
    d.reason = DropReason::kLinkDown;
    rec.record_drop(0, d);
  }
  EXPECT_EQ(rec.drops_recorded(), 5u);
  EXPECT_EQ(rec.merged_drops().size(), 2u);
  EXPECT_EQ(rec.drops_by_reason()[static_cast<std::size_t>(
                DropReason::kLinkDown)],
            5u);
}

TEST(FlightRecorder, MergedIsCanonicallyOrderedAcrossShards) {
  FlightRecorder rec(3, {});
  // Interleave shards with colliding timestamps; canonical order is
  // (time, shard, per-shard capture order).
  rec.record(2, hop(50, 1, HopEvent::kIngress, "c"));
  rec.record(0, hop(50, 2, HopEvent::kIngress, "a"));
  rec.record(1, hop(10, 3, HopEvent::kIngress, "b"));
  rec.record(0, hop(50, 4, HopEvent::kLinkTx, "a"));
  const auto merged = rec.merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].trace_id, 3u);  // t=10
  EXPECT_EQ(merged[1].trace_id, 2u);  // t=50 shard 0, first
  EXPECT_EQ(merged[2].trace_id, 4u);  // t=50 shard 0, second
  EXPECT_EQ(merged[3].trace_id, 1u);  // t=50 shard 2
}

TEST(FlightRecorder, ClearKeepsTraceIdCounters) {
  FlightRecorder rec(1, {});
  const std::uint64_t first = rec.begin_trace(0, 0x0800);
  rec.record(0, hop(1, first, HopEvent::kIngress));
  rec.clear();
  EXPECT_EQ(rec.records_captured(), 0u);
  EXPECT_EQ(rec.merged().size(), 0u);
  // Ids keep counting: a cleared recorder never reissues an id.
  EXPECT_GT(rec.begin_trace(0, 0x0800), first);
}

TEST(DropReason, NamesAndCountersCoverEveryReason) {
  for (std::size_t i = 1; i < kDropReasonCount; ++i) {
    const auto r = static_cast<DropReason>(i);
    EXPECT_NE(drop_reason_name(r), nullptr);
    EXPECT_STRNE(drop_reason_name(r), "");
    EXPECT_NE(drop_reason_counter(r), nullptr);
    EXPECT_STRNE(drop_reason_counter(r), "");
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(Metrics, JsonlAndPrometheusWriters) {
  MetricsRegistry reg;
  MetricsSnapshot& s1 = reg.begin_snapshot(millis(1));
  s1.scalars.push_back({"engine", "executed", 42});
  s1.per_shard_executed = {40, 2};
  s1.devices.push_back({"edge-p0-0", {{"rx_frames", 7}}});
  s1.links.push_back({"a->b", true, 5, 320, 1, 64});
  MetricsSnapshot& s2 = reg.begin_snapshot(millis(2));
  s2.scalars.push_back({"engine", "executed", 99});
  ASSERT_EQ(reg.snapshots().size(), 2u);

  const std::string jsonl = testing::TempDir() + "obs_metrics.jsonl";
  ASSERT_TRUE(reg.write_jsonl(jsonl));
  const std::string lines = read_file(jsonl);
  // One object per line, newest last.
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 2);
  EXPECT_NE(lines.find("\"t_ns\":1000000"), std::string::npos);
  EXPECT_NE(lines.find("\"executed\":42"), std::string::npos);
  EXPECT_NE(lines.find("\"per_shard_executed\":[40,2]"), std::string::npos);
  EXPECT_NE(lines.find("\"edge-p0-0\""), std::string::npos);
  EXPECT_NE(lines.find("\"a->b\""), std::string::npos);

  const std::string prom = testing::TempDir() + "obs_metrics.prom";
  ASSERT_TRUE(reg.write_prometheus(prom));
  const std::string text = read_file(prom);
  // Prometheus renders the LAST snapshot only.
  EXPECT_NE(text.find("portland_engine_executed 99"), std::string::npos);
  EXPECT_NE(text.find("portland_sim_time_ns 2000000"), std::string::npos);
  EXPECT_EQ(text.find("portland_engine_executed 42"), std::string::npos);
}

// Prometheus label values must escape backslash, double-quote, and
// newline per the text exposition format — a counter or device name
// containing any of them must not corrupt the sample line.
TEST(Metrics, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  MetricsSnapshot& s = reg.begin_snapshot(millis(1));
  s.devices.push_back({"dev\"quoted\"", {{"odd\\counter\nname", 3}}});
  s.links.push_back({"a\"->\\b", true, 5, 320, 1, 64});

  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("device=\"dev\\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(text.find("counter=\"odd\\\\counter\\nname\""),
            std::string::npos);
  EXPECT_NE(text.find("link=\"a\\\"->\\\\b\""), std::string::npos);
  // No raw newline may survive inside a label value: every line must be
  // a complete sample or comment.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (!line.empty() && line[0] != '#') {
      int unescaped_quotes = 0;
      for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == '\\') {
          ++i;  // whatever follows is escaped
        } else if (line[i] == '"') {
          ++unescaped_quotes;
        }
      }
      EXPECT_EQ(unescaped_quotes % 2, 0)
          << "unbalanced quotes in: " << line;
    }
    start = end + 1;
  }

  // render_prometheus() is exactly what write_prometheus persists.
  const std::string path = testing::TempDir() + "obs_escaped.prom";
  ASSERT_TRUE(reg.write_prometheus(path));
  EXPECT_EQ(read_file(path), text);
}

TEST(Metrics, EmptyRegistryWritersAreSafe) {
  MetricsRegistry reg;
  const std::string base = testing::TempDir() + "obs_empty";
  EXPECT_TRUE(reg.write_jsonl(base + ".jsonl"));
  EXPECT_TRUE(reg.write_prometheus(base + ".prom"));
  EXPECT_EQ(read_file(base + ".jsonl"), "");
}

TEST(Metrics, WriteToUnwritablePathFails) {
  MetricsRegistry reg;
  reg.begin_snapshot(0);
  EXPECT_FALSE(reg.write_jsonl("/nonexistent-dir/x.jsonl"));
  EXPECT_FALSE(reg.write_prometheus("/nonexistent-dir/x.prom"));
}

// ---------------------------------------------------------------------------
// EngineTracer + Perfetto export
// ---------------------------------------------------------------------------

TEST(EngineTracer, CollectsAndMergesSpans) {
  EngineTracer tracer(2);
  tracer.window_span(1, 0, 1000, 10.0, 20.0, 3);
  tracer.shard_span(0, 1000, 17, 12.0, 18.0);
  tracer.shard_span(1, 1000, 5, 11.0, 19.0);
  // A 1 shard (workers=0) window: one dispatch span on shard 0's lane.
  tracer.window_span(2, 1000, 2000, 30.0, 40.0, 0);
  tracer.shard_span(0, 2000, 100, 31.0, 39.0);
  EXPECT_EQ(tracer.span_count(), 5u);
  EXPECT_EQ(tracer.spans_dropped(), 0u);
  const auto spans = tracer.merged();
  ASSERT_EQ(spans.size(), 5u);
  // Ordered by wall-clock begin.
  EXPECT_DOUBLE_EQ(spans[0].wall_begin_us, 10.0);
  EXPECT_DOUBLE_EQ(spans[1].wall_begin_us, 11.0);
  EXPECT_DOUBLE_EQ(spans[2].wall_begin_us, 12.0);
  EXPECT_DOUBLE_EQ(spans[3].wall_begin_us, 30.0);
  EXPECT_DOUBLE_EQ(spans[4].wall_begin_us, 31.0);
  EXPECT_EQ(spans[0].kind, EngineTracer::Span::Kind::kWindow);
  EXPECT_EQ(spans[1].kind, EngineTracer::Span::Kind::kDispatch);
  EXPECT_EQ(spans[1].shard, 1u);
  EXPECT_EQ(spans[4].kind, EngineTracer::Span::Kind::kDispatch);
  EXPECT_EQ(spans[4].a, 100u);
}

TEST(TraceExport, WritesValidTraceEventJson) {
  EngineTracer tracer(1);
  tracer.window_span(1, 0, 1000, 1.0, 2.0, 0);
  FlightRecorder rec(1, {});
  const std::uint64_t id = rec.begin_trace(0, 0x0800);
  rec.record(0, hop(500, id, HopEvent::kIngress, "edge-p0-0"));
  HopRecord d = hop(900, id, HopEvent::kDrop, "agg-p0-0");
  d.reason = DropReason::kNoUplink;
  rec.record_drop(0, d);

  const std::string path = testing::TempDir() + "obs_trace.json";
  ASSERT_TRUE(write_perfetto_trace(path, &tracer, &rec));
  const std::string text = read_file(path);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);   // engine span
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);   // hop instant
  EXPECT_NE(text.find("hop:ingress"), std::string::npos);
  EXPECT_NE(text.find("drop:no_uplink"), std::string::npos);
  // Strict JSON: no trailing comma before the closing bracket.
  EXPECT_EQ(text.find(",\n]"), std::string::npos);

  // Either side may be absent.
  EXPECT_TRUE(write_perfetto_trace(path, nullptr, &rec));
  EXPECT_TRUE(write_perfetto_trace(path, &tracer, nullptr));
  EXPECT_TRUE(write_perfetto_trace(path, nullptr, nullptr));
  EXPECT_NE(read_file(path).find("\"traceEvents\""), std::string::npos);
  EXPECT_FALSE(write_perfetto_trace("/nonexistent-dir/t.json", &tracer, &rec));
}

// ---------------------------------------------------------------------------
// Integration: a real fabric with the recorder attached
// ---------------------------------------------------------------------------

TEST(ObsIntegration, FabricTracesRewritesAndDelivery) {
  core::PortlandFabric::Options options;
  options.k = 4;
  options.seed = 7;
  options.obs.flight_recorder = true;
  options.obs.engine_trace = true;
  core::PortlandFabric fabric(options);
  ASSERT_TRUE(fabric.run_until_converged());

  host::Host& a = fabric.host_at(0, 0, 0);
  host::Host& b = fabric.host_at(2, 1, 1);
  host::UdpFlowReceiver rx(b, 7000);
  host::UdpFlowSender::Config cfg;
  cfg.dst = b.ip();
  cfg.src_port = cfg.dst_port = 7000;
  cfg.interval = millis(1);
  host::UdpFlowSender tx(a, cfg);
  tx.start();
  fabric.sim().run_until(fabric.sim().now() + millis(100));
  tx.stop();
  ASSERT_GT(rx.packets_received(), 50u);

  const FlightRecorder* rec = fabric.flight_recorder();
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->traced_frames(), 0u);
  EXPECT_GT(rec->records_captured(), 0u);

  // The PMAC story is visible end to end: an ingress AMAC->PMAC rewrite
  // at the sender's edge, ECMP/FIB choices in the fabric, the egress
  // PMAC->AMAC rewrite, and host delivery — all under trace ids.
  bool saw_ingress_rw = false, saw_egress_rw = false, saw_deliver = false;
  bool saw_path_choice = false, saw_link_tx = false;
  for (const HopRecord& r : rec->merged()) {
    EXPECT_NE(r.trace_id, 0u);
    switch (r.event) {
      case HopEvent::kIngressRewrite: saw_ingress_rw = true; break;
      case HopEvent::kEgressRewrite: saw_egress_rw = true; break;
      case HopEvent::kDeliver: saw_deliver = true; break;
      case HopEvent::kEcmpChoice:
      case HopEvent::kFibLookup: saw_path_choice = true; break;
      case HopEvent::kLinkTx: saw_link_tx = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_ingress_rw);
  EXPECT_TRUE(saw_egress_rw);
  EXPECT_TRUE(saw_deliver);
  EXPECT_TRUE(saw_path_choice);
  EXPECT_TRUE(saw_link_tx);

  // Boot-time frames hitting not-yet-located switches produce typed
  // drops, mirrored in the switches' own counters.
  EXPECT_GT(rec->drops_recorded(), 0u);
  const auto by_reason = rec->drops_by_reason();
  std::uint64_t counter_drops = 0;
  for (const core::PortlandSwitch* sw : fabric.switches()) {
    counter_drops += sw->counters().get("drop_before_located");
  }
  EXPECT_EQ(by_reason[static_cast<std::size_t>(DropReason::kBeforeLocated)],
            counter_drops);

  // The engine tracer profiled the run and the whole thing exports. The
  // fabric runs at 1 shard (workers=0), so its dispatch spans sit on
  // shard 0's lane.
  ASSERT_NE(fabric.engine_tracer(), nullptr);
  EXPECT_GT(fabric.engine_tracer()->span_count(), 0u);
  const auto spans = fabric.engine_tracer()->merged();
  EXPECT_TRUE(std::any_of(spans.begin(), spans.end(), [](const auto& sp) {
    return sp.kind == EngineTracer::Span::Kind::kDispatch && sp.shard == 0 &&
           sp.a > 0;
  }));
  const std::string path = testing::TempDir() + "obs_fabric_trace.json";
  ASSERT_TRUE(write_perfetto_trace(path, fabric.engine_tracer(), rec));
  const std::string text = read_file(path);
  EXPECT_NE(text.find("hop:ingress_rewrite"), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ObsIntegration, MetricsSnapshotSeesDevicesAndLinks) {
  core::PortlandFabric::Options options;
  options.k = 4;
  options.seed = 7;
  core::PortlandFabric fabric(options);
  ASSERT_TRUE(fabric.run_until_converged());

  MetricsRegistry reg;
  fabric.snapshot_metrics(reg);
  ASSERT_EQ(reg.snapshots().size(), 1u);
  const MetricsSnapshot& snap = reg.snapshots().front();
  EXPECT_EQ(snap.t, fabric.sim().now());
  const auto executed =
      std::find_if(snap.scalars.begin(), snap.scalars.end(),
                   [](const ScalarSample& r) {
                     return std::string_view(r.key) == "executed";
                   });
  ASSERT_NE(executed, snap.scalars.end());
  EXPECT_GT(executed->value, 0u);
  // Every device and both directions of every link are present.
  EXPECT_EQ(snap.devices.size(), fabric.network().devices().size());
  EXPECT_EQ(snap.links.size(), fabric.network().links().size() * 2);
  // Snapshotting is passive: taking one does not advance the sim or run
  // events.
  const std::uint64_t before = fabric.sim().executed_events();
  fabric.snapshot_metrics(reg);
  EXPECT_EQ(fabric.sim().executed_events(), before);
}

// The scalar series a fabric renders, in order, and the accessor behind
// each value: renaming, reordering or dropping an engine, wheel, parse or
// memory series fails here. The lists are written out as rendered;
// wheel_pops is the one series the timing wheel's walk added.
TEST(Metrics, ScalarSeriesArePinned) {
  core::PortlandFabric::Options options;
  options.k = 4;
  options.seed = 5;
  core::PortlandFabric fabric(options);
  host::Host& a = fabric.host_at(0, 0, 0);
  host::Host& b = fabric.host_at(3, 1, 1);
  host::UdpFlowReceiver rx(b, 7000);
  host::UdpFlowSender::Config cfg;
  cfg.dst = b.ip();
  cfg.src_port = cfg.dst_port = 7000;
  cfg.interval = micros(100);
  host::UdpFlowSender tx(a, cfg);
  fabric.sim().run_until(millis(100));
  tx.start();
  fabric.sim().run_until(millis(150));
  MetricsRegistry reg;
  fabric.snapshot_metrics(reg);

  std::vector<std::string> names;
  std::map<std::string, std::uint64_t> values;
  std::istringstream prom(reg.render_prometheus());
  for (std::string line; std::getline(prom, line);) {
    if (line.starts_with("portland_device_") ||
        line.starts_with("portland_link_")) {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    names.push_back(line.substr(0, space));
    values[names.back()] = std::stoull(line.substr(space + 1));
  }
  const std::vector<std::string> expected = {
      "portland_sim_time_ns",
      "portland_engine_executed",
      "portland_engine_windows",
      "portland_engine_mail_merged",
      "portland_engine_barrier_tasks",
      "portland_engine_pending",
      "portland_engine_trains_popped",
      "portland_engine_train_frames",
      "portland_engine_train_repushes",
      "portland_engine_nodes_pushed",
      "portland_engine_windows_inline",
      "portland_engine_windows_widened",
      "portland_wheel_inserts",
      "portland_wheel_erases",
      "portland_wheel_pops",
      "portland_wheel_cascaded",
      "portland_wheel_overflow_rehomed",
      "portland_parse_calls",
      "portland_parse_meta_hits",
      "portland_parse_meta_attaches",
      "portland_parse_rewrite_copies",
      "portland_memory_switch_table_bytes",
      "portland_memory_host_table_bytes",
      "portland_memory_fib_bytes",
      "portland_memory_arena_bytes",
      "portland_memory_rss_bytes",
      "portland_shard_executed{shard=\"0\"}",
  };
  EXPECT_EQ(names, expected);

  const sim::Simulator& s = fabric.sim();
  const sim::TimingWheel::Stats wheel = s.wheel_stats();
  const net::ParseStats parse = net::parse_stats();
  const std::pair<const char*, std::uint64_t> accessors[] = {
      {"portland_sim_time_ns", static_cast<std::uint64_t>(s.now())},
      {"portland_engine_executed", s.executed_events()},
      {"portland_engine_windows", s.windows_executed()},
      {"portland_engine_mail_merged", s.mail_merged()},
      {"portland_engine_barrier_tasks", s.barrier_tasks_executed()},
      {"portland_engine_pending", s.pending_events()},
      {"portland_engine_trains_popped", s.trains_popped()},
      {"portland_engine_train_frames", s.train_frames()},
      {"portland_engine_train_repushes", s.train_repushes()},
      {"portland_engine_nodes_pushed", s.nodes_pushed()},
      {"portland_engine_windows_inline", s.windows_inline()},
      {"portland_engine_windows_widened", s.windows_widened()},
      {"portland_wheel_inserts", wheel.inserts},
      {"portland_wheel_erases", wheel.erases},
      {"portland_wheel_pops", wheel.pops},
      {"portland_wheel_cascaded", wheel.cascaded_nodes},
      {"portland_wheel_overflow_rehomed", wheel.overflow_rehomed},
      {"portland_parse_calls", parse.parse_calls},
      {"portland_parse_meta_hits", parse.meta_hits},
      {"portland_parse_meta_attaches", parse.meta_attaches},
      {"portland_parse_rewrite_copies", parse.rewrite_copies},
      {"portland_shard_executed{shard=\"0\"}", s.shard_executed(0)},
  };
  for (const auto& [name, value] : accessors) {
    EXPECT_EQ(values[name], value) << name;
  }
  EXPECT_GT(values["portland_engine_train_frames"], 0u);
  EXPECT_GT(values["portland_parse_meta_hits"], 0u);

  // JSONL: the keys of the engine, parse and memory objects, in order.
  const std::string path = testing::TempDir() + "obs_pinned.jsonl";
  ASSERT_TRUE(reg.write_jsonl(path));
  const std::string line = read_file(path);
  const auto keys_of = [&line](const std::string& section) {
    const std::size_t open = line.find("\"" + section + "\":{");
    const std::string body =
        line.substr(open, line.find('}', open) - open);
    const std::regex key("[{,]\"([a-z_]+)\":");
    std::vector<std::string> keys;
    for (auto it = std::sregex_iterator(body.begin(), body.end(), key);
         it != std::sregex_iterator(); ++it) {
      keys.push_back((*it)[1]);
    }
    return keys;
  };
  EXPECT_EQ(keys_of("engine"),
            (std::vector<std::string>{
                "executed", "windows", "mail_merged", "barrier_tasks",
                "pending", "trains_popped", "train_frames", "train_repushes",
                "nodes_pushed", "windows_inline", "windows_widened",
                "wheel_inserts", "wheel_erases", "wheel_pops",
                "wheel_cascaded", "wheel_overflow_rehomed",
                "per_shard_executed"}));
  EXPECT_EQ(keys_of("parse"),
            (std::vector<std::string>{"parse_calls", "meta_hits",
                                      "meta_attaches", "rewrite_copies"}));
  EXPECT_EQ(keys_of("memory"),
            (std::vector<std::string>{"switch_table_bytes",
                                      "host_table_bytes", "fib_bytes",
                                      "arena_bytes", "rss_bytes"}));
}

}  // namespace
}  // namespace portland::obs
