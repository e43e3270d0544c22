// Self-test of the benchmark's own helpers (metrics.h). run.py runs it
// after every build and refuses to measure if it fails.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "metrics.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

void percentile_rule() {
  using perfbench::percentile_supported;
  using perfbench::samples_beyond;
  // p99 needs 1000 samples for ten beyond it; 999 leave only nine.
  EXPECT(samples_beyond(1000, 99) == 10);
  EXPECT(percentile_supported(1000, 99));
  EXPECT(!percentile_supported(999, 99));
  EXPECT(percentile_supported(100, 90));
  EXPECT(!percentile_supported(99, 90));
  EXPECT(percentile_supported(200, 95));
  EXPECT(!percentile_supported(199, 95));
  EXPECT(percentile_supported(10000, 99.9));
  EXPECT(!percentile_supported(9999, 99.9));
  EXPECT(samples_beyond(50, 100) == 0);

  // Interpolated percentiles on 1..101: p50 = 51, p99 = 100, p90 = 91.
  std::vector<double> xs;
  for (int i = 1; i <= 101; ++i) xs.push_back(i);
  EXPECT(near(perfbench::percentile(xs, 50), 51));
  EXPECT(near(perfbench::percentile(xs, 99), 100));
  EXPECT(near(perfbench::percentile(xs, 90), 91));
  EXPECT(near(perfbench::median({4, 1, 3, 2}), 2.5));
  EXPECT(perfbench::median({}) == 0);

  const perfbench::Summary s = perfbench::summarize(xs, 90);
  EXPECT(s.count == 101 && s.tail_supported && near(s.tail, 91));
  EXPECT(!perfbench::summarize({1, 2, 3}, 95).tail_supported);
}

void log2_buckets() {
  perfbench::Log2Histogram h;
  EXPECT(h.percentile_us(50) == 0);
  // 100 resolutions all in (256, 512] us.
  h.le[9] = 100;
  EXPECT(near(h.percentile_us(50), 256 + 256 * 0.5));
  EXPECT(near(h.percentile_us(100), 512));
  // 900 in (2, 4], 100 in (1024, 2048]: p50 inside the first, p99 at
  // the 90th of 100 in the second.
  perfbench::Log2Histogram g;
  g.le[2] = 900;
  g.le[11] = 100;
  EXPECT(near(g.percentile_us(50), 2 + 2 * (500.0 / 900)));
  EXPECT(near(g.percentile_us(99), 1024 + 1024 * 0.9));
  // A tail in the overflow bucket is flagged, not invented.
  perfbench::Log2Histogram o;
  o.le[0] = 1;
  o.over = 99;
  bool saturated = false;
  EXPECT(o.percentile_us(99, &saturated) == 65536 && saturated);
  EXPECT(near(o.percentile_us(1, &saturated), 1) && !saturated);

  // add_us follows the hosts' rule: 0 and 1 us land in le_1, 3 and 4 in
  // le_4, 1025 in le_2048, past 32768 in over.
  perfbench::Log2Histogram a;
  for (const std::uint64_t us : {0, 1, 3, 4, 1025, 32768, 32769}) a.add_us(us);
  EXPECT(a.le[0] == 2 && a.le[2] == 2 && a.le[11] == 1 && a.le[15] == 1);
  EXPECT(a.over == 1 && a.total() == 7);
  perfbench::Log2Histogram b = a;
  EXPECT(a == b);
  b.add_us(5);
  EXPECT(!(a == b));
}

void metric_names() {
  using perfbench::valid_metric_name;
  EXPECT(valid_metric_name("delivered_fps"));
  EXPECT(valid_metric_name("sim.sched.train_len"));
  EXPECT(valid_metric_name("0-ok_name.x"));
  EXPECT(!valid_metric_name(""));
  EXPECT(!valid_metric_name(".leading_dot"));
  EXPECT(!valid_metric_name("_leading"));
  EXPECT(!valid_metric_name("has space"));
  EXPECT(!valid_metric_name("slash/name"));
  EXPECT(!valid_metric_name("quote\""));
  EXPECT(valid_metric_name(std::string(64, 'a')));
  EXPECT(!valid_metric_name(std::string(65, 'a')));
}

void json_shape() {
  using perfbench::json_number;
  EXPECT(json_number(0.1) == "0.1");
  EXPECT(json_number(1234567.25) == "1234567.25");
  EXPECT(json_number(1.0 / 0.0) == "null");
  EXPECT(perfbench::json_string("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"");
  std::map<std::string, perfbench::Metric> m;
  m["b_metric"] = {2.5, "ms", 12};
  m["a_metric"] = {1, "1/s", 0};
  EXPECT(perfbench::metrics_json(m, false) ==
         "{\"a_metric\": {\"value\": 1, \"unit\": \"1/s\"}, "
         "\"b_metric\": {\"value\": 2.5, \"unit\": \"ms\"}}");
  EXPECT(perfbench::metrics_json(m, true) ==
         "{\"a_metric\": {\"value\": 1, \"unit\": \"1/s\"}, "
         "\"b_metric\": {\"value\": 2.5, \"unit\": \"ms\", \"samples\": 12}}");
}

void span_self_time() {
  perfbench::SpanTracer t;
  {
    perfbench::Span off(t, "ignored");  // disabled: records nothing
  }
  EXPECT(t.totals().empty());
  t.set_enabled(true);
  {
    perfbench::Span outer(t, "outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      perfbench::Span inner(t, "inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  t.set_enabled(false);
  const auto& outer = t.totals().at("outer");
  const auto& inner = t.totals().at("inner");
  EXPECT(outer.count == 1 && inner.count == 1);
  EXPECT(near(outer.child_us, inner.total_us));
  EXPECT(outer.total_us > inner.total_us);
  EXPECT(near(t.top_level_us(), outer.total_us));
  EXPECT(t.traced_wall_us() >= outer.total_us);
  EXPECT(near(t.child_of().at("inner").at("outer"), inner.total_us));
  EXPECT(t.kept().size() == 2 && t.kept()[0].name == "inner" &&
         t.kept()[0].parent == "outer");
}

}  // namespace

int main() {
  percentile_rule();
  log2_buckets();
  metric_names();
  json_shape();
  span_self_time();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
