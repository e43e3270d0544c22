#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <string_view>

namespace portland::obs {

namespace {

void append_escaped(std::string* out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

void append_u64_field(std::string* out, const char* key, std::uint64_t v,
                      bool trailing_comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64 "%s", key, v,
                trailing_comma ? "," : "");
  out->append(buf);
}

/// The scalar rows, one JSON object per run of rows in the same section;
/// the "engine" object ends with the per-shard executed counts.
void append_scalars_json(std::string* out, const MetricsSnapshot& s) {
  char buf[96];
  std::string_view section;
  const auto close_section = [&] {
    if (section == "engine") {
      out->append(",\"per_shard_executed\":[");
      for (std::size_t i = 0; i < s.per_shard_executed.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%" PRIu64, i == 0 ? "" : ",",
                      s.per_shard_executed[i]);
        out->append(buf);
      }
      out->append("]");
    }
    out->append("},");
  };
  for (const ScalarSample& row : s.scalars) {
    if (row.section != section) {
      if (!section.empty()) close_section();
      section = row.section;
      out->append("\"").append(section).append("\":{");
    } else {
      out->append(",");
    }
    append_u64_field(out, row.key, row.value, false);
  }
  if (!section.empty()) close_section();
}

void append_snapshot_json(std::string* out, const MetricsSnapshot& s) {
  char buf[96];
  out->append("{");
  std::snprintf(buf, sizeof(buf), "\"t_ns\":%" PRId64 ",",
                static_cast<std::int64_t>(s.t));
  out->append(buf);
  append_scalars_json(out, s);

  out->append("\"devices\":{");
  bool first_dev = true;
  for (const DeviceSample& d : s.devices) {
    if (!first_dev) out->append(",");
    first_dev = false;
    out->append("\"");
    append_escaped(out, d.name);
    out->append("\":{");
    for (std::size_t i = 0; i < d.counters.size(); ++i) {
      if (i != 0) out->append(",");
      out->append("\"");
      append_escaped(out, d.counters[i].first);
      out->append("\":");
      std::snprintf(buf, sizeof(buf), "%" PRIu64, d.counters[i].second);
      out->append(buf);
    }
    out->append("}");
  }
  out->append("},");

  out->append("\"links\":{");
  bool first_link = true;
  for (const LinkSample& l : s.links) {
    if (!first_link) out->append(",");
    first_link = false;
    out->append("\"");
    append_escaped(out, l.name);
    out->append("\":{");
    out->append(l.up ? "\"up\":1," : "\"up\":0,");
    append_u64_field(out, "tx_frames", l.tx_frames);
    append_u64_field(out, "tx_bytes", l.tx_bytes);
    append_u64_field(out, "dropped", l.dropped);
    append_u64_field(out, "queue_bytes", l.queue_bytes, false);
    out->append("}");
  }
  out->append("}}\n");
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

/// Prometheus label values allow any UTF-8, but the exposition format
/// requires `\` -> `\\`, `"` -> `\"`, and newline -> the two-character
/// sequence `\n` (a literal newline would split the sample line).
void append_prom_label(std::string* out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '\\': out->append("\\\\"); break;
      case '"': out->append("\\\""); break;
      case '\n': out->append("\\n"); break;
      default: out->push_back(c);
    }
  }
}

/// What precedes a scalar row's key in its Prometheus name: "portland_",
/// plus the section unless the key already leads with a family name.
std::string prom_prefix(const ScalarSample& row) {
  constexpr std::string_view kFamilies[] = {"wheel_", "parse_"};
  const std::string_view key = row.key;
  for (const std::string_view family : kFamilies) {
    if (key.starts_with(family)) return "portland_";
  }
  return std::string("portland_") + row.section + "_";
}

}  // namespace

MetricsSnapshot& MetricsRegistry::begin_snapshot(SimTime t) {
  snapshots_.emplace_back();
  snapshots_.back().t = t;
  return snapshots_.back();
}

bool MetricsRegistry::write_jsonl(const std::string& path) const {
  std::string out;
  out.reserve(1 << 16);
  for (const MetricsSnapshot& s : snapshots_) append_snapshot_json(&out, s);
  return write_file(path, out);
}

std::string MetricsRegistry::render_prometheus() const {
  if (snapshots_.empty()) return {};
  const MetricsSnapshot& s = snapshots_.back();
  std::string out;
  out.reserve(1 << 15);
  char buf[96];

  std::snprintf(buf, sizeof(buf), "portland_sim_time_ns %" PRId64 "\n",
                static_cast<std::int64_t>(s.t));
  out.append(buf);
  for (const ScalarSample& row : s.scalars) {
    std::snprintf(buf, sizeof(buf), "%s%s %" PRIu64 "\n",
                  prom_prefix(row).c_str(), row.key, row.value);
    out.append(buf);
  }
  for (std::size_t i = 0; i < s.per_shard_executed.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "portland_shard_executed{shard=\"%zu\"} %" PRIu64 "\n", i,
                  s.per_shard_executed[i]);
    out.append(buf);
  }

  for (const DeviceSample& d : s.devices) {
    for (const auto& [counter, value] : d.counters) {
      out.append("portland_device_counter{device=\"");
      append_prom_label(&out, d.name);
      out.append("\",counter=\"");
      append_prom_label(&out, counter);
      std::snprintf(buf, sizeof(buf), "\"} %" PRIu64 "\n", value);
      out.append(buf);
    }
  }

  for (const LinkSample& l : s.links) {
    const std::pair<const char*, std::uint64_t> link_metrics[] = {
        {"up", l.up ? 1u : 0u},
        {"tx_frames", l.tx_frames},
        {"tx_bytes", l.tx_bytes},
        {"dropped", l.dropped},
        {"queue_bytes", l.queue_bytes},
    };
    for (const auto& [what, value] : link_metrics) {
      out.append("portland_link_");
      out.append(what);
      out.append("{link=\"");
      append_prom_label(&out, l.name);
      std::snprintf(buf, sizeof(buf), "\"} %" PRIu64 "\n", value);
      out.append(buf);
    }
  }

  return out;
}

bool MetricsRegistry::write_prometheus(const std::string& path) const {
  if (snapshots_.empty()) return true;
  return write_file(path, render_prometheus());
}

}  // namespace portland::obs
