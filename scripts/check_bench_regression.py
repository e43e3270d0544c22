#!/usr/bin/env python3
"""Bench regression floors for CI.

Compares the smoke-mode bench reports (build/BENCH_e*.json for the
sections listed in SECTIONS — written by run_all_benches.sh --smoke)
against the committed floors in bench/baseline.json. Run with --list to
print the guarded keys per section. Two kinds of check:

* Throughput floors: fail when frames/s drops more than 10% below the
  baseline value. The baselines are deliberately conservative (roughly
  half of a quiet run on a weak box) because shared CI runners are noisy;
  the floor catches order-of-magnitude regressions, not percent-level
  drift.
* Structural metrics: events-per-frame, train share, and the workers-4 /
  workers-1 ratio are deterministic (or nearly so), so they get tight
  thresholds. A burst-path regression shows up here long before it shows
  up in wall-clock noise.

The workers comparison is skipped when the bench itself reports the run
as oversubscribed (more workers than hardware cores): losing to serial
while timesharing one core is expected, not a regression.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOLERANCE = 0.9  # observed must be >= 90% of the baseline floor

failures = []
checks = 0


def check(label, ok, detail):
    global checks
    checks += 1
    print(f"{'ok  ' if ok else 'FAIL'}  {label}: {detail}")
    if not ok:
        failures.append(label)


def load(name):
    path = ROOT / "build" / name
    if not path.is_file():
        print(f"FAIL  {name} missing — run ./scripts/run_all_benches.sh first")
        sys.exit(1)
    with open(path) as f:
        return json.load(f)


def floor(label, observed, baseline):
    limit = TOLERANCE * baseline
    check(label, observed >= limit,
          f"{observed:.0f} vs floor {limit:.0f} (baseline {baseline:.0f})")


def check_e13(base):
    """Per-packet path audit (E13). Both checks are exact: every audited
    frame must keep §3.5's four path invariants, and in a fat tree a path
    crosses 1, 3 or 5 switches (same edge, same pod, other pod). A
    monitor stream that overflowed lost events, so its audit cannot
    pass."""
    e13 = load("BENCH_e13.json")
    check("e13 path violations",
          e13["violations"] <= base["e13"]["violations_max"],
          f'{e13["violations"]} <= {base["e13"]["violations_max"]}')
    check("e13 monitor events overflowed", e13["events_overflowed"] == 0,
          f'{e13["events_overflowed"]} == 0')
    for row in e13["rows"]:
        classes = sorted(int(h) for h in row["hops"])
        check(f'e13 k={row["k"]} failures={row["failures"]} hop classes',
              set(classes) <= {1, 3, 5},
              f'{classes} within [1, 3, 5]')


def check_e14(base):
    e14 = load("BENCH_e14.json")
    floor("e14 frames/s", e14["frames_per_sec"],
          base["e14"]["frames_per_sec"])
    check("e14 events/frame",
          e14["events_per_frame"] <= base["e14"]["events_per_frame_max"],
          f'{e14["events_per_frame"]:.3f} <= '
          f'{base["e14"]["events_per_frame_max"]}')


def check_e15(base):
    e15 = load("BENCH_e15.json")
    rows = e15["rows"]
    w1 = next(r for r in rows if r["workers"] == 1)
    floor("e15 workers=1 frames/s", w1["frames_per_sec"],
          base["e15"]["w1_frames_per_sec"])
    multi = max(rows, key=lambda r: r["workers"])
    if multi["workers"] > 1 and not multi.get("oversubscribed", False):
        ratio = multi["frames_per_sec"] / w1["frames_per_sec"]
        check("e15 multi-worker never loses",
              ratio >= base["e15"]["w_multi_over_w1_min"],
              f'workers={multi["workers"]} / workers=1 = {ratio:.3f} >= '
              f'{base["e15"]["w_multi_over_w1_min"]}')
    else:
        print(f'skip  e15 multi-worker check: workers={multi["workers"]} '
              'oversubscribed on this runner')


def check_e18(base):
    e18 = load("BENCH_e18.json")
    floor("e18 sharded w1 frames/s", e18["frames_per_sec"],
          base["e18"]["frames_per_sec"])
    check("e18 events/frame",
          e18["events_per_frame"] <= base["e18"]["events_per_frame_max"],
          f'{e18["events_per_frame"]:.3f} <= '
          f'{base["e18"]["events_per_frame_max"]}')
    check("e18 train share",
          e18["train_share"] >= base["e18"]["train_share_min"],
          f'{e18["train_share"]:.3f} >= {base["e18"]["train_share_min"]}')
    check("e18 workers 4 vs 1",
          e18["w4_over_w1"] >= base["e18"]["w4_over_w1_min"],
          f'{e18["w4_over_w1"]:.3f} >= {base["e18"]["w4_over_w1_min"]}')


def check_e19(base):
    """Memory-per-host floors (E19). Counted table bytes are
    deterministic, so no noise tolerance: every row must have converged
    and stay under the per-host byte ceiling. The ceiling encodes the 3x
    reduction against the seed's map tables (~181 B/host)."""
    e19 = load("BENCH_e19.json")
    ceiling = base["e19"]["compact_table_bytes_per_host_max"]
    for row in e19["rows"]:
        label = f'e19 k={row["k"]}'
        check(f"{label} converged", row["converged"], "converged")
        check(f"{label} table bytes/host",
              row["table_bytes_per_host"] <= ceiling,
              f'{row["table_bytes_per_host"]:.1f} <= {ceiling}')


def check_e20(base):
    """Checkpoint/fork serving floors (E20). Snapshot bytes per host are
    near-deterministic, so the ceiling is a real format guard; the
    fork-latency ceiling and speedup floor are deliberately loose
    wall-clock bounds that catch a fork degenerating into a cold rebuild,
    not percent-level drift."""
    e20 = load("BENCH_e20.json")
    check("e20 fork latency",
          e20["fork_ms"] <= base["e20"]["fork_ms_max"],
          f'{e20["fork_ms"]:.2f} ms <= {base["e20"]["fork_ms_max"]} ms '
          f'(k={e20["headline_k"]})')
    check("e20 snapshot bytes/host",
          e20["snapshot_bytes_per_host"] <=
          base["e20"]["snapshot_bytes_per_host_max"],
          f'{e20["snapshot_bytes_per_host"]:.1f} <= '
          f'{base["e20"]["snapshot_bytes_per_host_max"]}')
    check("e20 fork+answer speedup vs cold",
          e20["speedup_vs_cold"] >= base["e20"]["speedup_vs_cold_min"],
          f'{e20["speedup_vs_cold"]:.1f}x >= '
          f'{base["e20"]["speedup_vs_cold_min"]}x')
    for row in e20["rows"]:
        check(f'e20 k={row["k"]} what-if observable',
              row["faults"] > 0 and (row["flows"] == 0 or
                                     row["probe_rx"] > 0),
              f'faults={row["faults"]} probe_rx={row["probe_rx"]}')


def check_e21(base):
    """Convergence-observatory guards (E21). Reaction times are measured
    in simulated time, so they are deterministic per seed; the ceiling is
    generous (full run: 45-57 ms vs paper ~65 ms) and only trips when
    detection or rerouting structurally breaks. The overhead, the
    path-violation count (all four §3.5 invariants, summed over every
    fabric) and the monitor's lost-event count are exact invariants,
    checked with zero tolerance."""
    e21 = load("BENCH_e21.json")
    check("e21 convergence ceiling",
          e21["convergence_ms_max"] <= base["e21"]["convergence_ms_max"],
          f'{e21["convergence_ms_max"]:.1f} ms <= '
          f'{base["e21"]["convergence_ms_max"]} ms')
    check("e21 monitor overhead",
          e21["monitor_overhead_events"] <=
          base["e21"]["monitor_overhead_events_max"],
          f'{e21["monitor_overhead_events"]} executed-event delta '
          f'(monitor on vs off) <= '
          f'{base["e21"]["monitor_overhead_events_max"]}')
    check("e21 path violations",
          e21["path_violations"] <= base["e21"]["path_violations_max"],
          f'{e21["path_violations"]} <= {base["e21"]["path_violations_max"]}')
    check("e21 monitor events overflowed", e21["events_overflowed"] == 0,
          f'{e21["events_overflowed"]} == 0')
    for row in e21["rows"]:
        check(f'e21 k={row["k"]} faults={row["faults"]} timelines',
              row["timelines"] >= row["faults"],
              f'{row["timelines"]} timelines >= {row["faults"]} failed links')


def check_e22(base):
    """Sharded proxy-ARP control plane guards (E22). service_speedup
    (total ARP queries / busiest shard) and coalesce_ratio (FM-bound
    incast queries without / with edge coalescing) are deterministic
    structural metrics, so they get tight floors. The replica blackout is
    simulated time (deterministic). The wall-clock resolutions/s floor is
    deliberately loose; it is skipped when the bench reports the runner
    as oversubscribed (<2 cores), where wall numbers measure timesharing,
    not the control plane."""
    e22 = load("BENCH_e22.json")
    check("e22 service speedup",
          e22["service_speedup"] >= base["e22"]["service_speedup_min"],
          f'{e22["service_speedup"]:.2f}x >= '
          f'{base["e22"]["service_speedup_min"]}x '
          f'across {e22["fm_shards"]} shards')
    check("e22 coalesce ratio",
          e22["coalesce_ratio"] >= base["e22"]["coalesce_ratio_min"],
          f'{e22["coalesce_ratio"]:.1f}x >= '
          f'{base["e22"]["coalesce_ratio_min"]}x fewer FM-bound queries')
    check("e22 replica blackout",
          0 <= e22["replica_blackout_ms"] <=
          base["e22"]["replica_blackout_ms_max"],
          f'{e22["replica_blackout_ms"]:.1f} ms <= '
          f'{base["e22"]["replica_blackout_ms_max"]} ms')
    check("e22 resolution latency p99",
          e22["arp_p99_us"] <= base["e22"]["arp_p99_us_max"],
          f'{e22["arp_p99_us"]:.0f} us <= {base["e22"]["arp_p99_us_max"]} us')
    if e22.get("oversubscribed") == "true":
        print(f'skip  e22 resolutions/s floor: {e22["hw_cores"]} core(s) '
              'on this runner')
    else:
        floor("e22 resolutions/s", e22["resolutions_per_sec"],
              base["e22"]["resolutions_per_sec"])


SECTIONS = {
    "e13": check_e13,
    "e14": check_e14,
    "e15": check_e15,
    "e18": check_e18,
    "e19": check_e19,
    "e20": check_e20,
    "e21": check_e21,
    "e22": check_e22,
}


def list_floors(base):
    """Print every known floor/ceiling key per bench section, so a reader
    can see what is guarded without digging through baseline.json."""
    for name in sorted(SECTIONS):
        keys = [k for k in base.get(name, {}) if not k.startswith("comment")]
        print(f"{name}: {', '.join(keys) if keys else '(no baseline keys)'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", action="append", choices=sorted(SECTIONS),
                        help="check only these sections (repeatable); "
                             "default: all")
    parser.add_argument("--list", action="store_true",
                        help="print the known floor keys per bench section "
                             "and exit")
    args = parser.parse_args()
    selected = args.only if args.only else sorted(SECTIONS)

    with open(ROOT / "bench" / "baseline.json") as f:
        base = json.load(f)

    if args.list:
        list_floors(base)
        return

    for name in selected:
        SECTIONS[name](base)

    print(f"\n{checks} checks, {len(failures)} failures")
    if failures:
        print("REGRESSION: " + ", ".join(failures))
        sys.exit(1)


if __name__ == "__main__":
    main()
