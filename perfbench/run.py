#!/usr/bin/env python3
"""Builds and runs the fabric benchmark for one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and with it the library in src/) into the directory
named by CARGO_TARGET_DIR, default .bench_build, runs the helper
self-test, runs one workload, applies the correctness gates, writes the
full results (and, for a traced run, the per-layer report) under
<build>/perfbench-results/, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. The metrics are the
end_to_end list of BENCHMARK.json (--trace 0) or its per_layer list
(--trace 1). Exits nonzero when a gate fails, and without a result line
when the build fails.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out):
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [] if (out / "CMakeCache.txt").exists() else [configure]
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def sources_hash():
    """Hash of the library and benchmark sources: names the code measured."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 and res.stdout.strip() else None


def final_line(result, names, units):
    """The contract line: exactly correct/attempted/failed/metrics, with
    the listed metrics and nothing else. Raises ValueError when the
    result lacks a listed metric or reports it in another unit."""
    metrics = {}
    for name in names:
        m = result["metrics"].get(name)
        if m is None:
            raise ValueError("metric %s missing" % name)
        if m["unit"] != units[name]:
            raise ValueError("metric %s in %s, expected %s"
                             % (name, m["unit"], units[name]))
        if m["value"] is None or not math.isfinite(m["value"]):
            raise ValueError("metric %s is not a finite number" % name)
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def digest_gate(results, result, sources):
    """Two runs of one seed on the same sources must simulate the same
    outcome; the first run of a (workload, seed, seconds, sources)
    records it, later ones compare."""
    path = results / "digests" / ("%s-seed%d-s%d-%s.txt" % (
        result["workload"], result["seed"], result["seconds"], sources))
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        before = path.read_text().strip()
        ok = before == result["digest"]
        return {"name": "repeat_of_seed_agrees", "ok": ok,
                "detail": "digest %s, earlier run %s" % (result["digest"], before)}
    path.write_text(result["digest"] + "\n")
    return {"name": "repeat_of_seed_agrees", "ok": True,
            "detail": "first run of this seed, digest %s recorded" % result["digest"]}


def trace_report(result, per_layer):
    """Markdown table of the traced run's per-layer metrics."""
    na = set(result["not_applicable"])
    m = result["metrics"]
    lines = [
        "# Traced run: %s, seed %d, %d s" % (result["workload"], result["seed"],
                                             result["seconds"]),
        "",
        "Machine: %s" % json.dumps(result["machine"]),
        "",
        "| metric | value | unit | samples |",
        "|---|---|---|---|",
    ]
    for spec in per_layer:
        name = spec["name"]
        v = m.get(name, {})
        value = "n/a" if name in na else v.get("value")
        lines.append("| %s | %s | %s | %s |" % (name, value, v.get("unit", ""),
                                              v.get("samples", "")))
    lines += [
        "",
        "Unexplained share of traced wall time: %s" % m["trace.unexplained_share"]["value"],
        "",
        "Tracing overhead (traced / untraced delivered_fps): %s"
        % m["obs.trace_overhead_ratio"]["value"],
        "",
        "Self time of sim.run_until split into switch, link and scheduler:"
        " empty until the library accounts layer time inside run_until"
        " (ROADMAP: per-layer cost accounting).",
        "",
    ]
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be 1..60")

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload %s" % args.workload)
    if not (ROOT / "src").is_dir():
        log("library sources (src/) not found next to perfbench/")
        return 2
    out = build_dir()
    if not build(out):
        return 2
    if subprocess.run([str(out / "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        log("helper self-test failed")
        return 3

    results = out.parent / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%s" % (args.workload, args.seed, args.trace)
    cmd = [str(out / "fabric_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", str(results / (stem + ".spans.json"))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("RESULT ")]
    if not lines:
        log("benchmark printed no result (exit %d)" % proc.returncode)
        return 4
    result = json.loads(lines[-1][len("RESULT "):])

    sources = sources_hash()
    result["checks"].append(digest_gate(results, result, sources))
    result["correct"] = all(c["ok"] for c in result["checks"])
    result["machine"]["git_commit"] = git_commit()
    result["machine"]["sources_sha256"] = sources
    (results / (stem + ".json")).write_text(json.dumps(result, indent=1) + "\n")

    listed = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    if args.trace == "1":
        (results / (stem + ".md")).write_text(trace_report(result, listed))

    print("workload %s, seed %d, %d s, trace %s" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("machine  %s" % json.dumps(result["machine"]))
    print("outcome  digest %s %s" % (result["digest"], json.dumps(result["outcome"])))
    for c in result["checks"]:
        print("check    %-26s %s  %s" % (c["name"], "ok  " if c["ok"] else "FAIL",
                                         c["detail"]))
    for name, m in sorted(result["metrics"].items()):
        note = " n/a" if name in result["not_applicable"] else ""
        samples = " (n=%d)" % m["samples"] if "samples" in m else ""
        print("metric   %-40s %s %s%s%s" % (name, m["value"], m["unit"], samples, note))
    print("results  %s" % (results / (stem + ".json")))

    try:
        line = final_line(result, [m["name"] for m in listed],
                          {m["name"]: m["unit"] for m in listed})
    except ValueError as e:
        log("result does not match BENCHMARK.json: %s" % e)
        return 5
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
