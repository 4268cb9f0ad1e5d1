#!/usr/bin/env python3
"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks, in order:
  1. the binary's helper tests (fmm_perfbench --self-test): the p90 rule,
     medians, and the seeded session's shape;
  2. a smoke run (tiny grid or session) of every workload with tracing off
     and on: the result line's keys, the metric names and units against
     BENCHMARK.json, the p90 rule and sample counts in the summary, an
     in-flight window of exactly 2, and the span accounting — layer self
     times plus the unattributed share equal the traced wall, both as
     emitted and re-derived from the span dump, with the unattributed
     share within 5%;
  3. that the command fails without printing a result in a directory
     holding only BENCHMARK.json and perfbench/.
"""
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
LAYERS = ("bilinear", "cdag", "snapshot", "pebble", "sweep", "service",
          "fabric")
failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL:", message)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def span_layers(path):
    """Self time per layer and the attributed time, re-derived from the
    span dump."""
    spans = [json.loads(line) for line in open(path)]
    self_ns = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            self_ns[s["parent"]] -= s["end_ns"] - s["start_ns"]
    per_layer = {}
    for s, ns in zip(spans, self_ns):
        layer = s["name"].split(".")[0]
        per_layer[layer] = per_layer.get(layer, 0) + ns * 1e-6
    attributed_ms = sum(s["end_ns"] - s["start_ns"]
                        for s in spans if s["parent"] < 0) * 1e-6
    return per_layer, attributed_ms


def check_accounting(workload, metrics):
    value = {name: m["value"] for name, m in metrics.items()}
    wall = value["trace.wall_ms"]
    layer_sum = sum(value["layer.%s_ms" % layer] for layer in LAYERS)
    unattributed = value["trace.unattributed_frac"]
    check(abs(layer_sum + unattributed * wall - wall) <= 1e-6 * wall,
          "%s: layer self times + unattributed != traced wall" % workload)
    check(0 <= unattributed <= 0.05,
          "%s: unattributed share %.4f is over 5%%" % (workload, unattributed))
    per_layer, attributed = span_layers(
        os.path.join(ROOT, ".bench_build", workload + ".spans.jsonl"))
    check(abs(attributed - (1 - unattributed) * wall) <= 1e-3,
          "%s: span dump re-derives a different unattributed share"
          % workload)
    for layer in LAYERS:
        check(abs(per_layer.get(layer, 0.0) - value["layer.%s_ms" % layer])
              <= 1e-3,
              "%s: span dump re-derives a different %s self time"
              % (workload, layer))


def check_summary(workload, stdout):
    samples = re.search(r"latency_p50_ms \S+ ms \((\d+) samples", stdout)
    check(samples is not None, "%s: no latency sample count" % workload)
    if samples:
        count = int(samples.group(1))
        reported = re.search(r"latency_p90_ms [0-9.]+ ms \((\d+) samples\)",
                             stdout)
        check((reported is not None) == (count >= 100),
              "%s: p90 reported with %d samples" % (workload, count))
    check(re.search(r"failed_frac 0\.000000", stdout) is not None,
          "%s: failed_frac is not 0" % workload)
    if workload in ("serve-cold", "fabric-snapshot"):
        window = re.search(r"max_in_flight (\d+)", stdout)
        check(window is not None and int(window.group(1)) == 2,
              "%s: in-flight window is not exactly 2" % workload)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    first = run(["--workload", "grid-lru", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--smoke"])
    check(first.returncode == 0, "smoke build/run failed: " + first.stderr[-400:])
    binary = os.path.join(ROOT, ".bench_build", "cmake", "fmm_perfbench")
    helper = subprocess.run([binary, "--self-test"], cwd=ROOT,
                            capture_output=True, text=True)
    check(helper.returncode == 0, "binary self-test: " + helper.stderr)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "7", "--seconds",
                        "1", "--trace", str(trace), "--smoke"])
            label = "%s trace=%d" % (workload, trace)
            check(proc.returncode == 0,
                  "%s exited %d: %s" % (label, proc.returncode,
                                        proc.stderr[-400:]))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], label + ": result keys")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1, label + ": not correct")
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            check(units == expected[trace],
                  label + ": metric names/units differ from BENCHMARK.json")
            if trace == 0:
                check_summary(workload, proc.stdout)
            else:
                check_accounting(workload, result["metrics"])

    bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    proc = run(["--workload", "grid-lru", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "bare directory: the command did not fail without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "ok" if not failures else
          "%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
