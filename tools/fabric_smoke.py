#!/usr/bin/env python3
"""End-to-end smoke test of the `fmmio router` service fabric.

Usage: fabric_smoke.py /path/to/fmmio [report.json]

Plays one scripted NDJSON session twice — once against a plain
single-process `fmmio serve`, once against `fmmio router --workers 4`
with a chaos kill injected mid-run (worker 2 is hard-killed after its
first dispatch, forcing the requeue + respawn path) — and asserts the
fabric contract from the outside:

  - the router's merged output is byte-identical to the single-process
    output after stripping the id echo;
  - exactly one response line per request line, in request order;
  - both sessions exit 0 (graceful drain);
  - the router's run report records the chaos path actually ran:
    kills_injected >= 1, requeues >= 1, respawns >= 1, gave_up == 0,
    and responded == requests (validated structurally by
    check_report_schema.py — see the fabric_smoke_schema ctest
    fixture).

Then plays the same session through the snapshot store's shared-cache
contract (docs/SNAPSHOTS.md): two cold-process `fmmio serve
--snapshot-dir` runs against one store directory, asserting the first
run publishes, the second run builds NOTHING (metrics cdag.builds == 0,
extra.snapshot publishes == 0 with hits >= 1), and both are
byte-identical to the storeless run; finally a cold `fmmio router
--transport process --snapshot-dir` (fork/exec workers mounting the
pre-warmed store) must also be byte-identical.

Finally a `fmmio router --transport process` given service flags must
hand them to its fork/exec workers: its `tail` answer reports the
--slow-ms and --telemetry-ring it was started with.

Exit code 0 iff every assertion holds.
"""
import json
import re
import subprocess
import sys
import tempfile


def strip_ids(text):
    return re.sub(r'"id": (\d+|null)', '"id": X', text)


REQUESTS = [
    '{"id": 1, "op": "ping"}',
    '{"id": 2, "op": "bound", "n": 32, "m": 64}',
    '{"id": 3, "op": "simulate", "algorithm": "strassen", "n": 16, '
    '"m": 32}',
    '{"id": 4, "op": "liveness", "algorithm": "winograd", "n": 16}',
    '{"id": 5, "op": "simulate", "algorithm": "winograd", "n": 16, '
    '"m": 64}',
    '{"id": 6, "op": "cdag", "algorithm": "strassen", "n": 32}',
    '{"id": 7, "op": "bound", "n": 64, "m": 128}',
    '{"id": 8, "op": "simulate", "algorithm": "strassen", "n": 32, '
    '"m": 64}',
    '{"id": 9, "op": "version"}',
    '{"id": 10, "op": "simulate", "algorithm": "winograd", "n": 32, '
    '"m": 128}',
]


def run(cmd, stdin_text):
    return subprocess.run(cmd, input=stdin_text, capture_output=True,
                          text=True, timeout=300)


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    fmmio = argv[1]
    report_path = argv[2] if len(argv) > 2 else None

    failures = []

    def check(cond, msg):
        if not cond:
            failures.append(msg)

    stdin_text = "\n".join(REQUESTS) + "\n"

    single = run([fmmio, "serve", "--threads", "2"], stdin_text)
    check(single.returncode == 0,
          f"serve exited {single.returncode}; stderr:\n{single.stderr}")

    router_cmd = [fmmio, "router", "--workers", "4",
                  "--kill", "2@1", "--chaos-seed", "7",
                  "--retries", "5"]
    if report_path:
        router_cmd += ["--out", report_path]
    fabric = run(router_cmd, stdin_text)
    check(fabric.returncode == 0,
          f"router exited {fabric.returncode}; stderr:\n{fabric.stderr}")

    # The byte-identity contract: chaos may delay or reroute work, but
    # never change a single response byte.
    check(strip_ids(fabric.stdout) == strip_ids(single.stdout),
          "router output differs from single-process output:\n"
          f"--- serve ---\n{single.stdout}--- router ---\n{fabric.stdout}")

    lines = [ln for ln in fabric.stdout.splitlines() if ln.strip()]
    check(len(lines) == len(REQUESTS),
          f"expected {len(REQUESTS)} responses, got {len(lines)}")
    for i, line in enumerate(lines):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            check(False, f"response {i} is not JSON ({exc}): {line}")
            continue
        check(doc.get("id") == i + 1,
              f"response {i} id {doc.get('id')!r}, want {i + 1} — "
              "out of order")
        check(doc.get("ok") is True, f"request {i + 1} failed: {line}")

    if report_path:
        try:
            with open(report_path, "r", encoding="utf-8") as f:
                report = json.load(f)
            fab = report["extra"]["fabric"]
            check(fab["responded"] == fab["requests"] == len(REQUESTS),
                  f"fabric drain totals wrong: requests={fab['requests']} "
                  f"responded={fab['responded']}")
            check(fab["kills_injected"] >= 1,
                  f"chaos kill never fired: {fab['kills_injected']}")
            check(fab["requeues"] >= 1,
                  f"kill did not requeue: {fab['requeues']}")
            check(fab["respawns"] >= 1,
                  f"killed worker never respawned: {fab['respawns']}")
            check(fab["gave_up"] == 0,
                  f"fabric gave up on {fab['gave_up']} requests")
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            check(False, f"router report unreadable or incomplete: {exc}")

    # Shared-store phase: N cold processes, one store, zero rebuilds
    # after the first.
    with tempfile.TemporaryDirectory(prefix="fabric_smoke_snap") as store:
        def load_report(path, tag):
            try:
                with open(path, "r", encoding="utf-8") as f:
                    return json.load(f)
            except (OSError, json.JSONDecodeError) as exc:
                check(False, f"{tag} report unreadable: {exc}")
                return {}

        cold = run([fmmio, "serve", "--threads", "2",
                    "--snapshot-dir", store,
                    "--out", store + "/cold.json"], stdin_text)
        check(cold.returncode == 0,
              f"cold serve exited {cold.returncode}; "
              f"stderr:\n{cold.stderr}")
        warm = run([fmmio, "serve", "--threads", "2",
                    "--snapshot-dir", store,
                    "--out", store + "/warm.json"], stdin_text)
        check(warm.returncode == 0,
              f"warm serve exited {warm.returncode}; "
              f"stderr:\n{warm.stderr}")
        # Snapshots must never change a response byte.
        check(cold.stdout == single.stdout,
              "cold --snapshot-dir serve output differs from storeless "
              f"serve:\n--- serve ---\n{single.stdout}"
              f"--- cold ---\n{cold.stdout}")
        check(warm.stdout == single.stdout,
              "warm --snapshot-dir serve output differs from storeless "
              f"serve:\n--- serve ---\n{single.stdout}"
              f"--- warm ---\n{warm.stdout}")

        cold_report = load_report(store + "/cold.json", "cold serve")
        snap_cold = cold_report.get("extra", {}).get("snapshot", {})
        check(snap_cold.get("publishes", 0) >= 1,
              f"cold serve published nothing: {snap_cold}")
        check(cold_report.get("metrics", {}).get("cdag.builds", 0) >= 1,
              "cold serve against an empty store built no CDAGs")
        warm_report = load_report(store + "/warm.json", "warm serve")
        snap_warm = warm_report.get("extra", {}).get("snapshot", {})
        check(snap_warm.get("publishes") == 0,
              f"warm serve re-published over a warm store: {snap_warm}")
        check(snap_warm.get("hits", 0) >= 1,
              f"warm serve never hit the store: {snap_warm}")
        # Counters are created lazily, so an absent cdag.builds IS the
        # zero-rebuild proof.
        check(warm_report.get("metrics", {}).get("cdag.builds", 0) == 0,
              "warm serve rebuilt a CDAG despite the warm store: "
              f"cdag.builds = "
              f"{warm_report.get('metrics', {}).get('cdag.builds')!r}")

        # Cold fork/exec fabric mounting the pre-warmed store: every
        # worker shares it, and responses stay byte-identical.
        fabric_snap = run([fmmio, "router", "--workers", "2",
                           "--transport", "process",
                           "--snapshot-dir", store], stdin_text)
        check(fabric_snap.returncode == 0,
              f"snapshot router exited {fabric_snap.returncode}; "
              f"stderr:\n{fabric_snap.stderr}")
        check(strip_ids(fabric_snap.stdout) == strip_ids(single.stdout),
              "snapshot-backed process router output differs from "
              f"single-process output:\n--- serve ---\n{single.stdout}"
              f"--- router ---\n{fabric_snap.stdout}")

    # Process workers are configured by the router's service flags, not
    # by worker defaults (slow_ms 100, ring 256).
    tail = run([fmmio, "router", "--workers", "1", "--transport",
                "process", "--slow-ms", "5", "--telemetry-ring", "8"],
               '{"id": 1, "op": "tail"}\n')
    check(tail.returncode == 0,
          f"tail router exited {tail.returncode}; stderr:\n{tail.stderr}")
    try:
        result = json.loads(tail.stdout)["result"]
        check(result["slow_threshold_ms"] == 5,
              "process worker ignored --slow-ms 5: slow_threshold_ms = "
              f"{result['slow_threshold_ms']}")
        check(result["ring_capacity"] == 8,
              "process worker ignored --telemetry-ring 8: ring_capacity = "
              f"{result['ring_capacity']}")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        check(False, f"tail response unreadable ({exc}): {tail.stdout}")

    for msg in failures:
        print(f"fabric_smoke: {msg}", file=sys.stderr)
    if not failures:
        print(f"fabric_smoke: OK ({len(REQUESTS)} requests, router+4 "
              "workers with injected kill byte-identical to "
              "single-process serve; shared snapshot store served "
              "2 cold serves + a process-transport router with zero "
              "warm rebuilds; process workers honour the router's "
              "service flags)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
