#!/usr/bin/env python3
"""End-to-end smoke test of `fmmio serve`.

Usage: service_smoke.py /path/to/fmmio [report.json]

Starts the daemon as a subprocess, plays a scripted NDJSON session over
its stdin — control ops, a cold compute request, a byte-identical warm
duplicate, a liveness pair, an invalid line, stats, a metrics scrape,
a telemetry tail, a random-schedule simulate, shutdown — and asserts
the protocol contract from the outside:

  - exactly one response line per request line, in request order
    (response ids echo the request ids in sequence);
  - the warm duplicate's response is byte-identical to the cold one
    after stripping the id — the cache must be invisible in the bytes;
  - usage errors are one line and do not kill the session;
  - the random-schedule simulate answers the loads/stores that
    `fmmio simulate` reports for the same cell and seed;
  - shutdown drains gracefully: the daemon answers everything and
    exits 0;
  - when a report path is given, the daemon wrote a run report there
    (validated separately by check_report_schema.py — see the
    service_smoke_schema ctest fixture);
  - a second session is ended by SIGTERM while its stdin is still open
    (so only the signal can have stopped it): the daemon drains
    gracefully — every admitted request answered, exit code 0 — and
    its report records responded == requests and stopped_by_signal.

Exit code 0 iff every assertion holds.
"""
import json
import os
import re
import signal
import subprocess
import sys
import tempfile


def strip_id(line):
    return re.sub(r'^\{"id": (\d+|null), ', '{', line)


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    fmmio = argv[1]
    report_path = argv[2] if len(argv) > 2 else None

    requests = [
        '{"id": 1, "op": "ping"}',
        '{"id": 2, "op": "version"}',
        '{"id": 3, "op": "bound", "n": 1024, "m": 64, "p": 49}',
        # Cold compute, then a byte-identical warm duplicate.
        '{"id": 4, "op": "simulate", "algorithm": "strassen", "n": 16, '
        '"m": 64}',
        '{"id": 5, "op": "simulate", "algorithm": "strassen", "n": 16, '
        '"m": 64}',
        '{"id": 6, "op": "liveness", "algorithm": "winograd", "n": 8}',
        '{"id": 7, "op": "liveness", "algorithm": "winograd", "n": 8}',
        'this is not json',
        '{"id": 8, "op": "stats"}',
        '{"id": 9, "op": "metrics"}',
        '{"id": 10, "op": "tail", "limit": 4}',
        '{"id": 11, "op": "simulate", "algorithm": "strassen", "n": 16, '
        '"m": 32, "schedule": "random", "seed": 1}',
        '{"id": 12, "op": "shutdown"}',
    ]

    cmd = [fmmio, "serve", "--threads", "2"]
    if report_path:
        cmd += ["--out", report_path]
    proc = subprocess.run(cmd, input="\n".join(requests) + "\n",
                          capture_output=True, text=True, timeout=120)

    failures = []

    def check(cond, msg):
        if not cond:
            failures.append(msg)

    check(proc.returncode == 0,
          f"daemon exited {proc.returncode}; stderr:\n{proc.stderr}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    check(len(lines) == len(requests),
          f"expected {len(requests)} response lines, got {len(lines)}:\n"
          + "\n".join(lines))

    if len(lines) == len(requests):
        # Responses arrive in request order; ids echo the requests (the
        # invalid line answers with id null, still in position).
        want_ids = [1, 2, 3, 4, 5, 6, 7, None, 8, 9, 10, 11, 12]
        for i, (line, want) in enumerate(zip(lines, want_ids)):
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                check(False, f"response {i} is not JSON ({exc}): {line}")
                continue
            check(doc.get("id") == want,
                  f"response {i} id {doc.get('id')!r}, want {want!r} — "
                  "out of order")
            if want is None:
                check(doc.get("ok") is False and
                      doc.get("error", "").startswith("usage_error: "),
                      f"invalid line answered oddly: {line}")
            else:
                check(doc.get("ok") is True,
                      f"request id {want} failed: {line}")

        # Byte-identity: the warm duplicate replays the cold bytes.
        for cold, warm, what in ((3, 4, "simulate"), (5, 6, "liveness")):
            check(strip_id(lines[cold]) == strip_id(lines[warm]),
                  f"warm {what} duplicate differs from cold response:\n"
                  f"  cold: {lines[cold]}\n  warm: {lines[warm]}")

        # stats is point-in-time (compute requests may still be in
        # flight when it answers), so only its admission count is
        # deterministic here; cache effectiveness is asserted below on
        # the post-drain report.
        try:
            stats = json.loads(lines[8])["result"]
            check(stats["requests"] >= 8, f"stats undercounted: {stats}")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            check(False, f"stats response malformed ({exc}): {lines[8]}")

        # metrics answers with a parseable Prometheus exposition; tail
        # answers with the telemetry ring envelope (both are point-in-
        # time control ops, so record counts are not asserted here —
        # scrape_check.py covers the settled-state contract).
        try:
            metrics = json.loads(lines[9])["result"]
            check(metrics.get("format") == "prometheus-0.0.4",
                  f"metrics format wrong: {lines[9][:120]}")
            check("# TYPE " in metrics.get("exposition", ""),
                  "metrics exposition has no TYPE lines")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            check(False, f"metrics response malformed ({exc}): {lines[9]}")
        try:
            tail = json.loads(lines[10])["result"]
            check(tail["ring_capacity"] >= 1 and "recent" in tail and
                  "slow" in tail,
                  f"tail envelope malformed: {lines[10][:120]}")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            check(False, f"tail response malformed ({exc}): {lines[10]}")

        # serve and `fmmio simulate` answer one cell through one path.
        with tempfile.TemporaryDirectory() as tmp:
            cli_report = os.path.join(tmp, "r.json")
            cli = subprocess.run(
                [fmmio, "simulate", "strassen", "--n", "16", "--m", "32",
                 "--schedule", "random", "--seed", "1", "--out",
                 cli_report], capture_output=True, text=True, timeout=120)
            try:
                with open(cli_report, "r", encoding="utf-8") as f:
                    want = json.load(f)["results"]
                got = json.loads(lines[11])["result"]
                check((got["loads"], got["stores"]) ==
                      (want["loads"], want["stores"]),
                      f"serve simulate {got['loads']}/{got['stores']} != "
                      f"fmmio simulate {want['loads']}/{want['stores']}")
            except (OSError, json.JSONDecodeError, KeyError,
                    TypeError) as exc:
                check(False, f"simulate parity unreadable ({exc}); "
                             f"stderr: {cli.stderr}")

        check('"draining": true' in lines[12],
              f"shutdown not acknowledged: {lines[12]}")

    if report_path:
        # The post-drain report settles what the mid-session stats row
        # could not: every request answered, and the duplicates hit.
        try:
            with open(report_path, "r", encoding="utf-8") as f:
                report = json.load(f)
            service = report["extra"]["service"]
            check(service["responded"] == service["requests"] ==
                  len(requests),
                  f"report drain totals wrong: {service}")
            check(service["cache"]["hits"] >= 2,
                  "expected >= 2 cache hits from the warm duplicates: "
                  f"{service['cache']}")
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            check(False, f"daemon report unreadable or incomplete: {exc}")

    # --- SIGTERM drain phase -----------------------------------------
    # A fresh session, stopped by signal rather than EOF or shutdown.
    # stdin stays OPEN the whole time: if the daemon exits cleanly it
    # can only be because the signal handler triggered the drain.
    sig_requests = [
        '{"id": 1, "op": "ping"}',
        '{"id": 2, "op": "bound", "n": 64, "m": 32}',
        '{"id": 3, "op": "simulate", "algorithm": "strassen", "n": 16, '
        '"m": 64}',
    ]
    sig_report = report_path + ".sigterm.json" if report_path else None
    cmd = [fmmio, "serve", "--threads", "2"]
    if sig_report:
        cmd += ["--out", sig_report]
    daemon = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True)
    try:
        daemon.stdin.write("\n".join(sig_requests) + "\n")
        daemon.stdin.flush()
        sig_lines = [daemon.stdout.readline().strip()
                     for _ in range(len(sig_requests))]
        daemon.send_signal(signal.SIGTERM)
        rc = daemon.wait(timeout=60)
        check(rc == 0, f"SIGTERM exit code {rc}, want 0 (graceful drain)")
        for i, line in enumerate(sig_lines):
            check(line.startswith('{"id": '),
                  f"SIGTERM-phase response {i} malformed: {line}")
        if sig_report:
            try:
                with open(sig_report, "r", encoding="utf-8") as f:
                    results = json.load(f)["results"]
                check(results["service_responded"] ==
                      results["service_requests"] == len(sig_requests),
                      f"SIGTERM drain dropped requests: {results}")
                check(results.get("stopped_by_signal") is True,
                      "report does not record stopped_by_signal")
            except (OSError, json.JSONDecodeError, KeyError,
                    TypeError) as exc:
                check(False, f"SIGTERM report unreadable: {exc}")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        daemon.stdin.close()
        daemon.stdout.close()

    for msg in failures:
        print(f"service_smoke: {msg}", file=sys.stderr)
    if not failures:
        print(f"service_smoke: OK ({len(requests)} requests, ordered, "
              "byte-identical warm duplicates, graceful drain, "
              "SIGTERM drain)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
