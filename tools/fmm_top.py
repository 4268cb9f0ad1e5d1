#!/usr/bin/env python3
"""Live dashboard for a running `fmmio serve --socket` daemon.

Usage: fmm_top.py SOCKET [--interval SEC] [--once] [--plain]

Polls the daemon's `metrics` (Prometheus text exposition) and `tail`
(recent-request spans) ops over its Unix socket and renders, per op:

  - QPS, derived from successive scrapes of the latency histogram
    _count series (rate over the poll interval);
  - p50 / p90 / p99 / max latency, read off the cumulative `le`
    buckets of fmm_service_latency_<op> (upper-edge estimate, the
    same rule the C++ HistogramSnapshot::percentile applies);
  - cache hit-rate, queue depth, slow-request and trace-drop tallies;
  - the most recent request spans with per-phase breakdowns.

Default is a curses full-screen view refreshed every --interval
seconds (q quits).  --plain renders the same frame as plain text
(one frame per interval, ^C quits); --once prints a single plain
frame and exits — that mode is what tools/scrape_check.py and the
docs transcript use, and it needs no terminal.

Stdlib only; no external dependencies.
"""
import argparse
import json
import socket
import sys
import time


# ---------------------------------------------------------------- scrape

def query(sock_path, request):
    """One NDJSON request/response round trip; returns the parsed line."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(sock_path)
        sock.sendall((json.dumps(request) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf.decode())


def parse_exposition(text):
    """Prometheus 0.0.4 text → {name: value} for samples, plus
    {hist: {le_edge: cumulative_count}} for histogram bucket series."""
    samples = {}
    buckets = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if '{le="' in name:
            base, _, label = name.partition("{")
            base = base[: -len("_bucket")]
            edge = label[len('le="'):].rstrip('"}')
            buckets.setdefault(base, {})[edge] = int(value)
        else:
            samples[name] = float(value)
    return samples, buckets


def percentile(bucket_map, count, p):
    """Upper-edge percentile estimate from cumulative le buckets."""
    if count <= 0:
        return 0
    rank = max(1, int(p * count + 0.999999))
    for edge, cumulative in sorted(
            bucket_map.items(),
            key=lambda kv: float("inf") if kv[0] == "+Inf" else int(kv[0])):
        if cumulative >= rank:
            return float("inf") if edge == "+Inf" else int(edge)
    return 0


def scrape(sock_path):
    metrics = query(sock_path, {"op": "metrics"})
    tail = query(sock_path, {"op": "tail", "limit": 8})
    if not metrics.get("ok") or not tail.get("ok"):
        raise RuntimeError("scrape failed: %r %r" % (metrics, tail))
    samples, buckets = parse_exposition(metrics["result"]["exposition"])
    return samples, buckets, tail["result"]


# ---------------------------------------------------------------- render

def fmt_ns(ns):
    if ns == float("inf"):
        return "inf"
    if ns >= 1e9:
        return "%.2fs" % (ns / 1e9)
    if ns >= 1e6:
        return "%.1fms" % (ns / 1e6)
    if ns >= 1e3:
        return "%.1fus" % (ns / 1e3)
    return "%dns" % ns


def op_rows(samples, buckets, prev_counts, dt):
    """One row per op with samples: (op, qps, count, p50, p90, p99, max)."""
    rows = []
    prefix = "fmm_service_latency_"
    for base in sorted(buckets):
        if not base.startswith(prefix):
            continue
        op = base[len(prefix):]
        count = int(samples.get(base + "_count", 0))
        if count == 0:
            continue
        rate = 0.0
        if dt > 0 and base in prev_counts:
            rate = max(0.0, (count - prev_counts[base]) / dt)
        prev_counts[base] = count
        bucket_map = buckets[base]
        rows.append((op, rate, count,
                     percentile(bucket_map, count, 0.50),
                     percentile(bucket_map, count, 0.90),
                     percentile(bucket_map, count, 0.99)))
    return rows


def render_frame(samples, buckets, tail, prev_counts, dt):
    lines = []
    hits = samples.get("fmm_service_cache_hits", 0)
    misses = samples.get("fmm_service_cache_misses", 0)
    lookups = hits + misses
    lines.append("fmm_top — %s" % time.strftime("%H:%M:%S"))
    lines.append(
        "queue depth %d   cache hit-rate %5.1f%% (%d/%d)   "
        "evictions %d   slow %d" % (
            samples.get("fmm_service_queue_depth", 0),
            100.0 * hits / lookups if lookups else 0.0,
            hits, lookups,
            samples.get("fmm_service_cache_evictions", 0),
            samples.get("fmm_service_slow_requests",
                        tail.get("slow_total", 0))))
    lines.append("")
    lines.append("%-12s %8s %8s %10s %10s %10s" % (
        "op", "qps", "count", "p50", "p90", "p99"))
    for op, rate, count, p50, p90, p99 in op_rows(
            samples, buckets, prev_counts, dt):
        lines.append("%-12s %8.1f %8d %10s %10s %10s" % (
            op, rate, count, fmt_ns(p50), fmt_ns(p90), fmt_ns(p99)))
    lines.append("")
    lines.append("recent requests (ring %d, recorded %d, dropped %d):" % (
        tail.get("ring_capacity", 0), tail.get("recorded", 0),
        tail.get("dropped", 0)))
    for rec in tail.get("recent", []):
        phases = rec.get("phases_ns", {})
        busy = " ".join(
            "%s=%s" % (name, fmt_ns(ns))
            for name, ns in phases.items() if ns > 0)
        lines.append("  #%-5d %-9s %-11s %8s  %s" % (
            rec.get("seq", 0), rec.get("op", "?"),
            rec.get("cache", "?"), fmt_ns(rec.get("total_ns", 0)), busy))
    return lines


# ---------------------------------------------------------------- modes

def run_plain(sock_path, interval, once):
    prev_counts = {}
    last = time.monotonic()
    while True:
        now = time.monotonic()
        samples, buckets, tail = scrape(sock_path)
        for line in render_frame(samples, buckets, tail, prev_counts,
                                 now - last):
            print(line)
        last = now
        if once:
            return 0
        sys.stdout.flush()
        print()
        time.sleep(interval)


def run_curses(sock_path, interval):
    import curses

    def loop(screen):
        curses.curs_set(0)
        screen.nodelay(True)
        prev_counts = {}
        last = time.monotonic()
        while True:
            now = time.monotonic()
            try:
                samples, buckets, tail = scrape(sock_path)
                frame = render_frame(samples, buckets, tail, prev_counts,
                                     now - last)
            except (OSError, RuntimeError, ValueError) as error:
                frame = ["fmm_top — scrape failed: %s" % error,
                         "(is `fmmio serve --socket %s` running?)"
                         % sock_path]
            last = now
            screen.erase()
            rows, cols = screen.getmaxyx()
            for y, line in enumerate(frame[: rows - 1]):
                screen.addnstr(y, 0, line, cols - 1)
            screen.refresh()
            deadline = time.monotonic() + interval
            while time.monotonic() < deadline:
                if screen.getch() in (ord("q"), ord("Q")):
                    return 0
                time.sleep(0.05)

    return curses.wrapper(loop)


def main(argv):
    parser = argparse.ArgumentParser(
        description="live dashboard over a running fmmio serve daemon")
    parser.add_argument("socket", help="daemon --socket path")
    parser.add_argument("--interval", type=float, default=2.0)
    parser.add_argument("--once", action="store_true",
                        help="print one plain-text frame and exit")
    parser.add_argument("--plain", action="store_true",
                        help="plain-text frames instead of curses")
    args = parser.parse_args(argv[1:])
    if args.once or args.plain:
        try:
            return run_plain(args.socket, args.interval, args.once)
        except KeyboardInterrupt:
            return 0
    return run_curses(args.socket, args.interval)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
