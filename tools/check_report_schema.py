#!/usr/bin/env python3
"""Validate an fmm run-report JSON file against the v1 schema.

Usage: check_report_schema.py report.json [report2.json ...]

Checks, per file:
  - parses as JSON and is an object
  - schema == "fmm.run_report", schema_version == 1, name is a non-empty
    string
  - params / phases_sec / bounds / results / metrics have the right
    shapes (bounds entries carry numeric bound/measured/ratio with
    ratio == measured/bound; phase durations are non-negative)
  - cross-check: when both are present, results.total_io must equal
    metrics["pebble.loads"] + metrics["pebble.stores"] — the report's
    headline number has to agree with the registry's account of the
    same run.
  - extra.sweep (when present): the versioned sweep section emitted by
    the sweep engine — task array in index order with per-task integer
    seeds, aggregate block, and counts consistent with the task rows
    (num_tasks == len(tasks), failed == #rows with ok=false, and the
    aggregate total_io equal to the sum of the per-task rows).  Rows
    that ran carry scheme provenance: scheme (name), scheme_fingerprint
    (16 lowercase hex) and omega0 (numeric) — docs/SCHEMES.md.
    Optimal-kind rows (docs/OPTIMAL.md) carry min_io >= the row's
    certified lower_bound, states_explored > 0, and an optimality tag
    from {exact, budget_exceeded}; when the spec sweeps the optimal
    kind, the aggregate's certified-chain block (optimal_cells,
    optimal_exact, optimal_chains_checked, all_chains_hold) must be
    re-derivable from the rows, with each chain check pairing the
    optimal row against the simulate row of the same
    (algorithm, n, m) cell: min_io <= simulated total_io.
  - meta.build (required): build provenance stamped into every report —
    version / git / build_type / preset / compiler as non-empty strings
    (obs/build_info.hpp).
  - meta.trace (when present): the number of span events the tracer
    recorded, as a non-negative integer (docs/OBSERVABILITY.md).
  - extra.telemetry and extra.telemetry_cold (bench_service's cold
    arm), when present: the query service's request-span section —
    per-op latency histogram rows whose bucket counts sum to the row
    count, percentile summaries ordered p50 <= p90 <= p99 <= max, and
    recent-request spans whose per-phase durations are non-negative
    and sum to at most the span total.
  - extra.service (when present): the query service's versioned session
    section — totals (requests == responded, ok + errors == responded,
    rejected_queue_full + deadline_exceeded <= errors) re-derived from
    the per-op rows, each row internally consistent
    (requests == ok + errors), and non-negative cache counters.
  - extra.resilience (when present): the fault-injection/recovery
    section — fault_events sorted by (step, processor) with each event
    a recorded wipe carrying a non-negative recovered_words count.
  - extra.fabric (when present): the router's multi-worker session
    section (docs/FABRIC.md) — totals re-derivable from the per-worker
    rows (dispatched == completed + requeued + gave_up per row; the
    completed/requeued/respawn column sums equal the fabric totals;
    routed + local == responded == requests — the fabric-wide drain
    guarantee), requeues bounded by routed * (retry_max_attempts - 1),
    gave_up == per-row gave_up + unroutable, dead_workers consistent
    with the rows' alive flags, and results.fabric_* cross-checked.
  - extra.certification (when present): one certification verdict
    (bounds::CertificationReport) — theorem from {Theorem 1.1,
    Theorem 4.1, none}; every check a named object with boolean pass,
    skipped and gating, no skipped check gating; all_pass equal to the
    AND of the gating checks' pass, and results.all_pass equal to it.
  - extra.snapshot (when present, REQUIRED whenever params.snapshot_dir
    is set): the snapshot store's accounting (docs/SNAPSHOTS.md) —
    schema fmm.snapshot v1, all counters non-negative integers,
    lookups == hits + misses, corrupt_rejected <= misses, and a
    coherent live census (zero files implies zero store_bytes).
  - extra.bench_snapshot (when present): bench_snapshot's per-case rows
    (N1) — a non-empty case list, each row naming its case and carrying
    positive integer n, vertices and snapshot_bytes and non-negative
    build_ms, publish_ms, load_full_ms and load_mapped_ms.

Exit code 0 iff every file passes; failures are listed on stderr.
This is invoked from ctest (see bench/CMakeLists.txt) against reports
freshly generated by the benches and against the committed BENCH_*.json
records, and is also handy standalone.
"""
import json
import math
import re
import sys


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    return False


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


SWEEP_KINDS = ("simulate", "liveness", "dominator", "boundcheck",
               "optimal")
OPTIMALITY_VALUES = ("exact", "budget_exceeded")
SCHEME_FINGERPRINT = re.compile(r"^[0-9a-f]{16}$")


def check_sweep_section(path, sweep, results):
    """Validate extra.sweep — the sweep engine's versioned payload.

    The section is the determinism contract for parallel sweeps, so the
    checks are structural AND arithmetic: the task array must be in
    index order, per-task seeds must be integers, and the header counts
    and aggregate totals must be re-derivable from the task rows.
    """
    if not isinstance(sweep, dict):
        return fail(path, "extra.sweep is not an object")

    ok = True
    if sweep.get("schema") != "fmm.sweep":
        ok = fail(path, f"sweep.schema is {sweep.get('schema')!r}, "
                        "expected 'fmm.sweep'")
    if sweep.get("schema_version") != 1:
        ok = fail(path, f"sweep.schema_version is "
                        f"{sweep.get('schema_version')!r}, expected 1")

    spec = sweep.get("spec")
    if not isinstance(spec, dict):
        ok = fail(path, "sweep.spec missing or not an object")
        spec = {}
    for axis in ("algorithms", "n_grid", "m_grid", "kinds"):
        if not isinstance(spec.get(axis), list):
            ok = fail(path, f"sweep.spec.{axis} missing or not an array")
    for kind in spec.get("kinds", []):
        if kind not in SWEEP_KINDS:
            ok = fail(path, f"sweep.spec.kinds has unknown kind {kind!r}")
    if not isinstance(spec.get("base_seed"), int):
        ok = fail(path, "sweep.spec.base_seed missing or not an integer")

    for count in ("num_tasks", "completed", "failed", "skipped"):
        value = sweep.get(count)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            ok = fail(path, f"sweep.{count} {value!r} is not a "
                            "non-negative integer")

    tasks = sweep.get("tasks")
    if not isinstance(tasks, list):
        ok = fail(path, "sweep.tasks missing or not an array")
        tasks = []
    if sweep.get("num_tasks") != len(tasks):
        ok = fail(path, f"sweep.num_tasks {sweep.get('num_tasks')!r} != "
                        f"len(tasks) {len(tasks)}")
    grid = 1
    for axis in ("algorithms", "n_grid", "m_grid", "kinds"):
        grid *= len(spec.get(axis) or [])
    if all(isinstance(spec.get(a), list)
           for a in ("algorithms", "n_grid", "m_grid", "kinds")) and \
            grid != len(tasks):
        ok = fail(path, f"grid cross-product {grid} != "
                        f"len(tasks) {len(tasks)}")

    n_failed = n_skipped = n_completed = 0
    sum_total_io = 0
    optimal_rows = []
    simulated_io = {}
    for i, task in enumerate(tasks):
        if not isinstance(task, dict):
            ok = fail(path, f"sweep.tasks[{i}] is not an object")
            continue
        if task.get("index") != i:
            ok = fail(path, f"sweep.tasks[{i}].index is "
                            f"{task.get('index')!r} — task array not in "
                            "index order")
        if task.get("kind") not in SWEEP_KINDS:
            ok = fail(path, f"sweep.tasks[{i}].kind {task.get('kind')!r} "
                            "unknown")
        if not isinstance(task.get("algorithm"), str) or \
                not task["algorithm"]:
            ok = fail(path, f"sweep.tasks[{i}].algorithm missing")
        for key in ("n", "m", "seed"):
            value = task.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                ok = fail(path, f"sweep.tasks[{i}].{key} {value!r} is not "
                                "an integer")
        if not isinstance(task.get("ok"), bool):
            ok = fail(path, f"sweep.tasks[{i}].ok missing or not a bool")
        # Scheme provenance (docs/SCHEMES.md): every row that resolved
        # its algorithm carries the scheme name, its content-address
        # fingerprint and omega0.  Rows that never resolved (a task that
        # gave up before running) may omit all three, but a row with any
        # of them must have them well-formed and complete.
        has_scheme = any(k in task for k in
                         ("scheme", "scheme_fingerprint", "omega0"))
        if task.get("ok") is True and not has_scheme:
            ok = fail(path, f"sweep.tasks[{i}] ok row lacks scheme "
                            "provenance (scheme / scheme_fingerprint / "
                            "omega0)")
        if has_scheme:
            if not isinstance(task.get("scheme"), str) or \
                    not task["scheme"]:
                ok = fail(path, f"sweep.tasks[{i}].scheme missing or "
                                "empty")
            fp = task.get("scheme_fingerprint")
            if not isinstance(fp, str) or not SCHEME_FINGERPRINT.match(fp):
                ok = fail(path, f"sweep.tasks[{i}].scheme_fingerprint "
                                f"{fp!r} is not 16 lowercase hex digits")
            if not is_num(task.get("omega0")):
                ok = fail(path, f"sweep.tasks[{i}].omega0 "
                                f"{task.get('omega0')!r} is not numeric")
        if task.get("ok") is False and not task.get("error"):
            ok = fail(path, f"sweep.tasks[{i}] failed but carries no "
                            "error message")
        if task.get("ok") is False:
            n_failed += 1
        elif task.get("skipped") is True:
            n_skipped += 1
        elif task.get("ok") is True:
            n_completed += 1
            io = task.get("total_io")
            if task.get("kind") in ("simulate", "boundcheck"):
                if not isinstance(io, int) or isinstance(io, bool) or io < 0:
                    ok = fail(path, f"sweep.tasks[{i}].total_io {io!r} is "
                                    "not a non-negative integer")
                else:
                    sum_total_io += io
                    if task.get("kind") == "simulate":
                        cell = (task.get("algorithm"), task.get("n"),
                                task.get("m"))
                        simulated_io[cell] = io
            if task.get("kind") == "boundcheck" and \
                    not isinstance(task.get("bound_holds"), bool):
                ok = fail(path, f"sweep.tasks[{i}] boundcheck row lacks "
                                "bound_holds")
            if task.get("kind") == "optimal":
                min_io = task.get("min_io")
                if not isinstance(min_io, int) or isinstance(min_io, bool) \
                        or min_io < 0:
                    ok = fail(path, f"sweep.tasks[{i}].min_io {min_io!r} "
                                    "is not a non-negative integer")
                states = task.get("states_explored")
                if not isinstance(states, int) or isinstance(states, bool) \
                        or states < 1:
                    ok = fail(path, f"sweep.tasks[{i}].states_explored "
                                    f"{states!r} is not a positive integer")
                if task.get("optimality") not in OPTIMALITY_VALUES:
                    ok = fail(path, f"sweep.tasks[{i}].optimality "
                                    f"{task.get('optimality')!r} not in "
                                    f"{OPTIMALITY_VALUES}")
                if not isinstance(task.get("bound_holds"), bool):
                    ok = fail(path, f"sweep.tasks[{i}] optimal row lacks "
                                    "bound_holds")
                lb = task.get("lower_bound")
                if not is_num(lb):
                    ok = fail(path, f"sweep.tasks[{i}].lower_bound "
                                    f"{lb!r} is not numeric")
                elif isinstance(min_io, int) and not \
                        isinstance(min_io, bool) and min_io < lb:
                    ok = fail(path, f"sweep.tasks[{i}] optimal row: "
                                    f"min_io {min_io} < certified "
                                    f"lower_bound {lb}")
                optimal_rows.append(task)

    # 'completed' counts every ok row, including the skipped ones (a
    # skipped cell completed without producing a payload).
    for count, derived in (("failed", n_failed), ("skipped", n_skipped),
                           ("completed", n_completed + n_skipped)):
        if sweep.get(count) != derived:
            ok = fail(path, f"sweep.{count} {sweep.get(count)!r} != "
                            f"{derived} derived from task rows")

    aggregate = sweep.get("aggregate")
    if not isinstance(aggregate, dict):
        ok = fail(path, "sweep.aggregate missing or not an object")
        aggregate = {}
    agg_io = aggregate.get("total_io")
    if not isinstance(agg_io, int) or isinstance(agg_io, bool):
        ok = fail(path, f"sweep.aggregate.total_io {agg_io!r} is not an "
                        "integer")
    elif agg_io != sum_total_io:
        ok = fail(path, f"sweep.aggregate.total_io {agg_io} != sum of "
                        f"task rows {sum_total_io}")
    for flag in ("all_bounds_hold", "all_dominators_hold"):
        if flag in aggregate and not isinstance(aggregate[flag], bool):
            ok = fail(path, f"sweep.aggregate.{flag} is not a bool")

    # Certified-chain accounting: present exactly when the spec sweeps
    # the optimal kind, and re-derivable from the task rows
    # (docs/OPTIMAL.md).
    if "optimal" in (spec.get("kinds") or []):
        chains_checked = 0
        chains_hold = True
        n_exact = 0
        for task in optimal_rows:
            if task.get("optimality") == "exact":
                n_exact += 1
            row_holds = task.get("bound_holds") is True
            cell = (task.get("algorithm"), task.get("n"), task.get("m"))
            if cell in simulated_io and isinstance(task.get("min_io"), int):
                chains_checked += 1
                row_holds = row_holds and \
                    task["min_io"] <= simulated_io[cell]
            chains_hold = chains_hold and row_holds
        for count, want in (("optimal_cells", len(optimal_rows)),
                            ("optimal_exact", n_exact),
                            ("optimal_chains_checked", chains_checked)):
            if aggregate.get(count) != want:
                ok = fail(path, f"sweep.aggregate.{count} "
                                f"{aggregate.get(count)!r} != {want} "
                                "derived from optimal task rows")
        if aggregate.get("all_chains_hold") != chains_hold:
            ok = fail(path, f"sweep.aggregate.all_chains_hold "
                            f"{aggregate.get('all_chains_hold')!r} != "
                            f"{chains_hold} derived from the certified "
                            "chain (lower_bound <= min_io <= simulated "
                            "I/O per cell)")

    if isinstance(results, dict):
        for res_key, sweep_key in (("sweep_tasks", "num_tasks"),
                                   ("sweep_failed", "failed"),
                                   ("sweep_skipped", "skipped")):
            if res_key in results and \
                    results[res_key] != sweep.get(sweep_key):
                ok = fail(path, f"results.{res_key} {results[res_key]!r} "
                                f"!= sweep.{sweep_key} "
                                f"{sweep.get(sweep_key)!r}")

    return ok


def check_resilience_section(path, resilience):
    """Validate extra.resilience — fault events and recovery word counts.

    Emitted by the faulted distributed simulator (`fmmio parallel
    --faults`).
    """
    if not isinstance(resilience, dict):
        return fail(path, "extra.resilience is not an object")

    ok = True
    if resilience.get("schema") != "fmm.resilience":
        ok = fail(path, f"resilience.schema is "
                        f"{resilience.get('schema')!r}, "
                        "expected 'fmm.resilience'")
    if resilience.get("schema_version") != 1:
        ok = fail(path, f"resilience.schema_version is "
                        f"{resilience.get('schema_version')!r}, expected 1")

    events = resilience.get("fault_events")
    if not isinstance(events, list):
        ok = fail(path, "resilience.fault_events missing or not an array")
        events = []
    prev_key = None
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            ok = fail(path, f"resilience.fault_events[{i}] is not an "
                            "object")
            continue
        for key in ("step", "processor", "recovered_words"):
            value = event.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value < 0:
                ok = fail(path, f"resilience.fault_events[{i}].{key} "
                                f"{value!r} is not a non-negative integer")
        if event.get("kind") != "wipe":
            ok = fail(path, f"resilience.fault_events[{i}].kind "
                            f"{event.get('kind')!r}, expected 'wipe'")
        key = (event.get("step"), event.get("processor"))
        if prev_key is not None and all(
                isinstance(k, int) for k in key + prev_key) and \
                key < prev_key:
            ok = fail(path, f"resilience.fault_events[{i}] out of order: "
                            f"{key} after {prev_key} — events must be "
                            "sorted by (step, processor)")
        prev_key = key

    for count in ("retransmitted_words", "recovery_words"):
        if count in resilience:
            value = resilience[count]
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value < 0:
                ok = fail(path, f"resilience.{count} {value!r} is not a "
                                "non-negative integer")

    return ok


def check_build_meta(path, doc):
    """Validate meta.build — required in every report since the query
    service PR, because comparing reports across machines/builds is
    meaningless without provenance."""
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        return fail(path, "meta missing or not an object (reports must "
                          "carry meta.build provenance)")
    build = meta.get("build")
    if not isinstance(build, dict):
        return fail(path, "meta.build missing or not an object")
    ok = True
    for key in ("version", "git", "build_type", "preset", "compiler"):
        value = build.get(key)
        if not isinstance(value, str) or not value:
            ok = fail(path, f"meta.build.{key} {value!r} is not a "
                            "non-empty string")
    if "trace" in meta:
        trace = meta["trace"]
        if not isinstance(trace, dict):
            return fail(path, "meta.trace is not an object")
        value = trace.get("events")
        if not isinstance(value, int) or isinstance(value, bool) or \
                value < 0:
            ok = fail(path, f"meta.trace.events {value!r} is not a "
                            "non-negative integer")
    return ok


def check_service_section(path, service, results):
    """Validate extra.service — the query service's session tallies.

    The totals are the drain guarantee in JSON form: responded must
    equal requests (no admitted request was dropped), and every total
    must be re-derivable from the per-op rows.
    """
    if not isinstance(service, dict):
        return fail(path, "extra.service is not an object")

    ok = True
    if service.get("schema") != "fmm.service":
        ok = fail(path, f"service.schema is {service.get('schema')!r}, "
                        "expected 'fmm.service'")
    if service.get("schema_version") != 1:
        ok = fail(path, f"service.schema_version is "
                        f"{service.get('schema_version')!r}, expected 1")

    for count in ("requests", "responded", "ok", "errors",
                  "rejected_queue_full", "deadline_exceeded"):
        value = service.get(count)
        if not isinstance(value, int) or isinstance(value, bool) or \
                value < 0:
            ok = fail(path, f"service.{count} {value!r} is not a "
                            "non-negative integer")
    if not ok:
        return ok

    if service["responded"] != service["requests"]:
        ok = fail(path, f"service.responded {service['responded']} != "
                        f"service.requests {service['requests']} — the "
                        "drain guarantee is broken")
    if service["ok"] + service["errors"] != service["responded"]:
        ok = fail(path, f"service.ok + errors "
                        f"{service['ok'] + service['errors']} != "
                        f"responded {service['responded']}")
    if service["rejected_queue_full"] + service["deadline_exceeded"] > \
            service["errors"]:
        ok = fail(path, "service rejections exceed the error total")

    cache = service.get("cache")
    if not isinstance(cache, dict):
        ok = fail(path, "service.cache missing or not an object")
    else:
        for count in ("hits", "misses", "evictions", "entries", "bytes"):
            value = cache.get(count)
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value < 0:
                ok = fail(path, f"service.cache.{count} {value!r} is not "
                                "a non-negative integer")

    ops = service.get("ops")
    if not isinstance(ops, list):
        ok = fail(path, "service.ops missing or not an array")
        ops = []
    sums = {"requests": 0, "ok": 0, "errors": 0}
    for i, row in enumerate(ops):
        if not isinstance(row, dict):
            ok = fail(path, f"service.ops[{i}] is not an object")
            continue
        if not isinstance(row.get("op"), str) or not row["op"]:
            ok = fail(path, f"service.ops[{i}].op missing")
        row_ok = True
        for count in ("requests", "ok", "errors"):
            value = row.get(count)
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value < 0:
                ok = row_ok = fail(path, f"service.ops[{i}].{count} "
                                         f"{value!r} is not a non-negative "
                                         "integer")
        if not row_ok:
            continue
        if row["requests"] != row["ok"] + row["errors"]:
            ok = fail(path, f"service.ops[{i}] ({row['op']!r}): requests "
                            f"{row['requests']} != ok + errors "
                            f"{row['ok'] + row['errors']}")
        for count in sums:
            sums[count] += row[count]
    # Every response is tallied under exactly one op ("invalid" for
    # unparseable lines), so the totals are the column sums of the rows.
    for count, (total_key, want) in (
            ("requests", ("responded", sums["requests"])),
            ("ok", ("ok", sums["ok"])),
            ("errors", ("errors", sums["errors"]))):
        if service[total_key] != want:
            ok = fail(path, f"service.{total_key} {service[total_key]} != "
                            f"{want} derived from ops rows ({count})")

    if isinstance(results, dict):
        for res_key, svc_key in (("service_requests", "requests"),
                                 ("service_responded", "responded"),
                                 ("service_ok", "ok"),
                                 ("service_errors", "errors")):
            if res_key in results and results[res_key] != service[svc_key]:
                ok = fail(path, f"results.{res_key} {results[res_key]!r} "
                                f"!= service.{svc_key} "
                                f"{service[svc_key]!r}")

    return ok


def check_fabric_section(path, fabric, results):
    """Validate extra.fabric — the router's supervision accounting.

    Every send attempt ends in exactly one of {delivered response,
    requeue, terminal give-up}, so the per-worker rows must balance and
    the fabric totals must be their column sums; responded == requests
    is the fabric-wide drain guarantee (chaos may reroute work, never
    drop it).
    """
    if not isinstance(fabric, dict):
        return fail(path, "extra.fabric is not an object")

    ok = True
    if fabric.get("schema") != "fmm.fabric":
        ok = fail(path, f"fabric.schema is {fabric.get('schema')!r}, "
                        "expected 'fmm.fabric'")
    if fabric.get("schema_version") != 1:
        ok = fail(path, f"fabric.schema_version is "
                        f"{fabric.get('schema_version')!r}, expected 1")
    if not isinstance(fabric.get("transport"), str) or \
            not fabric["transport"]:
        ok = fail(path, "fabric.transport missing or empty")

    for count in ("num_workers", "worker_queue_depth",
                  "retry_max_attempts", "max_respawns", "requests",
                  "responded", "ok", "errors", "routed", "local",
                  "requeues", "respawns", "gave_up", "unroutable",
                  "kills_injected", "dropped_responses",
                  "rejected_queue_full", "dead_workers"):
        value = fabric.get(count)
        if not isinstance(value, int) or isinstance(value, bool) or \
                value < 0:
            ok = fail(path, f"fabric.{count} {value!r} is not a "
                            "non-negative integer")
    workers = fabric.get("workers")
    if not isinstance(workers, list):
        ok = fail(path, "fabric.workers missing or not an array")
        workers = []
    if not ok:
        return ok

    if fabric["num_workers"] != len(workers):
        ok = fail(path, f"fabric.num_workers {fabric['num_workers']} != "
                        f"len(workers) {len(workers)}")
    sums = {"dispatched": 0, "completed": 0, "requeued": 0,
            "gave_up": 0, "respawns": 0}
    n_dead = 0
    for i, row in enumerate(workers):
        if not isinstance(row, dict):
            ok = fail(path, f"fabric.workers[{i}] is not an object")
            continue
        if row.get("worker") != i:
            ok = fail(path, f"fabric.workers[{i}].worker is "
                            f"{row.get('worker')!r} — rows not in slot "
                            "order")
        if not isinstance(row.get("alive"), bool):
            ok = fail(path, f"fabric.workers[{i}].alive missing or not a "
                            "bool")
        elif not row["alive"]:
            n_dead += 1
        row_ok = True
        for count in sums:
            value = row.get(count)
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value < 0:
                ok = row_ok = fail(path, f"fabric.workers[{i}].{count} "
                                         f"{value!r} is not a non-negative "
                                         "integer")
        if not row_ok:
            continue
        # The per-row balance: every dispatch ended exactly one way.
        if row["dispatched"] != row["completed"] + row["requeued"] + \
                row["gave_up"]:
            ok = fail(path, f"fabric.workers[{i}]: dispatched "
                            f"{row['dispatched']} != completed + requeued "
                            f"+ gave_up "
                            f"{row['completed'] + row['requeued'] + row['gave_up']}")
        for count in sums:
            sums[count] += row[count]

    # Column sums against the fabric totals.
    if fabric["requeues"] != sums["requeued"]:
        ok = fail(path, f"fabric.requeues {fabric['requeues']} != sum of "
                        f"worker rows {sums['requeued']}")
    if fabric["respawns"] != sums["respawns"]:
        ok = fail(path, f"fabric.respawns {fabric['respawns']} != sum of "
                        f"worker rows {sums['respawns']}")
    if fabric["gave_up"] != sums["gave_up"] + fabric["unroutable"]:
        ok = fail(path, f"fabric.gave_up {fabric['gave_up']} != per-row "
                        f"gave_up {sums['gave_up']} + unroutable "
                        f"{fabric['unroutable']}")
    if sums["completed"] + sums["gave_up"] + fabric["unroutable"] != \
            fabric["routed"]:
        ok = fail(path, f"fabric.routed {fabric['routed']} != completed "
                        f"{sums['completed']} + gave_up {sums['gave_up']} "
                        f"+ unroutable {fabric['unroutable']}")

    # The drain guarantee and response accounting.
    if fabric["responded"] != fabric["requests"]:
        ok = fail(path, f"fabric.responded {fabric['responded']} != "
                        f"fabric.requests {fabric['requests']} — the "
                        "fabric drain guarantee is broken")
    if fabric["routed"] + fabric["local"] != fabric["responded"]:
        ok = fail(path, f"fabric.routed + local "
                        f"{fabric['routed'] + fabric['local']} != "
                        f"responded {fabric['responded']}")
    if fabric["ok"] + fabric["errors"] != fabric["responded"]:
        ok = fail(path, f"fabric.ok + errors "
                        f"{fabric['ok'] + fabric['errors']} != responded "
                        f"{fabric['responded']}")
    if fabric["retry_max_attempts"] >= 1 and fabric["requeues"] > \
            fabric["routed"] * (fabric["retry_max_attempts"] - 1):
        ok = fail(path, f"fabric.requeues {fabric['requeues']} > routed * "
                        f"(retry_max_attempts - 1) — more requeues than "
                        "the retry budget allows")
    if fabric["dead_workers"] != n_dead:
        ok = fail(path, f"fabric.dead_workers {fabric['dead_workers']} != "
                        f"{n_dead} rows with alive=false")
    if fabric["dead_workers"] > fabric["num_workers"]:
        ok = fail(path, "fabric.dead_workers exceeds num_workers")

    if isinstance(results, dict):
        for res_key, fab_key in (("fabric_requests", "requests"),
                                 ("fabric_responded", "responded"),
                                 ("fabric_requeues", "requeues"),
                                 ("fabric_respawns", "respawns"),
                                 ("fabric_dead_workers", "dead_workers")):
            if res_key in results and results[res_key] != fabric[fab_key]:
                ok = fail(path, f"results.{res_key} {results[res_key]!r} "
                                f"!= fabric.{fab_key} "
                                f"{fabric[fab_key]!r}")

    return ok


THEOREMS = ("Theorem 1.1", "Theorem 4.1", "none")


def check_certification_section(path, cert, results):
    """Validate extra.certification — one scheme's verdict.

    all_pass is re-derived from the check rows: validity and the
    covering theorem's checks gate, the rest only print.
    """
    if not isinstance(cert, dict):
        return fail(path, "extra.certification is not an object")
    ok = True
    if cert.get("theorem") not in THEOREMS:
        ok = fail(path, f"certification.theorem is {cert.get('theorem')!r}, "
                        f"expected one of {THEOREMS}")
    checks = cert.get("checks")
    if not isinstance(checks, list) or not checks:
        return fail(path, "certification.checks missing or empty")
    gating_pass = True
    for i, check in enumerate(checks):
        if not isinstance(check, dict) or \
                not isinstance(check.get("name"), str):
            ok = fail(path, f"certification.checks[{i}] has no name")
            continue
        flags = [check.get(k) for k in ("pass", "skipped", "gating")]
        if not all(isinstance(flag, bool) for flag in flags):
            ok = fail(path, f"certification check {check['name']!r}: pass, "
                            "skipped and gating must be booleans")
            continue
        passed, skipped, gating = flags
        if skipped and gating:
            ok = fail(path, f"certification check {check['name']!r} is "
                            "skipped but gating")
        if gating:
            gating_pass = gating_pass and passed
    if cert.get("all_pass") != gating_pass:
        ok = fail(path, f"certification.all_pass is "
                        f"{cert.get('all_pass')!r}, but the gating checks "
                        f"give {gating_pass}")
    if isinstance(results, dict) and "all_pass" in results and \
            results["all_pass"] != cert.get("all_pass"):
        ok = fail(path, f"results.all_pass {results['all_pass']!r} != "
                        f"certification.all_pass {cert.get('all_pass')!r}")
    return ok


SNAPSHOT_COUNTERS = ("lookups", "hits", "misses", "publishes",
                     "evictions", "corrupt_rejected", "files",
                     "store_bytes")


def check_snapshot_section(path, snapshot):
    """Validate extra.snapshot — the snapshot store's accounting.

    The store is a plain directory of content-addressed files, so its
    accounting must close arithmetically: every lookup either hit or
    missed (lookups == hits + misses), every counter is a non-negative
    integer, and the live census (files / store_bytes) can never go
    negative.  A quarantined corrupt file counts as a miss, so
    corrupt_rejected can never exceed misses.
    """
    if not isinstance(snapshot, dict):
        return fail(path, "extra.snapshot is not an object")

    ok = True
    if snapshot.get("schema") != "fmm.snapshot":
        ok = fail(path, f"snapshot.schema is {snapshot.get('schema')!r}, "
                        "expected 'fmm.snapshot'")
    if snapshot.get("version") != 1:
        ok = fail(path, f"snapshot.version is "
                        f"{snapshot.get('version')!r}, expected 1")
    directory = snapshot.get("directory")
    if not isinstance(directory, str) or not directory:
        ok = fail(path, "snapshot.directory missing or empty")

    for count in SNAPSHOT_COUNTERS:
        value = snapshot.get(count)
        if not isinstance(value, int) or isinstance(value, bool) or \
                value < 0:
            ok = fail(path, f"snapshot.{count} {value!r} is not a "
                            "non-negative integer")
            return ok

    if snapshot["lookups"] != snapshot["hits"] + snapshot["misses"]:
        ok = fail(path, f"snapshot.lookups {snapshot['lookups']} != "
                        f"hits + misses "
                        f"{snapshot['hits'] + snapshot['misses']}")
    if snapshot["corrupt_rejected"] > snapshot["misses"]:
        ok = fail(path, f"snapshot.corrupt_rejected "
                        f"{snapshot['corrupt_rejected']} exceeds misses "
                        f"{snapshot['misses']}")
    if snapshot["files"] == 0 and snapshot["store_bytes"] != 0:
        ok = fail(path, f"snapshot.store_bytes "
                        f"{snapshot['store_bytes']} nonzero with zero "
                        "files")
    return ok


BENCH_SNAPSHOT_COUNTS = ("n", "vertices", "snapshot_bytes")
BENCH_SNAPSHOT_TIMES = ("build_ms", "publish_ms", "load_full_ms",
                        "load_mapped_ms")


def check_bench_snapshot_section(path, section):
    """Validate extra.bench_snapshot — N1's per-case rows.

    Each case records what one CDAG costs to build, to publish into the
    store and to load back both ways; the timings are not gated here, but
    every row must carry all four.
    """
    cases = section.get("cases") if isinstance(section, dict) else None
    if not isinstance(cases, list) or not cases:
        return fail(path, "bench_snapshot.cases missing or empty")
    ok = True
    for i, row in enumerate(cases):
        if not isinstance(row, dict) or not isinstance(row.get("case"), str) \
                or not row["case"]:
            ok = fail(path, f"bench_snapshot.cases[{i}] has no case name")
            continue
        for key in BENCH_SNAPSHOT_COUNTS:
            value = row.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value <= 0:
                ok = fail(path, f"bench_snapshot.cases[{i}].{key} {value!r} "
                                "is not a positive integer")
        for key in BENCH_SNAPSHOT_TIMES:
            value = row.get(key)
            if not is_num(value) or value < 0:
                ok = fail(path, f"bench_snapshot.cases[{i}].{key} {value!r} "
                                "is not a non-negative number")
    return ok


TELEMETRY_PHASES = ("queue_wait", "parse", "cache_lookup", "cdag_build",
                    "simulate", "render", "emit")
CACHE_VERDICTS = ("uncacheable", "miss", "miss_coalesced", "hit")


def check_telemetry_section(path, telemetry):
    """Validate extra.telemetry — per-op latency histograms and spans.

    The histogram rows are the scrape surface's source of truth, so the
    arithmetic must close: bucket counts sum to the row count, and the
    percentile summary is monotone and bounded by the observed max.
    Span phase durations are disjoint wall-time slices of one request,
    so they can never sum past the request total.
    """
    if not isinstance(telemetry, dict):
        return fail(path, "extra.telemetry is not an object")

    ok = True
    if telemetry.get("schema") != "fmm.telemetry":
        ok = fail(path, f"telemetry.schema is "
                        f"{telemetry.get('schema')!r}, "
                        "expected 'fmm.telemetry'")
    if telemetry.get("schema_version") != 1:
        ok = fail(path, f"telemetry.schema_version is "
                        f"{telemetry.get('schema_version')!r}, expected 1")

    for count in ("slow_threshold_ms", "ring_capacity", "recorded",
                  "dropped", "slow_total"):
        value = telemetry.get(count)
        if not isinstance(value, int) or isinstance(value, bool) or \
                value < 0:
            ok = fail(path, f"telemetry.{count} {value!r} is not a "
                            "non-negative integer")

    ops = telemetry.get("ops")
    if not isinstance(ops, list):
        ok = fail(path, "telemetry.ops missing or not an array")
        ops = []
    for i, row in enumerate(ops):
        if not isinstance(row, dict):
            ok = fail(path, f"telemetry.ops[{i}] is not an object")
            continue
        if not isinstance(row.get("op"), str) or not row["op"]:
            ok = fail(path, f"telemetry.ops[{i}].op missing")
        row_ok = True
        for key in ("count", "sum_ns", "max_ns", "p50_ns", "p90_ns",
                    "p99_ns"):
            value = row.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value < 0:
                ok = row_ok = fail(path, f"telemetry.ops[{i}].{key} "
                                         f"{value!r} is not a non-negative "
                                         "integer")
        buckets = row.get("buckets")
        if not isinstance(buckets, list) or not all(
                isinstance(b, dict) for b in buckets):
            ok = row_ok = fail(path, f"telemetry.ops[{i}].buckets missing "
                                     "or malformed")
        if not row_ok:
            continue
        if row["count"] < 1:
            ok = fail(path, f"telemetry.ops[{i}] ({row['op']!r}) has "
                            "count 0 — empty rows must be omitted")
        bucket_sum = 0
        prev_le = -1
        for j, bucket in enumerate(buckets):
            le, count = bucket.get("le"), bucket.get("count")
            if not isinstance(le, int) or not isinstance(count, int) or \
                    isinstance(le, bool) or isinstance(count, bool) or \
                    count < 1:
                ok = fail(path, f"telemetry.ops[{i}].buckets[{j}] "
                                f"{bucket!r} malformed")
                continue
            if le <= prev_le:
                ok = fail(path, f"telemetry.ops[{i}].buckets[{j}] le {le} "
                                "not increasing")
            prev_le = le
            bucket_sum += count
        if bucket_sum != row["count"]:
            ok = fail(path, f"telemetry.ops[{i}] ({row['op']!r}): bucket "
                            f"counts sum to {bucket_sum} != count "
                            f"{row['count']}")
        if not row["p50_ns"] <= row["p90_ns"] <= row["p99_ns"] <= \
                row["max_ns"]:
            ok = fail(path, f"telemetry.ops[{i}] ({row['op']!r}): "
                            "percentiles not ordered "
                            f"p50 {row['p50_ns']} <= p90 {row['p90_ns']} "
                            f"<= p99 {row['p99_ns']} <= max "
                            f"{row['max_ns']}")
        if row["max_ns"] * row["count"] < row["sum_ns"]:
            ok = fail(path, f"telemetry.ops[{i}] ({row['op']!r}): sum_ns "
                            f"{row['sum_ns']} > count * max_ns")

    recent = telemetry.get("recent")
    if not isinstance(recent, list):
        ok = fail(path, "telemetry.recent missing or not an array")
        recent = []
    for i, span in enumerate(recent):
        if not isinstance(span, dict):
            ok = fail(path, f"telemetry.recent[{i}] is not an object")
            continue
        if not isinstance(span.get("op"), str) or not span["op"]:
            ok = fail(path, f"telemetry.recent[{i}].op missing")
        if span.get("cache") not in CACHE_VERDICTS:
            ok = fail(path, f"telemetry.recent[{i}].cache "
                            f"{span.get('cache')!r} unknown")
        if not isinstance(span.get("ok"), bool):
            ok = fail(path, f"telemetry.recent[{i}].ok missing or not a "
                            "bool")
        span_ok = True
        for key in ("seq", "bytes_in", "bytes_out", "total_ns"):
            value = span.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value < 0:
                ok = span_ok = fail(path, f"telemetry.recent[{i}].{key} "
                                          f"{value!r} is not a "
                                          "non-negative integer")
        phases = span.get("phases_ns")
        if not isinstance(phases, dict) or \
                sorted(phases) != sorted(TELEMETRY_PHASES):
            ok = fail(path, f"telemetry.recent[{i}].phases_ns keys "
                            f"{sorted(phases) if isinstance(phases, dict) else phases!r} "
                            f"!= {sorted(TELEMETRY_PHASES)}")
            continue
        phase_sum = 0
        for name, value in phases.items():
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value < 0:
                ok = span_ok = fail(
                    path, f"telemetry.recent[{i}].phases_ns.{name} "
                          f"{value!r} is not a non-negative integer")
            else:
                phase_sum += value
        if span_ok and phase_sum > span["total_ns"]:
            ok = fail(path, f"telemetry.recent[{i}]: phases sum "
                            f"{phase_sum} > total_ns {span['total_ns']}")

    return ok


def check_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(path, f"unreadable or invalid JSON: {exc}")

    if not isinstance(doc, dict):
        return fail(path, "top level is not a JSON object")

    ok = True
    if doc.get("schema") != "fmm.run_report":
        ok = fail(path, f"schema is {doc.get('schema')!r}, "
                        "expected 'fmm.run_report'")
    if doc.get("schema_version") != 1:
        ok = fail(path, f"schema_version is {doc.get('schema_version')!r}, "
                        "expected 1")
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        ok = fail(path, "name missing or not a non-empty string")

    for section in ("params", "phases_sec", "results", "metrics"):
        if section in doc and not isinstance(doc[section], dict):
            ok = fail(path, f"{section} is not an object")

    for phase, seconds in doc.get("phases_sec", {}).items():
        if not is_num(seconds) or seconds < 0:
            ok = fail(path, f"phase {phase!r} duration {seconds!r} "
                            "not a non-negative number")

    bounds = doc.get("bounds", [])
    if not isinstance(bounds, list):
        ok = fail(path, "bounds is not an array")
        bounds = []
    for i, entry in enumerate(bounds):
        if not isinstance(entry, dict):
            ok = fail(path, f"bounds[{i}] is not an object")
            continue
        if not isinstance(entry.get("name"), str):
            ok = fail(path, f"bounds[{i}].name missing")
        for key in ("bound", "measured", "ratio"):
            if key in entry and entry[key] is not None and \
                    not is_num(entry[key]):
                ok = fail(path, f"bounds[{i}].{key} is not numeric")
        b, m, r = (entry.get(k) for k in ("bound", "measured", "ratio"))
        if is_num(b) and is_num(m) and is_num(r) and b != 0:
            if not math.isclose(r, m / b, rel_tol=1e-6):
                ok = fail(path, f"bounds[{i}] ({entry.get('name')!r}): "
                                f"ratio {r} != measured/bound {m / b}")

    for name, value in doc.get("metrics", {}).items():
        if not isinstance(value, int) or isinstance(value, bool):
            ok = fail(path, f"metric {name!r} value {value!r} "
                            "is not an integer")

    ok = check_build_meta(path, doc) and ok

    extra = doc.get("extra", {})
    if not isinstance(extra, dict):
        ok = fail(path, "extra is not an object")
        extra = {}
    if "service" in extra:
        ok = check_service_section(path, extra["service"],
                                   doc.get("results", {})) and ok
    for key in ("telemetry", "telemetry_cold"):
        if key in extra:
            ok = check_telemetry_section(path, extra[key]) and ok
    if "sweep" in extra:
        ok = check_sweep_section(path, extra["sweep"],
                                 doc.get("results", {})) and ok
    if "resilience" in extra:
        ok = check_resilience_section(path, extra["resilience"]) and ok
    if "fabric" in extra:
        ok = check_fabric_section(path, extra["fabric"],
                                  doc.get("results", {})) and ok
    if "certification" in extra:
        ok = check_certification_section(path, extra["certification"],
                                         doc.get("results", {})) and ok
    if "bench_snapshot" in extra:
        ok = check_bench_snapshot_section(path, extra["bench_snapshot"]) \
            and ok
    if "snapshot" in extra:
        ok = check_snapshot_section(path, extra["snapshot"]) and ok
    elif isinstance(doc.get("params"), dict) and \
            doc["params"].get("snapshot_dir"):
        # A run that mounted a snapshot store must account for it.
        ok = fail(path, "params.snapshot_dir set but extra.snapshot "
                        "section is missing")

    results = doc.get("results", {})
    metrics = doc.get("metrics", {})
    if isinstance(results, dict) and isinstance(metrics, dict):
        total_io = results.get("total_io")
        loads = metrics.get("pebble.loads")
        stores = metrics.get("pebble.stores")
        # A resumed sweep restores rows without re-running them, so its
        # registry counters legitimately undercount the report aggregate.
        if total_io is not None and loads is not None and \
                stores is not None and not results.get("sweep_resumed"):
            if total_io != loads + stores:
                ok = fail(path, f"results.total_io {total_io} != "
                                f"pebble.loads + pebble.stores "
                                f"{loads + stores}")

    return ok


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    all_ok = True
    for path in argv[1:]:
        if check_report(path):
            print(f"{path}: OK")
        else:
            all_ok = False
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
