"""Serving benchmark for the Sapphire reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload typing --seed 1 --seconds 20 --trace 0

It starts the server as a user does (``python -m repro.cli ... serve
--sapphire``) several times to time set-up, drives the last one over
loopback with an open-loop schedule built from the seed, checks every
response against an in-process oracle, and prints the metrics.  The last
line of standard output is one JSON object: end-to-end metrics with
``--trace 0``; with ``--trace 1`` the server runs with span wrappers
installed and the line holds the per-layer metrics.  Details of each run
go to ``.perfbench/<workload>-seed<seed>-trace<0|1>.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

#: Server launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: A run whose generator lagged this much (p99) is flagged invalid.  A
#: flagged run still prints its result: the metrics are medians over many
#: runs, which a few disturbed ones do not move, and a run that printed
#: nothing would leave a gap no later run can fill.
MAX_LATE_MS = 50.0
#: ... or whose queueing delay grew this much from the first fifth of
#: the measured window to the last (a growing backlog).
MAX_BACKLOG_GROWTH_S = 0.25
#: ... or during whose set-up launches or measured window the hypervisor
#: stole more than this share of the host's CPU time (``/proc/stat``).
#: On a shared VM steal moves every latency: 5% of steal over a run
#: raised the median of ``sessions`` by 30%.
MAX_STEAL_SHARE = 0.03
OUT_DIR = ".perfbench"


def _parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _route_latencies(requests, outcomes) -> Dict[str, List[float]]:
    by_route: Dict[str, List[float]] = defaultdict(list)
    for request, outcome in zip(requests, outcomes):
        if request.measured:
            by_route[request.route].append(outcome.latency)
            by_route["all"].append(outcome.latency)
    return by_route


def _backlog_growth(requests, outcomes) -> float:
    """Mean queueing delay (sent − due) of the last fifth of the measured
    requests minus that of the first fifth, in seconds."""
    delays = [outcome.sent - outcome.due
              for request, outcome in zip(requests, outcomes)
              if request.measured]
    fifth = max(1, len(delays) // 5)
    return statistics.fmean(delays[-fifth:]) - statistics.fmean(delays[:fifth])


def _stats_delta(before: dict, after: dict) -> dict:
    delta = {"queued_peak": after.get("queued_peak", 0),
             "rejected": after.get("rejected", 0) - before.get("rejected", 0)}
    cache_before, cache_after = before.get("cache", {}), after.get("cache", {})
    delta["cache_delta"] = {
        name: cache_after.get(name, 0) - cache_before.get(name, 0)
        for name in ("tree_hits", "bin_hits", "index_hits", "misses")
    }
    return delta


def _latency_metrics(by_route: Dict[str, List[float]]) -> Dict[str, dict]:
    """Per-route p50/p90/p95/p99, each tail only where ≥10 samples lie
    beyond it."""
    from measure import percentile, tail_supported

    metrics: Dict[str, dict] = {}
    for route, values in sorted(by_route.items()):
        prefix = "" if route == "all" else f"{route}_"
        for label, q in (("p50", 0.50), ("p90", 0.90), ("p95", 0.95),
                         ("p99", 0.99)):
            if label != "p50" and not tail_supported(len(values), q):
                continue
            metrics[f"{prefix}{label}_ms"] = {
                "value": _ms(percentile(values, q)), "unit": "ms",
                "samples": len(values)}
    return metrics


def _label_summary(measured) -> Dict[str, dict]:
    """Per query shape: count and median latency / service time."""
    from measure import percentile

    groups: Dict[str, list] = defaultdict(list)
    for request, outcome in measured:
        groups[request.label].append(outcome)
    return {label: {
        "n": len(group),
        "latency_p50_ms": _ms(percentile([o.latency for o in group], 0.5)),
        "service_p50_ms": _ms(percentile([o.service for o in group], 0.5)),
    } for label, group in sorted(groups.items())}


def _previous_untraced(workload: str, fingerprint: dict) -> Optional[dict]:
    path = os.path.join(OUT_DIR, f"{workload}-seed{fingerprint['seed']}"
                                 "-trace0.json")
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    return document if document.get("fingerprint") == fingerprint else None


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    # The server is stopped with SIGINT, as Ctrl+C would.  A shell that
    # starts this in the background ignores SIGINT, and an ignored signal
    # stays ignored across exec; a handler here is reset to the default
    # in the children instead.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("perfbench: run from the root of a checkout (no src/repro "
              "here)", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

    import layers
    from loadgen import get_json, run_open_loop
    from measure import cpu_seconds, host_ticks, pss_mb, steal_share
    from oracle import KNOWN_DEFECTS, Oracle
    from schedule import SENDERS, WARMUP_S, WORKLOADS, build_schedule
    from server import ServerProcess

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    phases: Dict[str, float] = {}
    began = time.perf_counter()

    def lap(name: str) -> None:
        phases[name] = time.perf_counter() - began - sum(phases.values())

    schedule = build_schedule(args.workload, args.seed, args.seconds)
    workload = schedule.workload
    requests = schedule.requests
    # The oracle is built as the server is: a pre-fork worker's store and
    # cache come from SQLite snapshots, so the oracle's do too.
    oracle_dir = os.path.join(OUT_DIR, "tmp", "oracle")
    shutil.rmtree(oracle_dir, ignore_errors=True)
    snapshot_base = None
    if workload.workers > 1:
        os.makedirs(oracle_dir)
        snapshot_base = os.path.join(oracle_dir, "data.sqlite")
    oracle = Oracle(workload.server_spec(), snapshot_base)
    dataset = oracle.dataset_fingerprint()
    # The oracle's objects live through the whole run: keep the cyclic
    # collector from walking them while the senders allocate.
    gc.freeze()
    lap("schedule_and_oracle_s")
    os.makedirs(OUT_DIR, exist_ok=True)

    env = dict(os.environ)
    env["PYTHONUNBUFFERED"] = "1"
    # The pre-fork server writes its SQLite snapshots to a temporary
    # directory: keep it inside the checkout.
    env["TMPDIR"] = os.path.abspath(os.path.join(OUT_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    paths = [os.path.join(ROOT, "src")]
    if args.trace:
        paths.insert(0, os.path.join(HERE, "hook"))
    env["PYTHONPATH"] = os.pathsep.join(
        paths + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    trace_root = os.path.join(OUT_DIR, f"spans-{args.workload}")
    shutil.rmtree(trace_root, ignore_errors=True)

    setups: List[float] = []
    unclean_stops: List[List[str]] = []
    server = None

    def stop(server) -> None:
        if not server.stop():
            unclean_stops.append(server.output[-10:])
    ticks = {"setup_start": host_ticks()}
    try:
        for launch in range(SETUP_LAUNCHES):
            if args.trace:
                env["PERFBENCH_TRACE_DIR"] = os.path.join(trace_root,
                                                          str(launch))
                os.makedirs(env["PERFBENCH_TRACE_DIR"])
            server = ServerProcess(workload.server_args, env, ROOT).start()
            setups.append(server.wait_healthy())
            if launch < SETUP_LAUNCHES - 1:
                stop(server)
                server = None

        lap("setup_launches_s")
        ticks["setup_end"] = host_ticks()
        host, port = server.host, server.port
        stats_host, stats_port = server.stats_address
        start = time.perf_counter() + 0.2
        outcomes: list = []
        loader = threading.Thread(target=lambda: outcomes.extend(
            run_open_loop(requests, host, port, senders=SENDERS,
                          keep_alive=workload.keep_alive, start=start)))
        loader.start()
        time.sleep(max(0.0, start + WARMUP_S - time.perf_counter()))
        pids = server.pids()
        ticks["window_start"] = host_ticks()
        cpu_before = cpu_seconds(pids)
        stats_before = get_json(stats_host, stats_port, "/stats")
        loader.join()
        cpu_after = cpu_seconds(pids)
        ticks["window_end"] = host_ticks()
        memory = pss_mb(pids)
        stats_after = get_json(stats_host, stats_port, "/stats")
        window_s = time.perf_counter() - (start + WARMUP_S)
    finally:
        if server is not None:
            stop(server)
    lap("load_and_stop_s")

    # --- correctness ---------------------------------------------------
    failures, known = [], Counter()
    for request, outcome in zip(requests, outcomes):
        verdict = oracle.check(request.key, outcome.status,
                               outcome.content_type, outcome.body)
        if verdict.ok:
            continue
        if verdict.known is not None:
            known[verdict.known] += 1
            continue
        failures.append({
            "index": request.index, "route": request.route,
            "label": request.label, "status": outcome.status,
            "reason": verdict.reason or outcome.error,
            "request": request.body.decode("utf-8")[:300]})
    oracle.close()
    shutil.rmtree(oracle_dir, ignore_errors=True)
    lap("oracle_check_s")
    attempted = len(requests)
    error_rate = (len(failures) + sum(known.values())) / attempted

    # --- validity ------------------------------------------------------
    measured = [(request, outcome) for request, outcome
                in zip(requests, outcomes) if request.measured]
    late_ms_p99 = layers.late_p99_ms([outcome.late for _, outcome in measured])
    growth = _backlog_growth(requests, outcomes)
    invalid = []
    if late_ms_p99 > MAX_LATE_MS:
        invalid.append(f"generator lateness p99 {late_ms_p99:.1f} ms "
                       f"> {MAX_LATE_MS} ms")
    if growth > MAX_BACKLOG_GROWTH_S:
        invalid.append(f"backlog grew: queueing delay +{_ms(growth):.0f} ms "
                       "from the first to the last fifth of the window")
    steal = {
        "setup": steal_share(ticks["setup_start"], ticks["setup_end"]),
        "window": steal_share(ticks["window_start"], ticks["window_end"]),
    }
    for phase, share in steal.items():
        if share > MAX_STEAL_SHARE:
            invalid.append(f"host CPU steal {share:.1%} during the {phase} "
                           f"> {MAX_STEAL_SHARE:.0%}")

    # --- end-to-end metrics -------------------------------------------
    answered = sum(1 for _, outcome in measured if outcome.status is not None)
    by_route = _route_latencies(requests, outcomes)
    e2e = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    e2e.update(_latency_metrics(by_route))
    e2e["cpu_ms_per_req"] = {
        "value": _ms(cpu_after - cpu_before) / max(1, answered), "unit": "ms"}
    e2e["mem_mb"] = {"value": memory, "unit": "MiB"}
    e2e["error_rate"] = {"value": error_rate, "unit": "ratio"}

    workers = Counter(outcome.worker for _, outcome in measured
                      if outcome.worker is not None)
    connects = [outcome.connect for _, outcome in measured
                if outcome.connect is not None]
    client = {
        "service": {str(request.index): outcome.service
                    for request, outcome in zip(requests, outcomes)
                    if outcome.status is not None},
        "connect_ms": _ms(statistics.fmean(connects)) if connects else 0.0,
        "max_worker_share": (max(workers.values()) / sum(workers.values())
                             if workers else 1.0),
        "late_ms_p99": late_ms_p99,
    }
    stats = _stats_delta(stats_before, stats_after)

    fingerprint = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds,
        "scripts_sha256": schedule.scripts_digest,
        "dataset": dataset,
        "server_command": ["python", "-m", "repro.cli",
                           *workload.server_args],
    }
    artifact = {
        "fingerprint": fingerprint,
        "trace": args.trace,
        "valid": not invalid, "invalid_reasons": invalid,
        "host_steal_share": steal,
        "offered_by_fifth": schedule.offered_by_fifth(),
        "attempted": attempted, "measured": len(measured),
        "answered": answered, "window_s": window_s,
        "setup_launches_s": setups,
        "phases_s": phases,
        "unclean_stops": unclean_stops,
        "end_to_end": e2e,
        "failures": failures[:100], "failure_count": len(failures),
        "known_defects": [dict(defect, count=known.get(defect["id"], 0))
                          for defect in KNOWN_DEFECTS],
        "stats": stats,
        "client": {name: value for name, value in client.items()
                   if name != "service"},
        "labels": _label_summary(measured),
    }

    for name, metric in e2e.items():
        extra = (f"  (n={metric['samples']})" if "samples" in metric else "")
        print(f"{name:<18} {metric['value']:12.4f} {metric['unit']}{extra}")
    print(f"requests: {attempted} attempted, {len(failures)} failed, "
          f"{sum(known.values())} known-defect mismatches "
          f"({', '.join(f'{k}: {v}' for k, v in known.items()) or 'none'})")
    print(f"fingerprint: scripts sha256 {schedule.scripts_digest[:16]}, "
          f"dataset {fingerprint['dataset']['triples']} triples sha256 "
          f"{fingerprint['dataset']['sha256'][:16]}, server "
          f"{' '.join(fingerprint['server_command'])}")
    print(f"host CPU steal: {steal['setup']:.2%} during set-up, "
          f"{steal['window']:.2%} during the window")
    for failure in failures[:5]:
        print(f"  failure #{failure['index']} {failure['route']} "
              f"[{failure['label']}]: {failure['reason']}")

    if args.trace:
        launch_dir = os.path.join(trace_root, str(SETUP_LAUNCHES - 1))
        documents = layers.load_span_files(launch_dir)
        if not documents:
            print(f"perfbench: the traced server wrote no spans to "
                  f"{launch_dir}; did the hook fail to install?",
                  file=sys.stderr)
            return 4
        trace = layers.TraceAnalysis(documents, measured={
            str(request.index) for request in requests if request.measured})
        per_layer = layers.layer_metrics(trace, client, stats)
        table = trace.per_route_table()
        artifact["per_layer"] = per_layer
        artifact["missing_wrappers"] = trace.missing
        if trace.missing:
            print("not traced (no longer in the program): "
                  + ", ".join(trace.missing))
        artifact["per_route_self_ms"] = table
        untraced = _previous_untraced(args.workload, fingerprint)
        artifact["tracing_overhead"] = (
            {name: metric["value"] - untraced["end_to_end"][name]["value"]
             for name, metric in e2e.items()
             if name in untraced.get("end_to_end", {})}
            if untraced is not None
            else "no untraced run with this fingerprint in .perfbench/")
        print("\nmean self time per request (ms), by route and layer:")
        for route, row in table.items():
            total = sum(value for name, value in row.items()
                        if not name.startswith("_"))
            print(f"  /{route}  n={row['_n']:.0f}  root span "
                  f"{row['_root']:.3f} ms  sum of layers {total:.3f} ms")
            for name, value in sorted(row.items(), key=lambda kv: -kv[1]):
                if not name.startswith("_"):
                    print(f"    {name:<22} {value:10.3f}")
        print()
        for name, value in per_layer.items():
            print(f"{name:<42} {value:14.4f}")

    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=1, sort_keys=True)

    if invalid:
        print("run flagged invalid (\"valid\": false in the artifact): "
              + "; ".join(invalid), file=sys.stderr)

    names = _metric_names()
    if args.trace:
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in names["per_layer"].items()}
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": unit}
                   for name, unit in names["end_to_end"].items()}
    broken = [name for name, metric in metrics.items()
              if not math.isfinite(metric["value"])]
    if broken:
        print(f"perfbench: {', '.join(broken)} not finite: too many "
              "requests got no response", file=sys.stderr)
        return 4
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _metric_names() -> Dict[str, dict]:
    """The metric names and units BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


if __name__ == "__main__":
    sys.exit(main())
