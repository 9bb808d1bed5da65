"""Per-layer numbers from a traced run's span files."""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set

from measure import layer_of, percentile, self_times

#: The routes whose requests each per-request layer metric averages over.
SPARQL, COMPLETE, SUGGEST = ("sparql",), ("complete",), ("suggest",)
ALL_ROUTES = ("complete", "suggest", "sparql")


def load_span_files(trace_dir: str) -> List[dict]:
    documents = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return documents


class TraceAnalysis:
    """Self time per request and layer, counters per route, set-up spans.

    A request's layers partition its root span: the self times of all
    spans of the request plus its store-scan steps add up to the root
    span's duration.  With ``measured`` (client ids), requests of other
    clients (the warm-up) are left out, so the per-request figures
    describe the same requests as the end-to-end metrics.
    """

    def __init__(self, documents: Sequence[dict],
                 measured: Optional[Set[str]] = None) -> None:
        self.measured = measured
        #: (pid, rid) -> route / client id / root seconds / layer seconds
        self.route: Dict[tuple, str] = {}
        self.client: Dict[tuple, Optional[str]] = {}
        self.root: Dict[tuple, float] = {}
        self.layers: Dict[tuple, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        #: route -> counter name -> total ("setup" for work outside requests)
        self.counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        #: span name -> durations of calls made outside any request
        self.setup: Dict[str, List[float]] = defaultdict(list)
        self.notes: Dict[str, float] = defaultdict(float)
        #: wrapper targets the program no longer has
        self.missing = sorted({target for document in documents
                               for target in document.get("missing", ())})
        for document in documents:
            self._add(document)

    def _add(self, document: dict) -> None:
        pid = document["pid"]
        skipped = set()
        for rid, route, client in document["requests"]:
            if self.measured is not None and client not in self.measured:
                skipped.add(rid)
                continue
            self.route[(pid, rid)] = route
            self.client[(pid, rid)] = client
        spans = [tuple(span) for span in document["spans"]]
        own = self_times(spans)
        for span in spans:
            sid, parent, rid, name, start, end, _ = span
            if rid == 0:
                self.setup[name].append(end - start)
                continue
            if rid in skipped:
                continue
            key = (pid, rid)
            self.layers[key][layer_of(name)] += own[sid]
            if parent == 0:
                self.root[key] = end - start
        for rid, seconds in document["steps"]:
            if rid and rid not in skipped:
                self.layers[(pid, rid)]["store"] += seconds
        for rid, name, value in document["counts"]:
            if rid in skipped:
                continue
            route = self.route.get((pid, rid), "setup") if rid else "setup"
            self.counts[route][name] += value
        for name, value in document["notes"]:
            self.notes[name] += value

    def requests(self, routes: Sequence[str]) -> List[tuple]:
        return [key for key, route in self.route.items()
                if route in routes and key in self.root]

    def mean_self_ms(self, layer: str, routes: Sequence[str]) -> float:
        keys = self.requests(routes)
        if not keys:
            return 0.0
        return 1e3 * sum(self.layers[key].get(layer, 0.0)
                         for key in keys) / len(keys)

    def per_route_table(self) -> Dict[str, Dict[str, float]]:
        """route -> layer -> mean self ms, with ``_root`` and ``_n``."""
        table: Dict[str, Dict[str, float]] = {}
        for route in ALL_ROUTES:
            keys = self.requests((route,))
            if not keys:
                continue
            row: Dict[str, float] = defaultdict(float)
            for key in keys:
                for layer, seconds in self.layers[key].items():
                    row[layer] += 1e3 * seconds / len(keys)
            row["_root"] = 1e3 * sum(self.root[key] for key in keys) / len(keys)
            row["_n"] = len(keys)
            table[route] = dict(row)
        return table

    def count(self, name: str, routes: Sequence[str]) -> float:
        return sum(self.counts[route].get(name, 0.0) for route in routes)

    def per_request(self, name: str, routes: Sequence[str]) -> float:
        n = len(self.requests(routes))
        return self.count(name, routes) / n if n else 0.0

    def ratio(self, numerator: str, denominator: str,
              routes: Sequence[str]) -> float:
        below = self.count(denominator, routes)
        return self.count(numerator, routes) / below if below else 0.0

    def setup_total(self, name: str) -> float:
        return sum(self.setup.get(name, ()))

    def setup_max(self, name: str) -> float:
        return max(self.setup.get(name, ()), default=0.0)

    def transport_ms(self, service_by_client: Dict[str, float],
                     q: float = 0.5) -> float:
        """``q``-quantile over requests of client service time minus the
        server's root span: the same statistic as the latency it is
        compared with."""
        gaps = [service_by_client[client] - self.root[key]
                for key, client in self.client.items()
                if key in self.root and client in service_by_client]
        return 1e3 * percentile(gaps, q) if gaps else 0.0


def layer_metrics(trace: TraceAnalysis, client: dict,
                  stats: dict) -> Dict[str, float]:
    """Every ``per_layer`` metric of BENCHMARK.json, by name.

    ``client`` carries the load generator's measurements and ``stats``
    the server's ``/stats`` deltas over the measured window.
    """
    cache = stats.get("cache_delta", {})
    lookups = sum(cache.get(name, 0) for name in
                  ("tree_hits", "bin_hits", "index_hits", "misses"))

    def share(name: str) -> float:
        return cache.get(name, 0) / lookups if lookups else 0.0

    return {
        "net.server.transport_ms": trace.transport_ms(client["service"]),
        "net.server.transport_p90_ms": trace.transport_ms(client["service"],
                                                          0.9),
        "net.server.connect_ms": client["connect_ms"],
        "net.wsgi.self_ms": trace.mean_self_ms("net.wsgi", ALL_ROUTES),
        "net.wsgi.queued_peak": float(stats.get("queued_peak", 0)),
        "net.wsgi.rejected": float(stats.get("rejected", 0)),
        "net.formats.serialize_ms": trace.mean_self_ms("net.formats", SPARQL),
        "net.formats.bytes_per_row": trace.ratio(
            "net.formats.bytes", "net.formats.rows", SPARQL),
        "net.suggest.encode_ms": trace.mean_self_ms(
            "net.suggest", COMPLETE + SUGGEST),
        "net.prefork.max_worker_share": client["max_worker_share"],
        "net.prefork.boot_s": trace.setup_max(
            "net.prefork:build_backend_from_spec"),
        "core.sapphire.self_ms": trace.mean_self_ms("core.sapphire", SUGGEST),
        "core.qcm.self_ms": trace.mean_self_ms("core.qcm", COMPLETE),
        "core.cache.tree_hit_ratio": share("tree_hits"),
        "core.cache.bin_hit_ratio": share("bin_hits"),
        "core.cache.index_hit_ratio": share("index_hits"),
        "core.cache.miss_ratio": share("misses"),
        "core.qsm_terms.self_ms": trace.mean_self_ms("core.qsm_terms", SUGGEST),
        "text.similarity.jw_calls_per_suggest": trace.per_request(
            "text.similarity.jaro_winkler", SUGGEST),
        "core.qsm_relax.self_ms": trace.mean_self_ms("core.qsm_relax", SUGGEST),
        "core.probes.self_ms": trace.mean_self_ms("core.probes", SUGGEST),
        "core.probes.endpoint_calls_per_suggest": trace.per_request(
            "endpoint.call.calls", SUGGEST),
        "federation.fedx.self_ms": trace.mean_self_ms("federation.fedx", SPARQL),
        "federation.fedx.rows_fetched_per_returned": trace.ratio(
            "endpoint.call.rows", "federation.fedx.run.rows", SPARQL),
        "federation.fedx.source_calls_per_query": trace.ratio(
            "endpoint.call.calls", "federation.fedx.run.calls", SPARQL),
        "endpoint.self_ms": trace.mean_self_ms("endpoint", SPARQL),
        "endpoint.cost_per_row": trace.ratio(
            "endpoint.cost", "endpoint.logged_rows", SPARQL),
        "endpoint.timeouts": trace.count("endpoint.timeouts", SPARQL),
        "sparql.parser.parse_ms": trace.mean_self_ms("sparql.parser", SPARQL),
        "sparql.evaluator.self_ms": trace.mean_self_ms(
            "sparql.evaluator", SPARQL),
        "store.match_ms": trace.mean_self_ms("store", SPARQL),
        "store.match_calls_per_query": trace.per_request("store.match", SPARQL),
        "store.dictionary.encodes_per_query": trace.per_request(
            "store.dictionary.encode", SPARQL),
        "store.dictionary.decodes_per_query": trace.per_request(
            "store.dictionary.decode", SPARQL),
        "data.build_s": trace.setup_total("data:build_dataset"),
        "core.initialization.init_s": trace.setup_total(
            "core.initialization:EndpointInitializer.run"),
        "core.initialization.queries": trace.notes.get(
            "core.initialization.queries", 0.0),
        "core.persistence.save_s": trace.setup_total(
            "core.persistence:save_cache"),
        "core.persistence.load_s": trace.setup_max(
            "core.persistence:load_cache"),
        "client.late_ms_p99": client["late_ms_p99"],
    }


def late_p99_ms(lates: Sequence[float]) -> float:
    return 1e3 * percentile(lates, 0.99) if lates else 0.0
