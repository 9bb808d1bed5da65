"""Tests of the benchmark itself (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from layers import TraceAnalysis  # noqa: E402
from measure import (beyond, host_ticks, percentile,  # noqa: E402
                     self_times, steal_share, tail_supported)
from schedule import (FIXED_QUERIES, FIXED_SHARES, MIME_CSV,  # noqa: E402
                      MIME_JSON, MIME_XML, WARMUP_S, WORKLOADS,
                      build_schedule)


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["typing", "sparql_api", "sessions"])
def test_same_seed_same_schedule(workload):
    first = build_schedule(workload, 7, 4)
    second = build_schedule(workload, 7, 4)
    assert first.requests == second.requests
    assert first.scripts_digest == second.scripts_digest
    other = build_schedule(workload, 8, 4)
    assert [r.body for r in other.requests] != [r.body for r in first.requests]


def test_schedule_shape():
    typing = build_schedule("typing", 3, 4)
    assert {r.route for r in typing.requests} == {"complete"}
    dues = [r.due for r in typing.requests]
    assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] < WARMUP_S + 4
    assert all(r.measured == (r.due >= WARMUP_S) for r in typing.requests)
    sessions = build_schedule("sessions", 3, 15)
    assert {r.route for r in sessions.requests} == {"complete", "suggest",
                                                    "sparql"}


@pytest.mark.parametrize("workload", ["typing", "sessions"])
def test_sessions_are_under_way_when_the_schedule_starts(workload):
    """Sessions start before 0, so the offered load is already steady in
    the first fifth of the window and does not drift across it."""
    # Summed over seeds: one run's fifths vary by ~10-20% with how the
    # keystroke bursts of its sessions fall.
    fifths, warm_up = [0] * 5, 0
    for seed in (1, 2, 3, 4):
        schedule = build_schedule(workload, seed, 20)
        fifths = [a + b for a, b in zip(fifths, schedule.offered_by_fifth())]
        warm_up += sum(1 for r in schedule.requests if r.due < WARMUP_S)
        if workload == "sessions":
            assert "suggest" in {r.route for r in schedule.requests
                                 if r.due < 1.0}
    mean = sum(fifths) / 5
    assert all(abs(count - mean) < 0.15 * mean for count in fifths), fifths
    # The warm-up, 3 s, is offered the window's rate too.
    assert warm_up / WARMUP_S == pytest.approx(mean / 4, rel=0.15)


def test_session_blocks_follow_zipf_quotas():
    from collections import Counter

    from schedule import session_scripts

    scripts, _ = session_scripts(11, [5, 40])
    assert len(scripts) == 45
    assert len({script.session for script in scripts}) == 45
    window = Counter(script.qid for script in scripts[5:])
    again = Counter(script.qid
                    for script in session_scripts(12, [5, 40])[0][5:])
    assert window == again


def test_sparql_mix_has_exact_shares_in_the_window():
    schedule = build_schedule("sparql_api", 5, 20)
    measured = [r for r in schedule.requests if r.measured]
    for label, share in FIXED_SHARES.items():
        count = sum(r.label == label for r in measured)
        assert count == round(len(measured) * share)
        assert all(r.key[1] == FIXED_QUERIES[label]
                   for r in schedule.requests if r.label == label)
    accepts = {r.key[2] for r in schedule.requests}
    assert accepts == {MIME_JSON, MIME_CSV, MIME_XML}


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def test_percentile_ranks_unanswered_slowest():
    values = [0.004, 0.001, 0.003, 0.002] + [float("inf")]
    assert percentile(values, 0.5) == 0.003
    assert percentile(values, 0.8) == 0.004
    assert math.isinf(percentile(values, 0.9))


def test_tail_needs_ten_samples_beyond():
    assert beyond(100, 0.9) == 10 and tail_supported(100, 0.9)
    assert not tail_supported(99, 0.9)
    assert not tail_supported(999, 0.99) and tail_supported(1000, 0.99)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------

#: root [0, 10] with children a [1, 4] and b [3, 6] (overlapping, union
#: [1, 6]) and c [7, 8]; a has a child d [2, 3]; 0.5 s of store steps
#: ran while root was the innermost span, 0.25 s while d was.
SPANS = [
    (1, 0, 9, "net.wsgi:root", 0.0, 10.0, 0.5),
    (2, 1, 9, "endpoint:a", 1.0, 4.0, 0.0),
    (3, 1, 9, "endpoint:b", 3.0, 6.0, 0.0),
    (4, 1, 9, "sparql.parser:c", 7.0, 8.0, 0.0),
    (5, 2, 9, "store.x:d", 2.0, 3.0, 0.25),
]


def test_self_time_subtracts_union_of_children_and_steps():
    own = self_times(SPANS)
    assert own[1] == pytest.approx(10 - 5 - 1 - 0.5)
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(1)
    assert own[5] == pytest.approx(1 - 0.25)


def test_layers_of_a_request_sum_to_its_root_span():
    spans = [
        (1, 0, 7, "net.wsgi:SparqlWsgiApp.__call__", 0.0, 10.0, 0.5),
        (2, 1, 7, "federation.fedx:run", 1.0, 6.0, 0.0),
        (3, 2, 7, "endpoint:select", 2.0, 5.0, 1.0),
        (4, 1, 7, "net.formats:write_json", 7.0, 8.0, 0.0),
        (5, 0, 0, "data:build_dataset", -5.0, -1.0, 0.0),
    ]
    # Request 8 is a warm-up request of client "3": left out.
    warm_up = [
        (6, 0, 8, "net.wsgi:SparqlWsgiApp.__call__", 20.0, 21.0, 0.0),
        (9, 6, 8, "endpoint:select", 20.2, 20.4, 0.1),
    ]
    trace = TraceAnalysis([{
        "pid": 1, "spans": spans + warm_up,
        "requests": [[7, "sparql", "42"], [8, "sparql", "3"]],
        "counts": [[7, "endpoint.call.calls", 2], [0, "endpoint.call.calls", 9],
                   [8, "endpoint.call.calls", 5]],
        "steps": [[7, 1.5], [8, 0.1]], "notes": [],
    }], measured={"42"})
    row = trace.per_route_table()["sparql"]
    layers = {name: value for name, value in row.items()
              if not name.startswith("_")}
    assert row["_n"] == 1
    assert sum(layers.values()) == pytest.approx(row["_root"]) == 10_000
    assert layers["store"] == pytest.approx(1500)
    assert trace.setup_total("data:build_dataset") == pytest.approx(4)
    assert trace.count("endpoint.call.calls", ("sparql",)) == 2
    assert trace.count("endpoint.call.calls", ("setup",)) == 9
    assert trace.transport_ms({"42": 10.5, "3": 9.0}) == pytest.approx(500)


def test_transport_is_a_quantile_of_per_request_gaps():
    spans = [(i, 0, i, "net.wsgi:SparqlWsgiApp.__call__", 0.0, 0.001, 0.0)
             for i in range(1, 11)]
    trace = TraceAnalysis([{
        "pid": 1, "spans": spans, "counts": [], "steps": [], "notes": [],
        "requests": [[i, "complete", str(i)] for i in range(1, 11)]}])
    # Two of ten requests stall 40 ms; the rest spend 1 ms in transport.
    service = {str(i): 0.002 + (0.040 if i > 8 else 0.0)
               for i in range(1, 11)}
    assert trace.transport_ms(service) == pytest.approx(1.0)
    assert trace.transport_ms(service, 0.9) == pytest.approx(41.0)


def test_host_readings():
    assert steal_share((10, 1000), (40, 2000)) == pytest.approx(0.03)
    assert steal_share((10, 1000), (10, 1000)) == 0.0
    steal, total = host_ticks()
    assert 0 <= steal <= total


# ----------------------------------------------------------------------
# Oracle comparison rules
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle():
    from oracle import Oracle

    return Oracle(dict(WORKLOADS["typing"].server_spec(), scale="tiny"))


def test_sessions_oracle_is_built_as_a_prefork_worker(tmp_path, oracle):
    from oracle import Oracle

    spec = dict(WORKLOADS["sessions"].server_spec(), scale="tiny")
    sharded = Oracle(spec, str(tmp_path / "data.sqlite"))
    try:
        assert type(sharded.server.cache).__name__ == "TieredSapphireCache"
        assert len(sharded.endpoint.store.backend.shards) == 2
        assert sharded.dataset_fingerprint() == oracle.dataset_fingerprint()
        key = ("sparql", "SELECT ?s ?n WHERE { ?s foaf:name ?n }", MIME_JSON)
        assert sharded.expected(key).rows == oracle.expected(key).rows
    finally:
        sharded.close()


def _sparql_body(oracle, query, mime):
    from repro.net.formats import RESULT_WRITERS

    return RESULT_WRITERS[mime](oracle.endpoint.select(query)).encode("utf-8")


@pytest.mark.parametrize("mime", [MIME_JSON, MIME_XML, MIME_CSV])
def test_sparql_rows_compare_as_multiset(oracle, mime):
    query = "SELECT ?s ?n WHERE { ?s foaf:name ?n }"
    body = _sparql_body(oracle, query, mime)
    key = ("sparql", query, mime)
    assert oracle.check(key, 200, mime, body).ok
    if mime != MIME_JSON:
        return
    document = json.loads(body)
    bindings = document["results"]["bindings"]
    document["results"]["bindings"] = bindings[::-1]
    assert oracle.check(key, 200, mime, json.dumps(document).encode()).ok
    document["results"]["bindings"] = bindings[1:]
    verdict = oracle.check(key, 200, mime, json.dumps(document).encode())
    assert not verdict.ok and "rows" in verdict.reason
    assert not oracle.check(key, 200, MIME_XML, body).ok


def test_limit_without_order_accepts_any_subset(oracle):
    query = "SELECT ?s ?n WHERE { ?s foaf:name ?n } LIMIT 3"
    full = json.loads(_sparql_body(oracle, query.replace(" LIMIT 3", ""),
                                   MIME_JSON))
    key = ("sparql", query, MIME_JSON)
    document = dict(full)
    document["results"] = {"bindings": full["results"]["bindings"][-3:]}
    assert oracle.check(key, 200, MIME_JSON, json.dumps(document).encode()).ok
    document["results"] = {"bindings": full["results"]["bindings"][-2:]}
    assert not oracle.check(key, 200, MIME_JSON,
                            json.dumps(document).encode()).ok


def test_status_and_missing_response(oracle):
    key = ("sparql", "SELECT ?s WHERE { ?s a dbo:Person }", MIME_JSON)
    assert not oracle.check(key, None, "", b"").ok
    assert "status 500" in oracle.check(key, 500, "", b"").reason


def test_timeout_expects_504_and_known_defect(oracle, monkeypatch):
    from oracle import Expected, _known_defect
    from repro.endpoint.endpoint import EndpointTimeout

    query = FIXED_QUERIES["cross_join_top"]
    key = ("sparql", query, MIME_JSON)

    def timeout(_query):
        raise EndpointTimeout("budget exceeded")

    monkeypatch.setattr(oracle.endpoint, "select", timeout)
    assert oracle.expected(key).status == 504
    assert oracle.check(key, 504, "application/json", b"{}").ok
    empty = json.dumps({"head": {"vars": ["c", "b", "a"]},
                        "results": {"bindings": []}}).encode()
    assert _known_defect(key, Expected(504), 200, MIME_JSON, empty) \
        == "federation-cross-join-partial"
    assert _known_defect(key, Expected(200), 200, MIME_JSON, empty) is None
    one_row = json.dumps({"head": {"vars": ["c"]}, "results": {"bindings": [
        {"c": {"type": "uri", "value": "x"}}]}}).encode()
    assert _known_defect(key, Expected(504), 200, MIME_JSON, one_row) is None


def test_suggestion_routes_are_byte_exact(oracle):
    from repro.net.suggest import (completion_document, dump_document,
                                   outcome_document)

    key = ("complete", "kenn", 5)
    body = dump_document(completion_document(oracle.server.complete("kenn", 5)))
    assert oracle.check(key, 200, "application/json", body).ok
    assert not oracle.check(key, 200, "application/json", body + b" ").ok

    query = "SELECT ?s ?n WHERE { ?s foaf:name ?n } LIMIT 5"
    document = outcome_document(oracle.server.run_query(query, suggest=False))
    key = ("suggest", query, False)
    assert oracle.check(key, 200, "application/json",
                        dump_document(document)).ok
    document["answers"]["results"]["bindings"].reverse()
    assert not oracle.check(key, 200, "application/json",
                            dump_document(document)).ok
    document["answers"]["results"]["bindings"].pop()
    assert not oracle.check(key, 200, "application/json",
                            dump_document(document)).ok


def test_metrics_match_benchmark_json():
    from layers import layer_metrics

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    trace = TraceAnalysis([])
    client = {"service": {}, "connect_ms": 0.0, "max_worker_share": 1.0,
              "late_ms_p99": 0.0}
    assert set(layer_metrics(trace, client, {})) == {
        metric["name"] for metric in spec["per_layer"]}
    assert {metric["name"] for metric in spec["end_to_end"]} <= {
        "setup_s", "p50_ms", "cpu_ms_per_req", "mem_mb"}


_TRACED_REQUEST = """
import io, sys
import perfbench_trace
perfbench_trace.install(sys.argv[1])
from repro import EndpointConfig, SapphireConfig, SapphireServer, SparqlEndpoint
from repro.data import DatasetConfig, build_dataset
from repro.net.wsgi import SparqlWsgiApp

dataset = build_dataset(DatasetConfig.tiny(seed=42))
server = SapphireServer(SapphireConfig())
server.register_endpoint(SparqlEndpoint(dataset.store, EndpointConfig()))
body = b"query=SELECT+%3Fs+%3Fn+WHERE+%7B+%3Fs+foaf%3Aname+%3Fn+%7D"
SparqlWsgiApp(server)({
    "REQUEST_METHOD": "POST", "PATH_INFO": "/sparql",
    "CONTENT_TYPE": "application/x-www-form-urlencoded",
    "CONTENT_LENGTH": str(len(body)), "wsgi.input": io.BytesIO(body),
    "HTTP_ACCEPT": "application/sparql-results+json",
}, lambda status, headers: None)
"""


def test_hook_traces_a_request_in_a_fresh_interpreter(tmp_path):
    import subprocess

    from layers import load_span_files

    root = os.path.dirname(HERE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(HERE, "hook"), os.path.join(root, "src")]))
    subprocess.run([sys.executable, "-c", _TRACED_REQUEST, str(tmp_path)],
                   env=env, check=True, timeout=120)
    documents = load_span_files(str(tmp_path))
    assert len(documents) == 1 and documents[0]["missing"] == []
    trace = TraceAnalysis(documents)
    row = trace.per_route_table()["sparql"]
    layers = {name: value for name, value in row.items()
              if not name.startswith("_")}
    assert row["_n"] == 1
    assert sum(layers.values()) == pytest.approx(row["_root"])
    for layer in ("net.wsgi", "sparql.parser", "federation.fedx",
                  "sparql.evaluator", "store", "net.formats"):
        assert layers.get(layer, 0) > 0, layer
    assert trace.setup_total("data:build_dataset") > 0
    assert trace.notes["core.initialization.queries"] > 0
