"""Span wrappers for the benchmark's traced run.

:func:`install` wraps the public entry points of each layer of the
``repro`` package, from outside the package, in the process it runs in:

* A *span* wrapper records ``(span id, parent id, request id, name,
  start, end, stepped)`` for every call.  The parent is the span open on
  the calling thread; the request id is set by the root span,
  ``SparqlWsgiApp.__call__``, for the ``/sparql``, ``/complete`` and
  ``/suggest`` routes (0 outside a request, e.g. during set-up).
* A *step* wrapper is for store scans, which return lazy iterators: the
  time spent inside each ``next()`` is charged to the ``store`` layer
  and recorded as ``stepped`` time of the span open at that moment, so
  that span's self time excludes it.
* A *counter* wrapper only counts calls, per request: it is for
  functions called millions of times (term encode/decode, Jaro-Winkler).

Everything stays in memory and is written once, as
``spans-<pid>.json`` under the trace directory, when the process exits.
Span names are ``"<layer>:<function>"``; the layer is the module path
below ``repro`` (``core.qsm_terms``, ``store``, ...).
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import sys
import threading
import time

_clock = time.perf_counter
_local = threading.local()
_ids = itertools.count(1)
_spans: list = []
_requests: list = []
_notes: list = []
_states: list = []
_missing: list = []
_ROUTES = {"/sparql": "sparql", "/": "sparql",
           "/complete": "complete", "/suggest": "suggest"}
#: Header the load generator tags every request with, so the analysis
#: can pair a server-side root span with the client's latency.
CLIENT_ID_HEADER = "X-Perfbench-Id"


class _ThreadState:
    __slots__ = ("stack", "rid", "client_id", "stepping", "counts", "steps")

    def __init__(self) -> None:
        self.stack: list = []        # frames: [span id, stepped seconds]
        self.rid = 0
        self.client_id = None
        self.stepping = False
        self.counts: dict = {}       # (rid, name) -> count
        self.steps: dict = {}        # rid -> seconds inside store steps


def _state() -> _ThreadState:
    state = getattr(_local, "state", None)
    if state is None:
        state = _local.state = _ThreadState()
        _states.append(state)
    return state


def _bump(state: _ThreadState, name: str, amount=1) -> None:
    key = (state.rid, name)
    state.counts[key] = state.counts.get(key, 0) + amount


def span(name: str, fn, on_result=None):
    """Wrap ``fn`` so every call records one span named ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = _state()
        stack = state.stack
        parent = stack[-1][0] if stack else 0
        frame = [next(_ids), 0.0]
        stack.append(frame)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            _spans.append((frame[0], parent, state.rid, name, start, end,
                           frame[1]))
        if on_result is not None:
            on_result(state, args, result)
        return result

    return wrapper


def root_span(fn):
    """Wrap ``SparqlWsgiApp.__call__``: opens a request for the routes
    the benchmark drives, then records the root span."""
    inner = span("net.wsgi:SparqlWsgiApp.__call__", fn)

    @functools.wraps(fn)
    def wrapper(self, environ, start_response):
        route = _ROUTES.get(environ.get("PATH_INFO") or "/")
        if route is None:
            return fn(self, environ, start_response)
        state = _state()
        state.rid = next(_ids)
        _requests.append((state.rid, route, state.client_id))
        try:
            return inner(self, environ, start_response)
        finally:
            state.rid = 0
            state.client_id = None

    return wrapper


def client_tag(fn):
    """Wrap the HTTP handler's dispatch to remember the client's id."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        _state().client_id = self.headers.get(CLIENT_ID_HEADER)
        return fn(self, *args, **kwargs)

    return wrapper


class _Steps:
    """Iterator proxy that times each ``next()`` of a store scan."""

    __slots__ = ("_it", "_state")

    def __init__(self, it, state: _ThreadState) -> None:
        self._it = iter(it)
        self._state = state

    def __iter__(self):
        return self

    def __next__(self):
        state = self._state
        if state.stepping:           # a backend scan inside a store scan
            return next(self._it)
        state.stepping = True
        start = _clock()
        try:
            return next(self._it)
        finally:
            elapsed = _clock() - start
            state.stepping = False
            if state.stack:
                state.stack[-1][1] += elapsed
            state.steps[state.rid] = state.steps.get(state.rid, 0.0) + elapsed

    def close(self) -> None:
        close = getattr(self._it, "close", None)
        if close is not None:
            close()


def steps(name: str, fn):
    """Wrap a scan that returns an iterator (count calls, time steps)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = _state()
        if not state.stepping:
            _bump(state, name)
        return _Steps(fn(*args, **kwargs), state)

    return wrapper


def counter(name: str, fn):
    """Wrap a hot function: count calls per request, record no span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = _state()
        key = (state.rid, name)
        counts = state.counts
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


# ----------------------------------------------------------------------
# Result hooks: work counters read from return values
# ----------------------------------------------------------------------


def _count_rows(name: str):
    def hook(state, args, result) -> None:
        rows = getattr(result, "rows", None)
        _bump(state, name + ".calls")
        if rows is not None:
            _bump(state, name + ".rows", len(rows))
    return hook


def _count_bytes(state, args, result) -> None:
    _bump(state, "net.formats.bytes", len(result))
    rows = getattr(args[0], "rows", None) if args else None
    if rows is not None:
        _bump(state, "net.formats.rows", len(rows))


def _note_init(state, args, result) -> None:
    report = getattr(args[0], "report", None)
    queries = getattr(report, "total_queries", None)
    if queries is not None:
        _notes.append(["core.initialization.queries", queries])


def _record_log(fn):
    """Wrap ``SparqlEndpoint._record``: the query log's cost units."""

    @functools.wraps(fn)
    def wrapper(self, text, outcome, cost, seconds, rows=0, truncated=False):
        state = _state()
        _bump(state, "endpoint.cost", cost)
        _bump(state, "endpoint.logged_rows", rows)
        if outcome == "timeout":
            _bump(state, "endpoint.timeouts")
        return fn(self, text, outcome, cost, seconds, rows, truncated)

    return wrapper


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------


def _span_as(layer: str, on_result=None):
    return lambda fn: span(f"{layer}:{fn.__qualname__}", fn, on_result)


def _steps_as(name: str):
    return lambda fn: steps(name, fn)


def _counter_as(name: str):
    return lambda fn: counter(name, fn)


_STORE_SCAN = _steps_as("store.match")

#: ``(module, attribute path, wrapper maker)``.  A ``Class.method`` path
#: patches the class, which every caller shares.  A plain function is
#: also rebound in every ``repro`` module that imported it by name.
TARGETS = (
    ("repro.net.wsgi", "SparqlWsgiApp.__call__", root_span),
    ("repro.net.server", "_WsgiRequestHandler._dispatch", client_tag),
    ("repro.core.sapphire", "SapphireServer.complete",
     _span_as("core.sapphire")),
    ("repro.core.sapphire", "SapphireServer.run_query",
     _span_as("core.sapphire")),
    ("repro.core.qcm", "QueryCompletionModule.complete", _span_as("core.qcm")),
    ("repro.core.qsm_terms", "AlternativeTermsFinder.suggest",
     _span_as("core.qsm_terms")),
    ("repro.core.qsm_relax", "StructureRelaxer.relax",
     _span_as("core.qsm_relax")),
    ("repro.core.qsm_relax", "StructureRelaxer.ground_literals",
     _span_as("core.qsm_relax")),
    ("repro.core.probes", "ProbeBatcher.run", _span_as("core.probes")),
    ("repro.federation.fedx", "FederatedQueryProcessor.run",
     _span_as("federation.fedx", _count_rows("federation.fedx.run"))),
    ("repro.endpoint.endpoint", "SparqlEndpoint.select",
     _span_as("endpoint", _count_rows("endpoint.call"))),
    ("repro.endpoint.endpoint", "SparqlEndpoint.ask",
     _span_as("endpoint", _count_rows("endpoint.call"))),
    ("repro.endpoint.endpoint", "SparqlEndpoint._record", _record_log),
    ("repro.sparql.evaluator", "QueryEvaluator.evaluate",
     _span_as("sparql.evaluator")),
    ("repro.store.triplestore", "TripleStore.match_ids", _STORE_SCAN),
    ("repro.store.triplestore", "TripleStore.match_columns", _STORE_SCAN),
    ("repro.store.backends", "MemoryBackend.match_ids", _STORE_SCAN),
    ("repro.store.backends", "MemoryBackend.match_columns", _STORE_SCAN),
    ("repro.store.sqlite_backend", "SQLiteBackend.match_ids", _STORE_SCAN),
    ("repro.store.sqlite_backend", "SQLiteBackend.match_columns", _STORE_SCAN),
    ("repro.store.sharded", "ShardedBackend.match_ids", _STORE_SCAN),
    ("repro.store.sharded", "ShardedBackend.match_columns", _STORE_SCAN),
    ("repro.store.dictionary", "TermDictionary.encode",
     _counter_as("store.dictionary.encode")),
    ("repro.store.dictionary", "TermDictionary.decode",
     _counter_as("store.dictionary.decode")),
    ("repro.core.initialization", "EndpointInitializer.run",
     _span_as("core.initialization", _note_init)),
    ("repro.sparql.parser", "parse_query", _span_as("sparql.parser")),
    ("repro.net.suggest", "completion_document", _span_as("net.suggest")),
    ("repro.net.suggest", "outcome_document", _span_as("net.suggest")),
    ("repro.net.suggest", "dump_document", _span_as("net.suggest")),
    ("repro.text.similarity", "jaro_winkler",
     _counter_as("text.similarity.jaro_winkler")),
    ("repro.data.generator", "build_dataset", _span_as("data")),
    ("repro.core.persistence", "save_cache", _span_as("core.persistence")),
    ("repro.core.persistence", "load_cache", _span_as("core.persistence")),
    ("repro.net.prefork", "prepare_snapshots", _span_as("net.prefork")),
    ("repro.net.prefork", "build_backend_from_spec", _span_as("net.prefork")),
)


def _rebind(replacements: dict) -> None:
    """Point every ``repro`` module's binding of an original function at
    its wrapper (callers that did ``from x import f`` hold their own)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            wrapped = replacements.get(id(value))
            if wrapped is not None and wrapped[0] is value:
                namespace[attr] = wrapped[1]


def install(trace_dir: str) -> None:
    """Wrap the layer entry points and write the spans at exit.

    A target the program no longer has is skipped and listed under
    ``missing`` in the span file, so the rest of the trace still works.
    """
    import importlib

    import repro  # noqa: F401 - loads the package graph

    replacements = {}
    for module_name, path, make in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            _missing.append(f"{module_name}.{path}")
            continue
        wrapper = make(original)
        if outer:
            setattr(owner, attr, wrapper)
        else:
            replacements[id(original)] = (original, wrapper)
    _rebind(replacements)

    # Writers are looked up in this dict on every request.
    from repro.net import formats

    for mime, writer in list(formats.RESULT_WRITERS.items()):
        formats.RESULT_WRITERS[mime] = span(
            f"net.formats:{writer.__name__}", writer, _count_bytes)

    atexit.register(_dump, trace_dir)


def _dump(trace_dir: str) -> None:
    if not _spans and not _requests:
        return
    counts: dict = {}
    steps_by_rid: dict = {}
    for state in list(_states):
        for key, value in list(state.counts.items()):
            counts[key] = counts.get(key, 0) + value
        for rid, seconds in list(state.steps.items()):
            steps_by_rid[rid] = steps_by_rid.get(rid, 0.0) + seconds
    document = {
        "pid": os.getpid(),
        "argv": sys.argv,
        "spans": _spans,
        "requests": _requests,
        "counts": [[rid, name, value] for (rid, name), value in counts.items()],
        "steps": [[rid, seconds] for rid, seconds in steps_by_rid.items()],
        "notes": _notes,
        "missing": _missing,
    }
    path = os.path.join(trace_dir, f"spans-{os.getpid()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(path + ".tmp", path)
