"""In-process oracle: the expected answer to every request of a run.

The oracle builds the same dataset, store, endpoint policy and Sapphire
server as ``repro serve`` does, in this process, and answers each
distinct request once:

* ``/sparql``: ``SparqlEndpoint.select``.  The response must hold the
  same rows as a multiset.  For ``LIMIT`` without ``ORDER BY`` any
  subset is a correct answer, so the response must have the same row
  count and every row must occur in the unlimited answer.  An
  ``EndpointTimeout`` expects ``504``.
* ``/complete`` and ``/suggest``: the body must be byte-identical to
  ``dump_document`` of the in-process ``SapphireServer``'s answer.

Response bodies are parsed by this module's own readers (JSON, XML and
CSV), not by the program's, so a serializer bug cannot hide itself.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import xml.etree.ElementTree as ElementTree
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.endpoint.endpoint import EndpointTimeout, QueryRejected
from repro.net.prefork import build_backend_from_spec, prepare_snapshots
from repro.net.suggest import completion_document, dump_document, outcome_document
from repro.rdf.terms import IRI, BlankNode, Literal
from repro.sparql.errors import SparqlError
from repro.sparql.parser import parse_query

from schedule import FIXED_QUERIES, MIME_CSV, MIME_JSON, MIME_XML

_RESULTS_NS = "{http://www.w3.org/2005/sparql-results#}"

#: Defects of the program at the seed that the benchmark shows on
#: purpose (see :func:`_known_defect` for how each is recognised).  A
#: mismatch recognised as one is counted and listed as known; any other
#: mismatch is a failure.
KNOWN_DEFECTS = (
    {
        "id": "federation-cross-join-partial",
        "route": "sparql",
        "note": "the ORDER BY ... LIMIT cross join of sparql_api: "
                "SparqlEndpoint.select raises EndpointTimeout, but the "
                "federation behind /sparql answers 200 with zero rows",
    },
)


@dataclass
class Expected:
    status: int
    body: Optional[bytes] = None                  # byte-exact routes
    rows: Optional[Counter] = None                # /sparql multiset
    superset: Optional[Counter] = None            # LIMIT without ORDER BY


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    known: Optional[str] = None                   # KNOWN_DEFECTS id


def _canonical(term) -> tuple:
    if isinstance(term, IRI):
        return ("uri", term.value)
    if isinstance(term, BlankNode):
        return ("bnode", term.label)
    if isinstance(term, Literal):
        datatype = "" if term.lang or term.datatype is None else term.datatype.value
        return ("literal", term.lexical, term.lang or "", datatype)
    raise TypeError(f"unexpected term {term!r}")


def _row_key(bindings: Dict[str, tuple], csv_only: bool) -> tuple:
    if csv_only:
        return tuple(sorted((name, value[1]) for name, value in bindings.items()))
    return tuple(sorted(bindings.items()))


def _expected_rows(result, csv_only: bool) -> Counter:
    return Counter(
        _row_key({name: _canonical(term) for name, term in row.items()
                  if term is not None}, csv_only)
        for row in result.rows
    )


# ----------------------------------------------------------------------
# Response readers
# ----------------------------------------------------------------------


def read_json(body: bytes) -> List[Dict[str, tuple]]:
    document = json.loads(body)
    rows = []
    for binding in document["results"]["bindings"]:
        row = {}
        for name, value in binding.items():
            kind = value["type"]
            if kind in ("literal", "typed-literal"):
                row[name] = ("literal", value["value"],
                             value.get("xml:lang", ""),
                             value.get("datatype", ""))
            else:
                row[name] = (kind, value["value"])
        rows.append(row)
    return rows


def read_xml(body: bytes) -> List[Dict[str, tuple]]:
    root = ElementTree.fromstring(body)
    rows = []
    for result in root.iter(_RESULTS_NS + "result"):
        row = {}
        for binding in result.findall(_RESULTS_NS + "binding"):
            node = binding[0]
            tag = node.tag[len(_RESULTS_NS):]
            text = node.text or ""
            if tag == "literal":
                row[binding.get("name")] = (
                    "literal", text,
                    node.get("{http://www.w3.org/XML/1998/namespace}lang", ""),
                    node.get("datatype", ""))
            else:
                row[binding.get("name")] = (tag, text)
        rows.append(row)
    return rows


def read_csv(body: bytes) -> List[Dict[str, tuple]]:
    reader = csv.reader(io.StringIO(body.decode("utf-8"), newline=""))
    header = next(reader)
    return [{name: ("", value) for name, value in zip(header, record) if value}
            for record in reader]


READERS = {MIME_JSON: read_json, MIME_XML: read_xml, MIME_CSV: read_csv}
#: What the readers raise on a malformed body.
UNREADABLE = (ValueError, KeyError, IndexError, TypeError,
              ElementTree.ParseError, csv.Error, StopIteration)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


class Oracle:
    """Expected answers for one dataset, seed and server configuration.

    ``spec`` is the ``repro.net.prefork`` spec of the server under test.
    The oracle's ``SapphireServer`` comes from ``build_backend_from_spec``,
    the pre-fork workers' factory; without snapshots it builds what the
    single-process ``repro serve`` builds (dataset, memory store,
    endpoint, Section 5 initialization).  With ``snapshot_base`` it is
    built as a pre-fork worker is: over read-only sharded SQLite
    snapshots written there by ``prepare_snapshots``, with the tiered
    cache booted from the persisted cache.
    """

    def __init__(self, spec: Dict[str, object],
                 snapshot_base: Optional[str] = None) -> None:
        if snapshot_base is not None:
            spec = prepare_snapshots(spec, snapshot_base)
        self.server = build_backend_from_spec(spec)
        self.endpoint = self.server.endpoints[0]
        self._answers: Dict[tuple, Expected] = {}

    def close(self) -> None:
        """Close the store and cache (their snapshot files can then be
        removed)."""
        for owner in (self.endpoint.store.backend, self.server.cache):
            close = getattr(owner, "close", None)
            if close is not None:
                close()

    def dataset_fingerprint(self) -> Dict[str, object]:
        lines = sorted(f"{t.subject.n3()} {t.predicate.n3()} {t.object.n3()} ."
                       for t in self.endpoint.store.triples())
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        return {"triples": len(lines), "sha256": digest}

    def expected(self, key: tuple) -> Expected:
        answer = self._answers.get(key)
        if answer is None:
            answer = self._answers[key] = self._compute(key)
        return answer

    def _compute(self, key: tuple) -> Expected:
        route = key[0]
        try:
            if route == "complete":
                _, text, k = key
                return Expected(200, body=dump_document(
                    completion_document(self.server.complete(text, k))))
            if route == "suggest":
                _, query, suggest = key
                return Expected(200, body=dump_document(outcome_document(
                    self.server.run_query(query, suggest=suggest))))
            _, query, accept = key
            csv_only = accept == MIME_CSV
            result = self.endpoint.select(query)
            expected = Expected(200, rows=_expected_rows(result, csv_only))
            parsed = parse_query(query)
            if parsed.limit is not None and not parsed.order_by:
                unlimited = copy.deepcopy(parsed)
                unlimited.limit = unlimited.offset = None
                expected.superset = _expected_rows(
                    self.endpoint.select(unlimited), csv_only)
            return expected
        except EndpointTimeout:
            return Expected(504)
        except QueryRejected:
            return Expected(503)
        except SparqlError:
            return Expected(400)

    def check(self, key: tuple, status: Optional[int], content_type: str,
              body: bytes) -> Verdict:
        """Compare one response with the expected answer."""
        if status is None:
            return Verdict(False, "no response")
        expected = self.expected(key)
        verdict = self._compare(key, expected, status, content_type, body)
        if not verdict.ok:
            verdict.known = _known_defect(key, expected, status,
                                          content_type, body)
        return verdict

    def _compare(self, key, expected: Expected, status: int,
                 content_type: str, body: bytes) -> Verdict:
        if status != expected.status:
            return Verdict(False, f"status {status}, expected {expected.status}")
        if status != 200:
            return Verdict(True)
        if expected.body is not None:
            if body == expected.body:
                return Verdict(True)
            return Verdict(False, "body differs from the in-process answer")
        accept = key[2]
        if content_type.split(";")[0].strip() != accept:
            return Verdict(False, f"content type {content_type!r}, "
                                  f"asked for {accept!r}")
        try:
            got = Counter(_row_key(row, accept == MIME_CSV)
                          for row in READERS[accept](body))
        except UNREADABLE as exc:
            return Verdict(False, f"unreadable body: {type(exc).__name__}")
        if expected.superset is not None:
            if sum(got.values()) != sum(expected.rows.values()):
                return Verdict(False, f"{sum(got.values())} rows, expected "
                                      f"{sum(expected.rows.values())}")
            if got - expected.superset:
                return Verdict(False, "rows outside the unlimited answer")
            return Verdict(True)
        if got != expected.rows:
            return Verdict(False, f"{sum(got.values())} rows differ from the "
                                  f"expected {sum(expected.rows.values())}")
        return Verdict(True)


def _known_defect(key: tuple, expected: Expected, status: int,
                  content_type: str, body: bytes) -> Optional[str]:
    """The id of the known defect this mismatch is, or None."""
    if (key[0] == "sparql" and key[1] == FIXED_QUERIES["cross_join_top"]
            and expected.status == 504 and status == 200):
        reader = READERS.get(content_type.split(";")[0].strip())
        try:
            empty = reader is not None and not reader(body)
        except UNREADABLE:
            empty = False
        return KNOWN_DEFECTS[0]["id"] if empty else None
    return None
