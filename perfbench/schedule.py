"""Request schedules for the three workloads, built from a seed.

Every workload is an open loop: the schedule fixes when each request is
due, whatever the server does.  Sessions come from
``repro.eval.replay.generate_scripts`` and start at seeded times at a
fixed rate; the same seed always gives the same schedule, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple
from urllib.parse import urlencode

from repro.data.questions import user_study_questions
from repro.eval.replay import ReplayConfig, generate_scripts, scripts_to_json

MIME_JSON = "application/sparql-results+json"
MIME_CSV = "text/csv"
MIME_XML = "application/sparql-results+xml"

#: The fixed /sparql shapes of the ``sparql_api`` mix, by name.
FIXED_QUERIES: Dict[str, str] = {
    "star_limit": (
        "SELECT ?p ?n ?c WHERE { ?p a dbo:Person . ?p foaf:name ?n . "
        "?p dbo:birthPlace ?c } LIMIT 200"),
    "name_scan": "SELECT ?s ?n WHERE { ?s foaf:name ?n }",
    "type_counts": (
        "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s a ?t } "
        "GROUP BY ?t ORDER BY DESC(?n) ?t"),
    "chain": (
        "SELECT ?b ?k WHERE { ?b dbo:author ?a . ?a dbo:birthPlace ?c . "
        "?c dbo:country ?k }"),
    "optional_star": (
        "SELECT ?p ?n ?c WHERE { ?p a dbo:Person . ?p foaf:name ?n . "
        "OPTIONAL { ?p dbo:birthPlace ?c } }"),
    "cross_join_top": (
        "SELECT ?c ?b ?a WHERE { ?c foaf:surname ?b . ?a a dbo:Person } "
        "ORDER BY DESC(?b) DESC(?a) LIMIT 3"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: Session starts per second (``typing``, ``sessions``) or /sparql
    #: requests per second (``sparql_api``).
    rate: float
    keep_alive: bool
    #: ``serve --workers`` / ``--shards``.
    workers: int = 1
    shards: int = 1

    @property
    def server_args(self) -> Tuple[str, ...]:
        """Server command-line arguments after ``python -m repro.cli``."""
        args = ("--scale", SCALE, "--seed", str(DATASET_SEED), "serve",
                "--sapphire", "--port", "0")
        if self.workers > 1 or self.shards > 1:
            args += ("--workers", str(self.workers),
                     "--shards", str(self.shards))
        return args

    def server_spec(self) -> Dict[str, object]:
        """The ``repro.net.prefork`` spec these arguments amount to: the
        CLI's defaults (tree capacity 500, endpoint timeout 2 s)."""
        return {"scale": SCALE, "seed": DATASET_SEED, "timeout_s": 2.0,
                "execution": "auto", "tree_capacity": 500,
                "sapphire": True, "n_shards": self.shards}


SCALE = "small"
DATASET_SEED = 42

WORKLOADS: Dict[str, Workload] = {
    # QCM lookup and HTTP transport do all the work.  At this rate about
    # a quarter of keep-alive requests hit the delayed-ACK stall, so the
    # median sits below it and the tail on it, both steady across runs.
    "typing": Workload("typing", rate=1.4, keep_alive=True),
    # Engine, federation and serializers; the QCM idles and keep-alive is
    # bypassed.  The rate keeps the 250 ms shapes from delaying the median.
    "sparql_api": Workload("sparql_api", rate=6.0, keep_alive=False),
    # The QSM carries most server CPU, on the pre-fork pool over SQLite
    # shards with the tiered (on-disk) QCM tail.  At this rate a 20 s
    # window holds about 140 /suggest requests, enough for their p90.
    "sessions": Workload("sessions", rate=3.75, keep_alive=False,
                         workers=2, shards=2),
}

#: Sender threads (and so connections) the load generator uses.
SENDERS = 2
#: Seconds of schedule before the measured window (excluded).
WARMUP_S = 3.0
#: Session workloads start sessions this many seconds before the
#: schedule does and send only the events due from 0 on, so sessions are
#: already under way at every point of the schedule: the offered rate
#: and the route mix are the same in its first and last seconds.  It is
#: longer than any script the replay generator writes (at most ~19 s).
PREROLL_S = 20.0
#: Share of each fixed shape in the ``sparql_api`` mix; gold queries
#: make up the rest.  Shares are exact per run (the seed only shuffles
#: the order), so the mix, and with it every percentile, stays put.
FIXED_SHARES = {name: 0.025 for name in FIXED_QUERIES}
#: Non-JSON Accept headers of the ``sparql_api`` mix and their shares.
ACCEPTS = {MIME_CSV: 0.1, MIME_XML: 0.1}


@dataclass(frozen=True)
class Request:
    index: int
    due: float            # seconds after the schedule starts
    route: str            # "complete" | "suggest" | "sparql"
    body: bytes
    headers: Tuple[Tuple[str, str], ...]
    key: tuple            # what the oracle answers for this request
    measured: bool
    label: str            # query shape name, for reports


@dataclass
class Schedule:
    workload: Workload
    seed: int
    seconds: float
    requests: List[Request]
    scripts_json: str

    @property
    def scripts_digest(self) -> str:
        return hashlib.sha256(self.scripts_json.encode("utf-8")).hexdigest()

    def offered_by_fifth(self) -> List[int]:
        """Requests due in each fifth of the measured window."""
        counts = [0] * 5
        for request in self.requests:
            if request.measured:
                fifth = int(5 * (request.due - WARMUP_S) / self.seconds)
                counts[min(4, fifth)] += 1
        return counts


def _arrivals(rng: random.Random, rate: float, horizon: float,
              lead: float = 0.0) -> List[float]:
    """One arrival at a uniform random point of each ``1/rate`` slot.

    The offered rate is then the same in every run and every part of a
    run (a Poisson process over a 20 s window varies by ~15% between
    seeds), while the order and spacing still vary with the seed.
    Arrivals cover ``[-lead, horizon)``.
    """
    slot = 1.0 / rate
    return [(index + rng.random()) * slot - lead
            for index in range(int((lead + horizon) * rate))]


def _blocks(arrivals: List[float]) -> List[int]:
    """How many arrivals fall before the measured window (pre-roll and
    warm-up), and how many in it."""
    warm = sum(1 for at in arrivals if at < WARMUP_S)
    return [warm, len(arrivals) - warm]


def _stratified(rng: random.Random, n: int, shares: Dict[str, float],
                rest: str) -> List[str]:
    """``n`` labels in exact proportions, shuffled by ``rng``."""
    labels: List[str] = []
    for label, share in sorted(shares.items()):
        labels.extend([label] * round(n * share))
    labels.extend([rest] * (n - len(labels)))
    rng.shuffle(labels)
    return labels


def _quotas(n: int, weights: List[float]) -> List[int]:
    """Split ``n`` in proportion to ``weights`` (largest remainder)."""
    total = sum(weights)
    exact = [n * weight / total for weight in weights]
    counts = [int(share) for share in exact]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return counts


def session_scripts(seed: int, sizes: List[int]):
    """Scripts from ``generate_scripts`` in blocks of ``sizes``; in each
    block the questions follow the generator's zipf popularity exactly.

    The generator draws each session's question at random, so over the
    ~100 sessions of one run the share of an expensive question varies
    by tens of percent between seeds, and every latency with it.  This
    draws a pool five times larger and fills each block, in pool order,
    with the first unused sessions of each question up to its quota.
    The sessions that start before the measured window and those that
    start in it are separate blocks, so the second block's mix does not
    depend on what the first took.  Personas,
    typos and closing queries still vary with the seed.
    """
    config = ReplayConfig(seed=seed, n_sessions=5 * sum(sizes))
    pool = generate_scripts(config)
    questions = user_study_questions()
    weights = [1.0 / (rank + 1) ** config.zipf_s
               for rank in range(len(questions))]
    free = list(range(len(pool)))
    chosen: List[int] = []
    for size in sizes:
        quotas = dict(zip((question.qid for question in questions),
                          _quotas(size, weights)))
        block = []
        for index in free:
            if quotas.get(pool[index].qid, 0) > 0:
                quotas[pool[index].qid] -= 1
                block.append(index)
        taken = set(block)
        block += [index for index in free if index not in taken][
            : size - len(block)]
        taken = set(block)
        free = [index for index in free if index not in taken]
        chosen.extend(sorted(block))
    return [pool[index] for index in chosen], config


def _json_request(document: dict) -> Tuple[bytes, tuple]:
    body = json.dumps(document).encode("utf-8")
    return body, (("Content-Type", "application/json"),
                  ("Accept", "application/json"))


def _sparql_request(query: str, accept: str) -> Tuple[bytes, tuple]:
    body = urlencode({"query": query}).encode("utf-8")
    return body, (("Content-Type", "application/x-www-form-urlencoded"),
                  ("Accept", accept))


def _event_request(event: dict,
                   session: str) -> Tuple[str, bytes, tuple, tuple]:
    route = str(event["route"])
    if route == "complete":
        document = {"text": event["text"], "k": event["k"]}
        key = ("complete", event["text"], event["k"])
    elif route == "suggest":
        document = {"query": event["query"], "suggest": event["suggest"]}
        key = ("suggest", event["query"], event["suggest"])
    else:
        body, headers = _sparql_request(str(event["query"]), MIME_JSON)
        return route, body, headers, ("sparql", event["query"], MIME_JSON)
    document["session"] = session
    body, headers = _json_request(document)
    return route, body, headers, key


def build_schedule(workload_name: str, seed: int, seconds: float) -> Schedule:
    """The seeded request schedule of one run of ``workload_name``."""
    workload = WORKLOADS[workload_name]
    rng = random.Random(f"perfbench:{workload_name}:{seed}")
    horizon = WARMUP_S + seconds
    timed: List[Tuple[float, int, str, bytes, tuple, tuple, str]] = []

    if workload_name == "sparql_api":
        arrivals = _arrivals(rng, workload.rate, horizon)
        labels, accepts, gold_slots = [], [], []
        for size in _blocks(arrivals):
            block = _stratified(rng, size, FIXED_SHARES, "gold")
            labels += block
            accepts += _stratified(rng, size, ACCEPTS, MIME_JSON)
            gold_slots.append(block.count("gold"))
        # Each gold slot takes the gold re-issue of one session, so the
        # gold queries follow the sessions' exact question quotas.
        scripts, config = session_scripts(seed, gold_slots)
        gold = iter([str(event["query"]) for script in scripts
                     for event in script.events
                     if event["route"] == "suggest" and not event["suggest"]])
        for order, (due, label, accept) in enumerate(
                zip(arrivals, labels, accepts)):
            query = next(gold) if label == "gold" else FIXED_QUERIES[label]
            body, headers = _sparql_request(query, accept)
            timed.append((due, order, "sparql", body, headers,
                          ("sparql", query, accept), label))
    else:
        starts = _arrivals(rng, workload.rate, horizon, lead=PREROLL_S)
        scripts, config = session_scripts(seed, _blocks(starts))
        for start, script in zip(starts, scripts):
            for event in script.events:
                if workload_name == "typing" and event["route"] != "complete":
                    continue
                due = start + float(event["at"])
                if due < 0:
                    continue
                if due >= horizon:
                    break
                route, body, headers, key = _event_request(event,
                                                           script.session)
                label = route if route != "sparql" else "gold"
                timed.append((due, len(timed), route, body, headers, key,
                              label))

    timed.sort(key=lambda item: (item[0], item[1]))
    requests = [
        Request(index=index, due=due, route=route, body=body,
                headers=headers, key=key, measured=due >= WARMUP_S,
                label=label)
        for index, (due, _, route, body, headers, key, label)
        in enumerate(timed)
    ]
    return Schedule(workload, seed, seconds, requests,
                    scripts_to_json(scripts, config))
