"""Physical query plans: operator selection and ID-space execution.

This is stage four of the shared pipeline (parse → logical algebra →
optimize → physical execution; see :mod:`~repro.sparql.algebra` for
stages two and three).  :class:`QueryPlanner` compiles a normalized
logical tree into a tree of streaming physical operators.  Execution is
**batched and columnar**: operators exchange :class:`Batch` objects —
tuples of ``array('q')`` ID columns plus a length — via the
:meth:`PlanNode.batches` contract, and terms are decoded only for
FILTER evaluation and final materialization.  :meth:`PlanNode.rows`
remains as a thin row-at-a-time adapter over :meth:`~PlanNode.batches`
for consumers that want tuples (pagination, federation glue), and
:meth:`PlanNode.rows_tuple` preserves the original tuple-at-a-time
pipeline as the benchmark baseline (``batch_size=0``).

Plan nodes
----------
* :class:`ScanNode` — one triple pattern streamed off a backend index,
  with same-pattern repeated-variable checks and pushed-down FILTERs.
* :class:`HashJoinNode` — builds a hash table over the (smaller) right
  input keyed by the shared variables, then streams the left input
  through it.  Each pattern is scanned exactly once.  With no keys it
  degrades to the cross product (used for disjoint VALUES tables).
* :class:`BindJoinNode` — the index-nested-loop strategy: probe the
  store once per left row with the shared variables bound.  Chosen when
  the left input is estimated to be much smaller than a full scan of
  the right pattern, which keeps selective queries (and their cost-meter
  profile) identical to the seed path.
* :class:`UnionNode` — concatenates branch streams, padding variables a
  branch does not bind with ``None`` (the unbound slot marker).
* :class:`MinusNode` — anti-join on IDs implementing SPARQL MINUS
  compatibility (drop a left row when a right row agrees on at least
  one shared bound variable and disagrees on none).
* :class:`ValuesScanNode` — an inline VALUES table, interned into the
  store dictionary at plan time so downstream joins stay in ID space.
* :class:`RemoteScanNode` / :class:`RemoteBindJoinNode` — the federated
  operators: fetch a pattern (or exclusive group) from remote
  endpoints, or probe them once per *batch* of left rows by shipping
  the accumulated bindings as a single ``VALUES`` clause instead of one
  HTTP round-trip per binding.  Remote terms are interned into the
  mediator's dictionary, so every other operator composes unchanged.

Cost model
----------
Scan cardinalities come from the backend's free estimates
(:meth:`~repro.store.TripleStore.cardinality_estimate`); join output
cardinalities divide by the distinct-subject/object counts collected in
:meth:`~repro.store.TripleStore.predicate_stats_ids`.  Planning is
greedy left-deep: start from the most selective input, repeatedly
join the connected input with the smallest estimated output.  Shapes
the ID-space operators cannot express — fully concrete patterns
(existence checks), a disconnected pattern join graph, or a join keyed
on a variable some UNION branch or UNDEF cell may leave unbound —
return ``None`` and the evaluator falls back to the term-space
backtracking path, which implements full compatibility semantics.

``explain_plan`` renders the tree for the EXPLAIN surface wired through
:class:`~repro.sparql.evaluator.QueryEvaluator`, the endpoint, the
server, the federation, and the CLI (see ``docs/query-planning.md``).
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..rdf.terms import Variable
from ..rdf.triples import TriplePattern
from ..store.dictionary import NO_ID
from ..store.triplestore import CostMeter, TripleStore
from .algebra import (
    AlgebraNode,
    BGP,
    Empty,
    Filter as LogicalFilter,
    Join as LogicalJoin,
    Minus as LogicalMinus,
    Union as LogicalUnion,
    ValuesTable,
    conjuncts,
    normalize,
    translate_group,
)
from .ast_nodes import Expression, GraphPattern, ValuesClause
from .errors import ExpressionError
from .functions import effective_boolean_value, evaluate_expression

__all__ = [
    "Batch",
    "PlanNode",
    "ScanNode",
    "ShardScanNode",
    "HashJoinNode",
    "BindJoinNode",
    "UnionNode",
    "MinusNode",
    "ValuesScanNode",
    "CompatJoinNode",
    "LeftJoinNode",
    "RemoteScanNode",
    "RemoteBindJoinNode",
    "QueryPlanner",
    "explain_plan",
    "refresh_plan_estimates",
]

#: A bind join is preferred while the accumulated left side is this many
#: times smaller than a full scan of the candidate pattern.  Probing is
#: per-row work (generator set-up, index descent), so the break-even
#: point sits well above 1:1.
BIND_JOIN_FACTOR = 8

#: One intermediate row: dictionary IDs aligned with ``node.variables``.
#: A ``None`` entry marks an unbound slot (UNION branch that skips the
#: variable, UNDEF cell in a VALUES table).
IdRow = Tuple[Optional[int], ...]

#: The unbound-slot sentinel inside batch columns.  ``array('q')`` can
#: only hold integers, and no valid dictionary ID is negative, so ``-1``
#: plays the role ``None`` plays in :data:`IdRow` tuples.
UNBOUND = -1

#: Rows per :class:`Batch` on the columnar path.  Matches the storage
#: seam's ``COLUMN_BATCH_SIZE`` so one ``match_columns`` batch becomes
#: one operator batch without re-chunking.
DEFAULT_BATCH_SIZE = 1024


class Batch:
    """A batch of intermediate rows in columnar layout.

    ``columns`` holds one ``array('q')`` of dictionary IDs per variable,
    in ``node.variables`` slot order; ``length`` is the row count (kept
    explicitly so zero-variable batches — existence rows — still have a
    cardinality).  ``has_unbound`` is True when some cell may hold the
    :data:`UNBOUND` sentinel; it lets :meth:`iter_rows` skip the
    ``-1 → None`` translation on the (overwhelmingly common) all-bound
    batches.  A False flag is a guarantee; True is merely conservative.
    """

    __slots__ = ("columns", "length", "has_unbound")

    def __init__(
        self,
        columns: Tuple[array, ...],
        length: int,
        has_unbound: bool = False,
    ) -> None:
        self.columns = columns
        self.length = length
        self.has_unbound = has_unbound

    def __len__(self) -> int:
        return self.length

    def iter_rows(self) -> Iterator[IdRow]:
        """Rows as :data:`IdRow` tuples (``None`` for unbound slots)."""
        if not self.columns:
            empty: IdRow = ()
            for _ in range(self.length):
                yield empty
            return
        if not self.has_unbound:
            yield from zip(*self.columns)
            return
        for raw in zip(*self.columns):
            yield tuple(None if cell == UNBOUND else cell for cell in raw)

    def iter_raw(self) -> Iterator[Tuple[int, ...]]:
        """Rows as raw int tuples (:data:`UNBOUND` kept as ``-1``)."""
        if not self.columns:
            empty: Tuple[int, ...] = ()
            for _ in range(self.length):
                yield empty
            return
        yield from zip(*self.columns)

#: Default number of left rows a RemoteBindJoinNode accumulates before
#: shipping them to the endpoints as one VALUES-constrained request.
REMOTE_BATCH_SIZE = 30

#: Compiled filter: the expression plus the (name, slot) pairs to decode.
_CompiledFilter = Tuple[Expression, Tuple[Tuple[str, int], ...]]


class PlanNode:
    """Base class: a streaming operator producing ID-tuple rows.

    ``variables`` fixes the slot order of every row the node yields;
    ``est_rows`` is the cost model's output-cardinality estimate;
    ``filters`` are evaluated (on decoded terms) against each produced
    row, dropping rows that fail or error — SPARQL FILTER semantics.
    """

    variables: Tuple[str, ...]
    est_rows: int
    filters: List[Expression]
    #: Variables that may be ``None`` in produced rows (propagated from
    #: UNION / UNDEF inputs).  Joins keyed on these need compatibility
    #: semantics and are left to the backtracking fallback.
    maybe_unbound: frozenset

    def __init__(self, variables: Tuple[str, ...], est_rows: int) -> None:
        self.variables = variables
        self.est_rows = est_rows
        self.filters = []
        self.maybe_unbound = frozenset()
        self.slot_of: Dict[str, int] = {name: i for i, name in enumerate(variables)}

    # -- execution -----------------------------------------------------

    def batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int = DEFAULT_BATCH_SIZE,
        tracer=None,
    ) -> Iterator[Batch]:
        """The primary execution contract: a stream of :class:`Batch`.

        Operators with a native ``_produce_batches`` stay columnar end
        to end; the base class adapts row-wise ``_produce`` operators by
        chunking, so every node speaks batches regardless of vintage.

        ``tracer`` (a :class:`~repro.sparql.trace.Tracer`) threads the
        EXPLAIN ANALYZE instrumentation through the tree.  It follows
        the cost-meter gating idiom: with the default ``None`` this
        method does nothing but pass the argument along, so the traced
        machinery costs the hot path exactly one ``is None`` test per
        operator per query.
        """
        produced = self._produce_batches(store, meter, batch_size, tracer)
        if self.filters:
            produced = self._filtered_batches(produced, store)
        if tracer is not None:
            return tracer.wrap_batches(self, produced)
        return produced

    def rows(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        tracer=None,
    ) -> Iterator[IdRow]:
        """Compatibility adapter: flatten :meth:`batches` into tuples."""
        for batch in self.batches(store, meter, tracer=tracer):
            yield from batch.iter_rows()

    def rows_tuple(self, store: TripleStore, meter: Optional[CostMeter]) -> Iterator[IdRow]:
        """The legacy tuple-at-a-time pipeline, preserved verbatim.

        Children are pulled through ``rows_tuple`` as well, so the whole
        subtree stays row-wise — this is the baseline the batch-vs-tuple
        benchmark gate measures against (``QueryEvaluator(batch_size=0)``).
        """
        produced = self._produce(store, meter)
        if not self.filters:
            return produced
        return self._filtered(produced, store)

    def _produce(self, store: TripleStore, meter: Optional[CostMeter]) -> Iterator[IdRow]:
        raise NotImplementedError

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        """Default adapter: chunk the row-wise ``_produce`` into batches.

        Row-wise operators (federated fetches, compatibility joins) ride
        the columnar pipeline through this without any native code.
        """
        width = len(self.variables)
        if width == 0:
            count = 0
            for _ in self._batch_rows(store, meter, tracer):
                count += 1
                if count >= batch_size:
                    yield Batch((), count)
                    count = 0
            if count:
                yield Batch((), count)
            return
        buffers: List[List[int]] = [[] for _ in range(width)]
        has_unbound = False
        length = 0
        for row in self._batch_rows(store, meter, tracer):
            for slot, cell in enumerate(row):
                if cell is None:
                    cell = UNBOUND
                    has_unbound = True
                buffers[slot].append(cell)
            length += 1
            if length >= batch_size:
                yield Batch(
                    tuple(array("q", buf) for buf in buffers), length, has_unbound
                )
                buffers = [[] for _ in range(width)]
                has_unbound = False
                length = 0
        if length:
            yield Batch(
                tuple(array("q", buf) for buf in buffers), length, has_unbound
            )

    def _batch_rows(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        tracer,
    ) -> Iterator[IdRow]:
        """Row source for the chunking adapter.

        The remote operators override this to thread the tracer into
        their per-source fetch spans; every other row-wise operator
        ignores it (the node-level span from :meth:`batches` is enough).
        """
        del tracer
        return self._produce(store, meter)

    def _filtered_batches(
        self, batches: Iterator[Batch], store: TripleStore
    ) -> Iterator[Batch]:
        """Apply FILTERs batch-wise with per-filter verdict caching.

        Filter expressions are deterministic functions of their decoded
        variables, so the effective boolean value is cached keyed by the
        tuple of relevant slot IDs — repeated values (a join fan-out, a
        low-cardinality column) skip decode and evaluation entirely.
        """
        decode = store.decode_id
        compiled: List[_CompiledFilter] = [
            (
                expr,
                tuple(
                    (name, self.slot_of[name])
                    for name in expr.variables()
                    if name in self.slot_of
                ),
            )
            for expr in self.filters
        ]
        caches: List[Dict[Tuple, bool]] = [{} for _ in compiled]
        for batch in batches:
            keep: List[int] = []
            for index, row in enumerate(batch.iter_rows()):
                passed = True
                for (expr, slots), cache in zip(compiled, caches):
                    key = tuple(row[slot] for _, slot in slots)
                    verdict = cache.get(key)
                    if verdict is None:
                        binding = {
                            name: decode(row[slot])
                            for name, slot in slots
                            if row[slot] is not None
                        }
                        try:
                            verdict = effective_boolean_value(
                                evaluate_expression(expr, binding)
                            )
                        except ExpressionError:
                            verdict = False  # erroring filters drop the row
                        cache[key] = verdict
                    if not verdict:
                        passed = False
                        break
                if passed:
                    keep.append(index)
            if not keep:
                continue
            if len(keep) == batch.length:
                yield batch
            else:
                yield Batch(
                    tuple(
                        array("q", (column[i] for i in keep))
                        for column in batch.columns
                    ),
                    len(keep),
                    batch.has_unbound,
                )

    def _filtered(self, rows: Iterator[IdRow], store: TripleStore) -> Iterator[IdRow]:
        decode = store.decode_id
        compiled: List[_CompiledFilter] = [
            (
                expr,
                tuple(
                    (name, self.slot_of[name])
                    for name in expr.variables()
                    if name in self.slot_of
                ),
            )
            for expr in self.filters
        ]
        for row in rows:
            for expr, slots in compiled:
                binding = {
                    name: decode(row[slot])
                    for name, slot in slots
                    if row[slot] is not None
                }
                try:
                    if not effective_boolean_value(evaluate_expression(expr, binding)):
                        break
                except ExpressionError:
                    break  # erroring filters drop the row, per the spec
            else:
                yield row

    # -- display -------------------------------------------------------

    def label(self) -> str:
        raise NotImplementedError

    def children(self) -> Sequence["PlanNode"]:
        return ()


def _pattern_text(pattern: TriplePattern) -> str:
    return " ".join(term.n3() for term in pattern.as_tuple())


class ScanNode(PlanNode):
    """Stream one triple pattern off the backend index."""

    def __init__(self, store: TripleStore, pattern: TriplePattern, est_rows: int) -> None:
        self.pattern = pattern
        encoded = store.encode_pattern(pattern)
        probe: List[Optional[int]] = [None, None, None]
        out: List[Tuple[int, str]] = []
        checks: List[Tuple[int, int]] = []
        first_at: Dict[str, int] = {}
        for position, entry in enumerate(encoded):
            if isinstance(entry, str):
                if entry in first_at:
                    checks.append((first_at[entry], position))
                else:
                    first_at[entry] = position
                    out.append((position, entry))
            else:
                probe[position] = entry
        self.probe: Tuple[Optional[int], Optional[int], Optional[int]] = tuple(probe)  # type: ignore[assignment]
        self.out_positions = tuple(position for position, _ in out)
        self.checks = tuple(checks)
        super().__init__(tuple(name for _, name in out), est_rows)

    def _produce(self, store: TripleStore, meter: Optional[CostMeter]) -> Iterator[IdRow]:
        s, p, o = self.probe
        positions = self.out_positions
        checks = self.checks
        rows = store.match_ids(s, p, o, meter)
        # Specialized projections: this is the innermost loop of every
        # plan, and a generator-expression tuple per row doubles its
        # cost.  The repeated-variable checks are folded into the same
        # loops — an interposed filtering generator would re-route the
        # 1/2-column shapes through an extra frame per row.
        if len(positions) == 1:
            a = positions[0]
            if checks:
                for row in rows:
                    if all(row[x] == row[y] for x, y in checks):
                        yield (row[a],)
            else:
                for row in rows:
                    yield (row[a],)
        elif len(positions) == 2:
            a, b = positions
            if checks:
                for row in rows:
                    if all(row[x] == row[y] for x, y in checks):
                        yield (row[a], row[b])
            else:
                for row in rows:
                    yield (row[a], row[b])
        elif checks:
            for row in rows:
                if all(row[x] == row[y] for x, y in checks):
                    yield row
        else:
            yield from rows

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        s, p, o = self.probe
        if not self.out_positions:
            # Fully concrete pattern (existence check): the planner never
            # builds this shape, but stay correct if constructed directly.
            yield from PlanNode._produce_batches(
                self, store, meter, batch_size, tracer
            )
            return
        fetch, pairs = self._fetch_positions()
        yield from self._project_batches(
            store.match_columns(s, p, o, fetch, meter, batch_size), pairs
        )

    def _fetch_positions(self) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
        """The column positions to fetch and the equality pairs to check.

        Without repeated variables this is just ``out_positions``; with
        them, the duplicate positions are fetched too (to filter
        column-wise) and projected away by :meth:`_project_batches`.
        """
        positions = self.out_positions
        if not self.checks:
            return positions, ()
        fetch = positions + tuple(dup for _, dup in self.checks)
        pairs = tuple(
            (fetch.index(first), fetch.index(dup)) for first, dup in self.checks
        )
        return fetch, pairs

    def _project_batches(
        self, columns_iter, pairs: Tuple[Tuple[int, int], ...]
    ) -> Iterator[Batch]:
        """Raw column batches → :class:`Batch`, applying repeated-variable
        equality ``pairs`` and projecting the duplicate columns away."""
        if not pairs:
            for columns in columns_iter:
                yield Batch(columns, len(columns[0]))
            return
        width = len(self.out_positions)
        for columns in columns_iter:
            if len(pairs) == 1:
                left, right = pairs[0]
                col_a, col_b = columns[left], columns[right]
                keep = [i for i in range(len(col_a)) if col_a[i] == col_b[i]]
            else:
                keep = [
                    i
                    for i in range(len(columns[0]))
                    if all(columns[a][i] == columns[b][i] for a, b in pairs)
                ]
            if not keep:
                continue
            if len(keep) == len(columns[0]):
                yield Batch(columns[:width], len(keep))
            else:
                yield Batch(
                    tuple(
                        array("q", (column[i] for i in keep))
                        for column in columns[:width]
                    ),
                    len(keep),
                )

    def label(self) -> str:
        return f"Scan({_pattern_text(self.pattern)})"


class ShardScanNode(ScanNode):
    """Scatter-gather scan over a :class:`ShardedBackend`'s shards.

    Functionally identical to :class:`ScanNode` on a sharded store — the
    backend's own ``match_columns`` already concatenates shard streams —
    but plan-visible: the label renders the fan-out (``xK/N`` shards
    touched) and the batch path streams shard by shard, recording one
    ``shard-scan`` child span per shard with its actual row count, so
    EXPLAIN ANALYZE shows how scatter-gather spread the work.

    A concrete subject routes to exactly one shard (``fan_out == 1``);
    any wildcard-subject shape touches all of them.  The row-wise
    pipeline (``rows_tuple``) goes through the inherited ``_produce``,
    whose ``store.match_ids`` call hits the same shards in the same
    order — batch/tuple parity is preserved.
    """

    def __init__(
        self, store: TripleStore, pattern: TriplePattern, est_rows: int
    ) -> None:
        super().__init__(store, pattern, est_rows)
        backend = store.backend
        self.n_shards = getattr(backend, "n_shards", 1)
        self.fan_out = 1 if self.probe[0] is not None else self.n_shards

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        if not self.out_positions:
            yield from PlanNode._produce_batches(
                self, store, meter, batch_size, tracer
            )
            return
        s, p, o = self.probe
        if NO_ID in (s, p, o):
            return
        backend = store.backend
        shards = getattr(backend, "shards", None)
        if shards is None:
            # Planned against a sharded store, executed against a plain
            # one (plan objects can outlive a store swap): degrade to the
            # ordinary scan rather than failing.
            yield from ScanNode._produce_batches(
                self, store, meter, batch_size, tracer
            )
            return
        if s is not None:
            index = backend.shard_of(s)
            targets = [(index, shards[index])]
        else:
            targets = list(enumerate(shards))
        fetch, pairs = self._fetch_positions()
        charge = meter.charge if meter is not None else None
        for index, shard in targets:
            columns_iter = shard.match_columns(s, p, o, fetch, batch_size)
            if charge is not None:
                columns_iter = _charged_columns(columns_iter, charge)
            rows = 0
            for batch in self._project_batches(columns_iter, pairs):
                rows += batch.length
                yield batch
            if tracer is not None:
                tracer.event("shard-scan", shard=index, rows=rows)

    def label(self) -> str:
        return (
            f"ShardScan({_pattern_text(self.pattern)} "
            f"x{self.fan_out}/{self.n_shards})"
        )


def _charged_columns(columns_iter, charge) -> Iterator:
    """Charge the meter per fetched candidate, exactly like
    ``TripleStore.match_columns`` does — cost parity with the unsharded
    scan is what keeps budget-abort behaviour backend-independent."""
    for columns in columns_iter:
        charge(len(columns[0]))
        yield columns


class HashJoinNode(PlanNode):
    """Hash the right input on the shared variables, stream the left.

    Both inputs are scanned exactly once; each emitted row charges the
    cost meter one unit so budgeted endpoints retain their abort
    behaviour on explosive joins.
    """

    def __init__(self, left: PlanNode, right: PlanNode, keys: Tuple[str, ...], est_rows: int) -> None:
        self.left = left
        self.right = right
        self.keys = keys
        self.left_key_slots = tuple(left.slot_of[name] for name in keys)
        self.right_key_slots = tuple(right.slot_of[name] for name in keys)
        residual = [name for name in right.variables if name not in keys]
        self.right_residual_slots = tuple(right.slot_of[name] for name in residual)
        super().__init__(left.variables + tuple(residual), est_rows)
        self.maybe_unbound = left.maybe_unbound | right.maybe_unbound

    def _produce(self, store: TripleStore, meter: Optional[CostMeter]) -> Iterator[IdRow]:
        # Single shared variable is the overwhelmingly common join shape
        # (subject stars, object-subject chains); key on the bare int
        # instead of a 1-tuple to keep build and probe at one dict op.
        single = len(self.left_key_slots) == 1
        rkeys = self.right_key_slots
        rres = self.right_residual_slots
        lkey = self.left_key_slots[0] if single else None
        lkeys = self.left_key_slots
        charge = meter.charge if meter is not None else None
        if not rres:
            # Semi-join: the build side adds no variables, so a bucket is
            # just a multiplicity and no output tuple is re-allocated.
            counts: Dict[object, int] = {}
            for row in self.right.rows_tuple(store, meter):
                key = row[rkeys[0]] if single else tuple(row[i] for i in rkeys)
                counts[key] = counts.get(key, 0) + 1
            cget = counts.get
            for lrow in self.left.rows_tuple(store, meter):
                n = cget(lrow[lkey] if single else tuple(lrow[i] for i in lkeys))
                if n is None:
                    continue
                if charge is not None:
                    charge(n)
                if n == 1:
                    yield lrow
                else:
                    for _ in range(n):
                        yield lrow
            return
        table: Dict[object, List[IdRow]] = {}
        rres0 = rres[0] if len(rres) == 1 else None
        for row in self.right.rows_tuple(store, meter):
            key = row[rkeys[0]] if single else tuple(row[i] for i in rkeys)
            bucket = table.get(key)
            if bucket is None:
                table[key] = bucket = []
            bucket.append(
                (row[rres0],) if rres0 is not None else tuple(row[i] for i in rres)
            )
        get = table.get
        for lrow in self.left.rows_tuple(store, meter):
            key = lrow[lkey] if single else tuple(lrow[i] for i in lkeys)
            bucket = get(key)
            if bucket is None:
                continue
            if charge is not None:
                charge(len(bucket))
            for residual in bucket:
                yield lrow + residual

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        single = len(self.left_key_slots) == 1
        rkeys = self.right_key_slots
        rres = self.right_residual_slots
        lkeys = self.left_key_slots
        lkey = lkeys[0] if single else None
        charge = meter.charge if meter is not None else None
        if not rres:
            # Semi-join: build a key -> multiplicity table column-wise,
            # then emit probe batches through a selection vector.  With
            # unique single keys the table degenerates to a set and the
            # all-match probe runs entirely in C.
            if single:
                rcols = []
                total = 0
                for rbatch in self.right.batches(store, meter, batch_size, tracer):
                    rcols.append(rbatch.columns[rkeys[0]])
                    total += rbatch.length
                unique = set(chain.from_iterable(rcols))
                if len(unique) == total:
                    contains = unique.__contains__
                    for lbatch in self.left.batches(store, meter, batch_size, tracer):
                        flags = list(map(contains, lbatch.columns[lkey]))
                        if all(flags):
                            if charge is not None:
                                charge(lbatch.length)
                            yield lbatch
                            continue
                        selection = [i for i, hit in enumerate(flags) if hit]
                        if not selection:
                            continue
                        if charge is not None:
                            charge(len(selection))
                        yield Batch(
                            tuple(
                                array("q", map(column.__getitem__, selection))
                                for column in lbatch.columns
                            ),
                            len(selection),
                            lbatch.has_unbound,
                        )
                    return
                counts: Dict[object, int] = {}
                for col in rcols:
                    for key in col:
                        counts[key] = counts.get(key, 0) + 1
            else:
                counts = {}
                for rbatch in self.right.batches(store, meter, batch_size, tracer):
                    for row in rbatch.iter_raw():
                        key = tuple(row[i] for i in rkeys)
                        counts[key] = counts.get(key, 0) + 1
            cget = counts.get
            for lbatch in self.left.batches(store, meter, batch_size, tracer):
                if single:
                    # dict.get mapped over the key column: the whole
                    # lookup pass runs in C.
                    matches = map(cget, lbatch.columns[lkey])
                else:
                    matches = (
                        cget(tuple(row[i] for i in lkeys))
                        for row in lbatch.iter_raw()
                    )
                selection: List[int] = []
                append = selection.append
                extend = selection.extend
                identity = True
                for index, count in enumerate(matches):
                    if count is None:
                        identity = False
                    elif count == 1:
                        append(index)
                    else:
                        identity = False
                        extend([index] * count)
                if not selection:
                    continue
                if charge is not None:
                    charge(len(selection))
                if identity:
                    yield lbatch
                else:
                    yield Batch(
                        tuple(
                            array("q", map(column.__getitem__, selection))
                            for column in lbatch.columns
                        ),
                        len(selection),
                        lbatch.has_unbound,
                    )
            return
        rres0 = rres[0] if len(rres) == 1 else None
        right_unbound = False
        if (
            single
            and rres0 is not None
            and self.left.est_rows * 4 <= self.right.est_rows
        ):
            # The accumulated left side is much smaller than the probe
            # side (4x keeps star hops — near-equal sides with reference
            # pass-through on the left — out of this tier): build from
            # it and stream the probe side.  Chain hops compile this way
            # (small unique dimension joined against a large fact scan),
            # and when the left key is functional a full-match probe
            # batch passes through by reference — the key and residual
            # probe columns are reused as-is and the left residual is a
            # single C-built lookup column, so no gathers happen at all.
            width = len(self.left.variables)
            left_cols = [array("q") for _ in range(width)]
            left_unbound = False
            for lbatch in self.left.batches(store, meter, batch_size, tracer):
                left_unbound = left_unbound or lbatch.has_unbound
                for slot, column in enumerate(lbatch.columns):
                    left_cols[slot].extend(column)
            left_key_col = left_cols[lkey]
            nleft = len(left_key_col)
            index_of: Dict[int, int] = dict(zip(left_key_col, range(nleft)))
            if len(index_of) == nleft:
                lres_slots = [slot for slot in range(width) if slot != lkey]
                # With one left residual the index degenerates to a
                # key -> value dict and the probe pass fills the output
                # column directly; wider left sides gather by row index.
                scalar_res = (
                    dict(zip(left_key_col, left_cols[lres_slots[0]]))
                    if len(lres_slots) == 1
                    else None
                )
                iget = index_of.get
                rkey_slot = rkeys[0]
                for rbatch in self.right.batches(store, meter, batch_size, tracer):
                    out_unbound = left_unbound or rbatch.has_unbound
                    rkey_col = rbatch.columns[rkey_slot]
                    if scalar_res is not None:
                        vals = list(map(scalar_res.get, rkey_col))
                        if None not in vals:
                            out_len = rbatch.length
                            rcols = rbatch.columns
                            res_out = [array("q", vals)]
                        else:
                            keep = [
                                index
                                for index, value in enumerate(vals)
                                if value is not None
                            ]
                            if not keep:
                                continue
                            out_len = len(keep)
                            rcols = tuple(
                                array("q", map(column.__getitem__, keep))
                                for column in rbatch.columns
                            )
                            res_out = [
                                array(
                                    "q",
                                    [v for v in vals if v is not None],
                                )
                            ]
                    else:
                        sel = list(map(iget, rkey_col))
                        if None in sel:
                            keep = [
                                index
                                for index, row_idx in enumerate(sel)
                                if row_idx is not None
                            ]
                            if not keep:
                                continue
                            sel = [
                                row_idx
                                for row_idx in sel
                                if row_idx is not None
                            ]
                            rcols = tuple(
                                array("q", map(column.__getitem__, keep))
                                for column in rbatch.columns
                            )
                        else:
                            rcols = rbatch.columns
                        out_len = len(sel)
                        res_out = [
                            array(
                                "q",
                                map(left_cols[slot].__getitem__, sel),
                            )
                            for slot in lres_slots
                        ]
                    # Output slot order: left variables (key comes from
                    # the probe column — equal by the join condition),
                    # then the right residual.
                    res_iter = iter(res_out)
                    out = [
                        rcols[rkey_slot] if slot == lkey else next(res_iter)
                        for slot in range(width)
                    ]
                    out.append(rcols[rres0])
                    if charge is not None:
                        charge(out_len)
                    yield Batch(tuple(out), out_len, out_unbound)
                return
            # Left keys repeat: collect the probe side; a functional
            # probe side joins through a scalar dict in one pass over
            # the materialized left, anything else expands through
            # int-list buckets.
            rkey_cols = []
            rres_cols = []
            total = 0
            for rbatch in self.right.batches(store, meter, batch_size, tracer):
                right_unbound = right_unbound or rbatch.has_unbound
                rkey_cols.append(rbatch.columns[rkeys[0]])
                rres_cols.append(rbatch.columns[rres0])
                total += rbatch.length
            scalar = dict(
                zip(chain.from_iterable(rkey_cols), chain.from_iterable(rres_cols))
            )
            if len(scalar) == total:
                matches = list(map(scalar.get, left_key_col))
                selection = [
                    index
                    for index, value in enumerate(matches)
                    if value is not None
                ]
                if not selection:
                    return
                res_vals = [value for value in matches if value is not None]
                if charge is not None:
                    charge(len(selection))
                yield Batch(
                    tuple(
                        array("q", map(column.__getitem__, selection))
                        for column in left_cols
                    )
                    + (array("q", res_vals),),
                    len(selection),
                    left_unbound or right_unbound,
                )
                return
            flat: Dict[int, List[int]] = {}
            setdefault = flat.setdefault
            for key_col, res_col in zip(rkey_cols, rres_cols):
                for key, value in zip(key_col, res_col):
                    setdefault(key, []).append(value)
            fget = flat.get
            selection = []
            append = selection.append
            extend = selection.extend
            res_buf: List[int] = []
            res_append = res_buf.append
            res_extend = res_buf.extend
            for index, bucket in enumerate(map(fget, left_key_col)):
                if bucket is None:
                    continue
                if len(bucket) == 1:
                    append(index)
                    res_append(bucket[0])
                else:
                    extend([index] * len(bucket))
                    res_extend(bucket)
            if not selection:
                return
            if charge is not None:
                charge(len(selection))
            yield Batch(
                tuple(
                    array("q", map(column.__getitem__, selection))
                    for column in left_cols
                )
                + (array("q", res_buf),),
                len(selection),
                left_unbound or right_unbound,
            )
            return
        if single and rres0 is not None:
            # One key column, one residual column: the dominant
            # star/chain shape.  Collect the build side's columns, then
            # try the unique-key plan: ``dict(zip(keys, values))`` is a
            # single C pass, and when it loses no pairs the key is
            # functional, so every probe maps to at most one residual.
            rkey_cols: List[array] = []
            rres_cols: List[array] = []
            total = 0
            for rbatch in self.right.batches(store, meter, batch_size, tracer):
                right_unbound = right_unbound or rbatch.has_unbound
                rkey_cols.append(rbatch.columns[rkeys[0]])
                rres_cols.append(rbatch.columns[rres0])
                total += rbatch.length
            scalar: Optional[Dict[int, int]] = dict(
                zip(chain.from_iterable(rkey_cols), chain.from_iterable(rres_cols))
            )
            if len(scalar) == total:
                fget = scalar.get
                for lbatch in self.left.batches(store, meter, batch_size, tracer):
                    matches = list(map(fget, lbatch.columns[lkey]))
                    if None not in matches:
                        # Every left row joins exactly once: the output
                        # is the left batch plus one C-built residual
                        # column — no per-row Python at all.
                        if charge is not None:
                            charge(lbatch.length)
                        yield Batch(
                            lbatch.columns + (array("q", matches),),
                            lbatch.length,
                            lbatch.has_unbound or right_unbound,
                        )
                        continue
                    selection = [
                        index
                        for index, value in enumerate(matches)
                        if value is not None
                    ]
                    if not selection:
                        continue
                    res_buf = [value for value in matches if value is not None]
                    if charge is not None:
                        charge(len(selection))
                    yield Batch(
                        tuple(
                            array("q", map(column.__getitem__, selection))
                            for column in lbatch.columns
                        )
                        + (array("q", res_buf),),
                        len(selection),
                        lbatch.has_unbound or right_unbound,
                    )
                return
            # Duplicate right keys.  Materialize the left side and try
            # the inverted join: index the left rows by key (unique in
            # every 1:N chain hop) and drive the probe from the right
            # columns, so lookups and gathers stay C-level passes.
            width = len(self.left.variables)
            left_cols = [array("q") for _ in range(width)]
            left_unbound = False
            for lbatch in self.left.batches(store, meter, batch_size, tracer):
                left_unbound = left_unbound or lbatch.has_unbound
                for slot, column in enumerate(lbatch.columns):
                    left_cols[slot].extend(column)
            left_key_col = left_cols[lkey]
            index_of: Dict[int, int] = dict(
                zip(left_key_col, range(len(left_key_col)))
            )
            if len(index_of) == len(left_key_col):
                iget = index_of.get
                out_unbound = left_unbound or right_unbound
                for rkey_col, rres_col in zip(rkey_cols, rres_cols):
                    sel = list(map(iget, rkey_col))
                    if None in sel:
                        keep_res = array(
                            "q",
                            [
                                value
                                for row_idx, value in zip(sel, rres_col)
                                if row_idx is not None
                            ],
                        )
                        sel = [row_idx for row_idx in sel if row_idx is not None]
                        if not sel:
                            continue
                        res_col = keep_res
                    else:
                        res_col = rres_col
                    if charge is not None:
                        charge(len(sel))
                    yield Batch(
                        tuple(
                            array("q", map(column.__getitem__, sel))
                            for column in left_cols
                        )
                        + (res_col,),
                        len(sel),
                        out_unbound,
                    )
                return
            # Duplicate keys on both sides: int-list buckets, probed
            # over the already-materialized left columns in one pass.
            flat: Dict[int, List[int]] = {}
            setdefault = flat.setdefault
            for key_col, res_col in zip(rkey_cols, rres_cols):
                for key, value in zip(key_col, res_col):
                    setdefault(key, []).append(value)
            fget = flat.get
            selection = []
            append = selection.append
            extend = selection.extend
            res_buf = []
            res_append = res_buf.append
            res_extend = res_buf.extend
            for index, bucket in enumerate(map(fget, left_key_col)):
                if bucket is None:
                    continue
                if len(bucket) == 1:
                    append(index)
                    res_append(bucket[0])
                else:
                    extend([index] * len(bucket))
                    res_extend(bucket)
            if not selection:
                return
            if charge is not None:
                charge(len(selection))
            yield Batch(
                tuple(
                    array("q", map(column.__getitem__, selection))
                    for column in left_cols
                )
                + (array("q", res_buf),),
                len(selection),
                left_unbound or right_unbound,
            )
            return
        # General shape: buckets of residual tuples.
        table: Dict[object, List[Tuple[int, ...]]] = {}
        for rbatch in self.right.batches(store, meter, batch_size, tracer):
            right_unbound = right_unbound or rbatch.has_unbound
            for row in rbatch.iter_raw():
                key = row[rkeys[0]] if single else tuple(row[i] for i in rkeys)
                bucket = table.get(key)
                if bucket is None:
                    table[key] = bucket = []
                bucket.append(
                    (row[rres0],)
                    if rres0 is not None
                    else tuple(row[i] for i in rres)
                )
        get = table.get
        for lbatch in self.left.batches(store, meter, batch_size, tracer):
            if single:
                buckets = map(get, lbatch.columns[lkey])
            else:
                buckets = (
                    get(tuple(row[i] for i in lkeys))
                    for row in lbatch.iter_raw()
                )
            selection = []
            residual_columns: List[List[int]] = [[] for _ in rres]
            for index, bucket in enumerate(buckets):
                if bucket is None:
                    continue
                if len(bucket) == 1:
                    selection.append(index)
                    for slot, cell in enumerate(bucket[0]):
                        residual_columns[slot].append(cell)
                else:
                    selection.extend([index] * len(bucket))
                    for residual in bucket:
                        for slot, cell in enumerate(residual):
                            residual_columns[slot].append(cell)
            if not selection:
                continue
            if charge is not None:
                charge(len(selection))
            yield Batch(
                tuple(
                    array("q", map(column.__getitem__, selection))
                    for column in lbatch.columns
                )
                + tuple(array("q", buf) for buf in residual_columns),
                len(selection),
                lbatch.has_unbound or right_unbound,
            )

    def label(self) -> str:
        keys = ", ".join(f"?{name}" for name in self.keys)
        return f"HashJoin(on {keys})"

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)


class BindJoinNode(PlanNode):
    """Probe the store once per left row with shared variables bound."""

    def __init__(
        self,
        store: TripleStore,
        left: PlanNode,
        pattern: TriplePattern,
        est_rows: int,
    ) -> None:
        self.left = left
        self.pattern = pattern
        encoded = store.encode_pattern(pattern)
        # Probe spec per position: a constant ID, a left slot, or free.
        spec: List[Tuple[str, Optional[int]]] = []
        out: List[Tuple[int, str]] = []
        checks: List[Tuple[int, int]] = []
        first_at: Dict[str, int] = {}
        for position, entry in enumerate(encoded):
            if isinstance(entry, str):
                if entry in left.slot_of:
                    spec.append(("left", left.slot_of[entry]))
                elif entry in first_at:
                    spec.append(("free", None))
                    checks.append((first_at[entry], position))
                else:
                    first_at[entry] = position
                    spec.append(("free", None))
                    out.append((position, entry))
            else:
                spec.append(("const", entry))
        self.spec = tuple(spec)
        self.out_positions = tuple(position for position, _ in out)
        self.checks = tuple(checks)
        super().__init__(
            left.variables + tuple(name for _, name in out), est_rows
        )
        self.maybe_unbound = left.maybe_unbound

    def _produce(self, store: TripleStore, meter: Optional[CostMeter]) -> Iterator[IdRow]:
        (s_kind, s_val), (p_kind, p_val), (o_kind, o_val) = self.spec
        positions = self.out_positions
        checks = self.checks
        match_ids = store.match_ids
        for lrow in self.left.rows_tuple(store, meter):
            s = s_val if s_kind == "const" else lrow[s_val] if s_kind == "left" else None
            p = p_val if p_kind == "const" else lrow[p_val] if p_kind == "left" else None
            o = o_val if o_kind == "const" else lrow[o_val] if o_kind == "left" else None
            for row in match_ids(s, p, o, meter):
                if checks and not all(row[a] == row[b] for a, b in checks):
                    continue
                yield lrow + tuple(row[i] for i in positions)

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        # Probing stays per left row (that is the operator's nature) but
        # output rows accumulate column-wise and flush as full batches.
        (s_kind, s_val), (p_kind, p_val), (o_kind, o_val) = self.spec
        positions = self.out_positions
        checks = self.checks
        match_ids = store.match_ids
        n_left = len(self.left.variables)
        width = n_left + len(positions)
        buffers: List[List[int]] = [[] for _ in range(width)]
        length = 0
        any_unbound = False
        for lbatch in self.left.batches(store, meter, batch_size, tracer):
            any_unbound = any_unbound or lbatch.has_unbound
            for lrow in lbatch.iter_raw():
                s = s_val if s_kind == "const" else lrow[s_val] if s_kind == "left" else None
                p = p_val if p_kind == "const" else lrow[p_val] if p_kind == "left" else None
                o = o_val if o_kind == "const" else lrow[o_val] if o_kind == "left" else None
                for row in match_ids(s, p, o, meter):
                    if checks and not all(row[a] == row[b] for a, b in checks):
                        continue
                    for slot in range(n_left):
                        buffers[slot].append(lrow[slot])
                    for offset, position in enumerate(positions):
                        buffers[n_left + offset].append(row[position])
                    length += 1
                if length >= batch_size:
                    yield Batch(
                        tuple(array("q", buf) for buf in buffers),
                        length,
                        any_unbound,
                    )
                    buffers = [[] for _ in range(width)]
                    length = 0
        if length:
            yield Batch(
                tuple(array("q", buf) for buf in buffers), length, any_unbound
            )

    def label(self) -> str:
        return f"BindJoin({_pattern_text(self.pattern)})"

    def children(self) -> Sequence[PlanNode]:
        return (self.left,)


class ValuesScanNode(PlanNode):
    """An inline VALUES table as a leaf operator.

    Terms are translated to dictionary IDs at construction so rows live
    in the same ID space as every other operator.  By default the
    translation is a read-only ``lookup`` — the shared local store must
    never be mutated (or, on SQLite, written) from the query path, and
    ``TermDictionary.encode`` is not safe under the HTTP server's
    concurrent planning.  A term the store has never seen sets
    ``has_unknown_terms`` and the local planner falls back to the
    term-space evaluator, which handles such rows exactly.

    The federation passes ``intern=True``: its mediator store is fresh
    and private to one query execution, so interning remote/inline
    terms there is safe and gives every unknown term a real ID.
    ``None`` cells (UNDEF) stay ``None``.
    """

    def __init__(self, store: TripleStore, names: Tuple[str, ...],
                 term_rows: Sequence[Tuple[object, ...]],
                 intern: bool = False) -> None:
        translate = store.dictionary.encode if intern else store.term_id
        self.has_unknown_terms = False
        id_rows: List[IdRow] = []
        for row in term_rows:
            cells: List[Optional[int]] = []
            for term in row:
                if term is None:
                    cells.append(None)
                    continue
                term_id = translate(term)
                if term_id == NO_ID:
                    self.has_unknown_terms = True
                cells.append(term_id)
            id_rows.append(tuple(cells))
        self.id_rows = id_rows
        super().__init__(tuple(names), len(self.id_rows))
        self.maybe_unbound = frozenset(
            name for position, name in enumerate(names)
            if any(row[position] is None for row in self.id_rows)
        )

    def _produce(self, store: TripleStore, meter: Optional[CostMeter]) -> Iterator[IdRow]:
        charge = meter.charge if meter is not None else None
        for row in self.id_rows:
            if charge is not None:
                charge(1)
            yield row

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        charge = meter.charge if meter is not None else None
        width = len(self.variables)
        id_rows = self.id_rows
        for start in range(0, len(id_rows), batch_size):
            chunk = id_rows[start : start + batch_size]
            if charge is not None:
                charge(len(chunk))
            if width == 0:
                yield Batch((), len(chunk))
                continue
            has_unbound = False
            buffers: List[array] = []
            for slot in range(width):
                column = array("q")
                for row in chunk:
                    cell = row[slot]
                    if cell is None:
                        cell = UNBOUND
                        has_unbound = True
                    column.append(cell)
                buffers.append(column)
            yield Batch(tuple(buffers), len(chunk), has_unbound)

    def label(self) -> str:
        if not self.variables:
            return "Unit()" if self.id_rows else "EmptyTable()"
        heads = " ".join(f"?{name}" for name in self.variables)
        return f"ValuesScan({heads} x{len(self.id_rows)})"


class UnionNode(PlanNode):
    """Concatenate branch streams over the union of their variables.

    Slots a branch does not bind are padded with ``None`` and recorded
    in ``maybe_unbound`` so the planner never hash-joins on them.
    """

    def __init__(self, branches: Sequence[PlanNode]) -> None:
        names: List[str] = []
        for branch in branches:
            for name in branch.variables:
                if name not in names:
                    names.append(name)
        super().__init__(tuple(names), sum(branch.est_rows for branch in branches))
        self.branches = list(branches)
        self._maps = [
            tuple(branch.slot_of.get(name) for name in names)
            for branch in branches
        ]
        unbound = set()
        for branch in branches:
            unbound |= set(branch.maybe_unbound)
            unbound |= {name for name in names if name not in branch.slot_of}
        self.maybe_unbound = frozenset(unbound)

    def _produce(self, store: TripleStore, meter: Optional[CostMeter]) -> Iterator[IdRow]:
        for branch, mapping in zip(self.branches, self._maps):
            for row in branch.rows_tuple(store, meter):
                yield tuple(None if slot is None else row[slot] for slot in mapping)

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        # Remapping a batch is pure column shuffling: existing columns
        # are passed through by reference, missing slots get a shared
        # UNBOUND pad column of the right length.
        for branch, mapping in zip(self.branches, self._maps):
            pad: Optional[array] = None
            for batch in branch.batches(store, meter, batch_size, tracer):
                columns: List[array] = []
                has_unbound = batch.has_unbound
                for slot in mapping:
                    if slot is None:
                        if pad is None or len(pad) != batch.length:
                            pad = array("q", [UNBOUND]) * batch.length
                        columns.append(pad)
                        has_unbound = True
                    else:
                        columns.append(batch.columns[slot])
                yield Batch(tuple(columns), batch.length, has_unbound)

    def label(self) -> str:
        return f"Union[{len(self.branches)}]"

    def children(self) -> Sequence[PlanNode]:
        return tuple(self.branches)


class MinusNode(PlanNode):
    """Anti-join on IDs implementing SPARQL MINUS compatibility.

    A left row is dropped when some right row agrees with it on at
    least one shared variable bound on both sides and disagrees on
    none.  With every shared slot certainly bound on both sides this
    is one set-membership test per row; rows with ``None`` cells fall
    back to a compatibility scan.
    """

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        shared = tuple(name for name in right.variables if name in left.slot_of)
        self.left = left
        self.right = right
        self.shared = shared
        self.left_slots = tuple(left.slot_of[name] for name in shared)
        self.right_slots = tuple(right.slot_of[name] for name in shared)
        super().__init__(left.variables, left.est_rows)
        self.maybe_unbound = left.maybe_unbound

    @staticmethod
    def _compatible(left_key: IdRow, right_key: IdRow) -> bool:
        """True when the keys share >=1 bound position and clash on none."""
        common = False
        for a, b in zip(left_key, right_key):
            if a is None or b is None:
                continue
            if a != b:
                return False
            common = True
        return common

    def _produce(self, store: TripleStore, meter: Optional[CostMeter]) -> Iterator[IdRow]:
        if not self.shared:
            # Disjoint domains: the subtraction removes nothing (the
            # normalizer usually rewrites this away already).
            yield from self.left.rows_tuple(store, meter)
            return
        exact: set = set()
        loose: List[IdRow] = []
        for row in self.right.rows_tuple(store, meter):
            key = tuple(row[slot] for slot in self.right_slots)
            if None in key:
                loose.append(key)
            else:
                exact.add(key)
        left_slots = self.left_slots
        for lrow in self.left.rows_tuple(store, meter):
            lkey = tuple(lrow[slot] for slot in left_slots)
            if None not in lkey:
                if lkey in exact:
                    continue
                if loose and any(self._compatible(lkey, rkey) for rkey in loose):
                    continue
            else:
                if any(self._compatible(lkey, rkey) for rkey in exact) or any(
                    self._compatible(lkey, rkey) for rkey in loose
                ):
                    continue
            yield lrow

    def _produce_batches(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        batch_size: int,
        tracer=None,
    ) -> Iterator[Batch]:
        if not self.shared:
            yield from self.left.batches(store, meter, batch_size, tracer)
            return
        exact: set = set()
        loose: List[IdRow] = []
        right_slots = self.right_slots
        for rbatch in self.right.batches(store, meter, batch_size, tracer):
            if rbatch.has_unbound:
                for row in rbatch.iter_rows():
                    key = tuple(row[slot] for slot in right_slots)
                    if None in key:
                        loose.append(key)
                    else:
                        exact.add(key)
            else:
                for row in rbatch.iter_raw():
                    exact.add(tuple(row[slot] for slot in right_slots))
        left_slots = self.left_slots
        compatible = self._compatible
        for lbatch in self.left.batches(store, meter, batch_size, tracer):
            keep: List[int] = []
            for index, lrow in enumerate(lbatch.iter_rows()):
                lkey = tuple(lrow[slot] for slot in left_slots)
                if None not in lkey:
                    if lkey in exact:
                        continue
                    if loose and any(compatible(lkey, rkey) for rkey in loose):
                        continue
                else:
                    if any(compatible(lkey, rkey) for rkey in exact) or any(
                        compatible(lkey, rkey) for rkey in loose
                    ):
                        continue
                keep.append(index)
            if not keep:
                continue
            if len(keep) == lbatch.length:
                yield lbatch
            else:
                yield Batch(
                    tuple(
                        array("q", (column[i] for i in keep))
                        for column in lbatch.columns
                    ),
                    len(keep),
                    lbatch.has_unbound,
                )

    def label(self) -> str:
        keys = ", ".join(f"?{name}" for name in self.shared) or "-"
        return f"Minus(on {keys})"

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)


class CompatJoinNode(PlanNode):
    """Nested-loop join with full SPARQL compatibility semantics.

    Used where a shared variable may be unbound on either side — a hash
    join's equality keying would treat "unbound" as a value, but SPARQL
    says an unbound variable is compatible with anything and the merged
    solution takes the bound side's value.  The local planner avoids
    this shape by falling back to the term-space evaluator; the
    federation, which has no backtracking fallback, uses this operator.
    Materializes the right input.
    """

    def __init__(self, left: PlanNode, right: PlanNode, est_rows: int) -> None:
        self.left = left
        self.right = right
        self.shared = tuple(name for name in right.variables if name in left.slot_of)
        self.left_shared_slots = tuple(left.slot_of[name] for name in self.shared)
        self.right_shared_slots = tuple(right.slot_of[name] for name in self.shared)
        residual = [name for name in right.variables if name not in self.shared]
        self.right_residual_slots = tuple(right.slot_of[name] for name in residual)
        super().__init__(left.variables + tuple(residual), est_rows)
        self.maybe_unbound = left.maybe_unbound | right.maybe_unbound

    def _produce(self, store: TripleStore, meter: Optional[CostMeter]) -> Iterator[IdRow]:
        right_rows = list(self.right.rows_tuple(store, meter))
        charge = meter.charge if meter is not None else None
        for lrow in self.left.rows_tuple(store, meter):
            for rrow in right_rows:
                merged = _merge_shared(
                    lrow, rrow, self.left_shared_slots, self.right_shared_slots
                )
                if merged is None:
                    continue
                if charge is not None:
                    charge(1)
                yield merged + tuple(rrow[slot] for slot in self.right_residual_slots)

    def label(self) -> str:
        keys = ", ".join(f"?{name}" for name in self.shared) or "-"
        return f"CompatJoin(on {keys})"

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)


class LeftJoinNode(CompatJoinNode):
    """Left outer variant of :class:`CompatJoinNode` (OPTIONAL).

    A left row with no compatible right row passes through with the
    right-only slots unbound.  Used by the federation for OPTIONALs
    nested inside UNION/MINUS branches, where no per-solution
    correlation point exists — the right side is evaluated once,
    independently, per the SPARQL LeftJoin algebra.
    """

    def __init__(self, left: PlanNode, right: PlanNode, est_rows: int) -> None:
        super().__init__(left, right, est_rows)
        residual = self.variables[len(left.variables):]
        self.maybe_unbound = self.maybe_unbound | set(residual)

    def _produce(self, store: TripleStore, meter: Optional[CostMeter]) -> Iterator[IdRow]:
        right_rows = list(self.right.rows_tuple(store, meter))
        charge = meter.charge if meter is not None else None
        pad = (None,) * len(self.right_residual_slots)
        for lrow in self.left.rows_tuple(store, meter):
            matched = False
            for rrow in right_rows:
                merged = _merge_shared(
                    lrow, rrow, self.left_shared_slots, self.right_shared_slots
                )
                if merged is None:
                    continue
                matched = True
                if charge is not None:
                    charge(1)
                yield merged + tuple(rrow[slot] for slot in self.right_residual_slots)
            if not matched:
                yield lrow + pad

    def label(self) -> str:
        keys = ", ".join(f"?{name}" for name in self.shared) or "-"
        return f"LeftJoin(on {keys})"


class RemoteScanNode(PlanNode):
    """Fetch one pattern (or an exclusive group of patterns that share
    a single relevant source) from remote endpoints.

    ``sources`` need only the endpoint query surface (``select``/``ask``
    raising ``EndpointError`` subclasses) — in-process and HTTP-backed
    endpoints mix freely.  Result terms are interned into the executing
    store's dictionary, so the mediator joins them in ID space like any
    local rows.  Rows are deduplicated across sources (two endpoints
    may hold overlapping data).

    ``incomplete`` turns true when a source capped its rows
    (``truncated``) or failed and was skipped: the rows produced are
    then possibly not all there are, and the federation says so.
    """

    def __init__(self, patterns: Sequence[TriplePattern], sources: Sequence,
                 est_rows: int) -> None:
        self.patterns = list(patterns)
        self.sources = list(sources)
        self.incomplete = False
        names: List[str] = []
        for pattern in self.patterns:
            for name in pattern.variables():
                if name not in names:
                    names.append(name)
        super().__init__(tuple(names), est_rows)

    def _produce(self, store: TripleStore, meter: Optional[CostMeter]) -> Iterator[IdRow]:
        return self._fetch(store, meter, None)

    def _batch_rows(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        tracer,
    ) -> Iterator[IdRow]:
        return self._fetch(store, meter, tracer)

    def _fetch(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        tracer,
    ) -> Iterator[IdRow]:
        from ..endpoint.endpoint import EndpointError
        from .serializer import ask_query, select_query

        charge = meter.charge if meter is not None else None
        if not self.variables:
            # Fully ground patterns: a federated existence check.
            probe = ask_query(self.patterns)
            for source in self.sources:
                try:
                    if tracer is None:
                        held = source.ask(probe)
                    else:
                        with tracer.remote_call(source, kind="ask") as span:
                            held = source.ask(probe)
                            if span is not None:
                                span.attrs["held"] = bool(held)
                    if held:
                        if charge is not None:
                            charge(1)
                        yield ()
                        return
                except EndpointError:
                    self.incomplete = True
                    continue
            return
        query = select_query(self.patterns, distinct=False)
        encode = store.dictionary.encode
        seen: set = set()
        for source in self.sources:
            try:
                if tracer is None:
                    result = source.select(query)
                else:
                    with tracer.remote_call(source, kind="select") as span:
                        result = source.select(query)
                        if span is not None:
                            span.attrs["rows"] = len(result.rows)
            except EndpointError:
                # A failing source cannot veto the others' answers.
                self.incomplete = True
                continue
            if result.truncated:
                self.incomplete = True
            for row in result.rows:
                ids = tuple(
                    encode(row[name]) if name in row else None
                    for name in self.variables
                )
                if ids in seen:
                    continue
                seen.add(ids)
                if charge is not None:
                    charge(1)
                yield ids

    def label(self) -> str:
        where = " . ".join(_pattern_text(p) for p in self.patterns)
        at = ",".join(getattr(s, "name", "?") for s in self.sources)
        return f"RemoteScan({where} @ {at})"


class RemoteBindJoinNode(PlanNode):
    """Batched bind join against remote endpoints.

    Accumulates up to ``batch_size`` left rows, decodes the variables
    shared with ``pattern``, and ships them to every source as one
    sub-query of the form ``SELECT * WHERE { pattern VALUES (vars)
    { rows } }`` — a single HTTP round-trip per source per batch
    instead of one per binding, which is where federated joins spend
    their time (the FedX "bound join" idea, upgraded from FILTER
    disjunctions to VALUES).  Left rows with an unbound shared slot
    ship ``UNDEF``, preserving compatibility semantics.  ``incomplete``
    is set as on :class:`RemoteScanNode`.
    """

    def __init__(self, left: PlanNode, pattern: TriplePattern, sources: Sequence,
                 est_rows: int, batch_size: int = REMOTE_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.left = left
        self.pattern = pattern
        self.sources = list(sources)
        self.batch_size = batch_size
        self.incomplete = False
        self.shared = tuple(
            name for name in pattern.variables() if name in left.slot_of
        )
        self.left_key_slots = tuple(left.slot_of[name] for name in self.shared)
        fresh: List[str] = []
        for name in pattern.variables():
            if name not in left.slot_of and name not in fresh:
                fresh.append(name)
        self.fresh = tuple(fresh)
        super().__init__(left.variables + tuple(fresh), est_rows)
        # Shared slots are always bound after the join (the pattern
        # binds them); the rest of the left row keeps its status.
        self.maybe_unbound = left.maybe_unbound - set(self.shared)

    def _produce(self, store: TripleStore, meter: Optional[CostMeter]) -> Iterator[IdRow]:
        return self._stream(store, meter, None)

    def _batch_rows(
        self,
        store: TripleStore,
        meter: Optional[CostMeter],
        tracer,
    ) -> Iterator[IdRow]:
        return self._stream(store, meter, tracer)

    def _stream(self, store: TripleStore, meter: Optional[CostMeter],
                tracer) -> Iterator[IdRow]:
        # Traced executions pull the left side through the batch adapter
        # so the whole subtree appears in the trace; the untraced path
        # keeps the row-wise pull, byte-identical to the seed behaviour.
        left_rows = (
            self.left.rows_tuple(store, meter)
            if tracer is None
            else self.left.rows(store, meter, tracer=tracer)
        )
        batch: List[IdRow] = []
        for lrow in left_rows:
            batch.append(lrow)
            if len(batch) >= self.batch_size:
                yield from self._flush(batch, store, meter, tracer)
                batch = []
        if batch:
            yield from self._flush(batch, store, meter, tracer)

    def _flush(self, batch: List[IdRow], store: TripleStore,
               meter: Optional[CostMeter], tracer=None) -> Iterator[IdRow]:
        from ..endpoint.endpoint import EndpointError
        from .ast_nodes import GraphPattern as AstGroup, Query as AstQuery

        decode = store.decode_id
        encode = store.dictionary.encode
        charge = meter.charge if meter is not None else None

        # Distinct decoded key tuples for the VALUES clause (UNDEF for
        # slots a union branch left unbound).
        term_keys: Dict[Tuple, None] = {}
        for lrow in batch:
            key = tuple(
                None if lrow[slot] is None else decode(lrow[slot])
                for slot in self.left_key_slots
            )
            term_keys.setdefault(key)
        sub_query = AstQuery(
            form="SELECT",
            select_star=True,
            where=AstGroup(
                patterns=[self.pattern],
                values=(
                    [ValuesClause(self.shared, tuple(term_keys))]
                    if self.shared else []
                ),
            ),
        )

        # Fetch once per source, group extensions by their key values.
        exact: Dict[Tuple, List[Tuple]] = {}
        scan_rows: List[Tuple[Tuple, Tuple]] = []  # (key, extension)
        seen: set = set()
        for source in self.sources:
            try:
                if tracer is None:
                    result = source.select(sub_query)
                else:
                    with tracer.remote_call(
                        source, kind="bind-join", bindings=len(term_keys)
                    ) as span:
                        result = source.select(sub_query)
                        if span is not None:
                            span.attrs["rows"] = len(result.rows)
            except EndpointError:
                self.incomplete = True
                continue
            if result.truncated:
                self.incomplete = True
            for row in result.rows:
                key = tuple(row.get(name) for name in self.shared)
                extension = tuple(row.get(name) for name in self.fresh)
                if (key, extension) in seen:
                    continue
                seen.add((key, extension))
                if None in key:
                    scan_rows.append((key, extension))
                else:
                    exact.setdefault(key, []).append(extension)

        for lrow in batch:
            lkey = tuple(
                None if lrow[slot] is None else decode(lrow[slot])
                for slot in self.left_key_slots
            )
            if None not in lkey:
                matches = [(lkey, ext) for ext in exact.get(lkey, ())]
                matches.extend(
                    pair for pair in scan_rows if _terms_compatible(lkey, pair[0])
                )
            else:
                matches = [
                    (key, ext) for key, exts in exact.items()
                    if _terms_compatible(lkey, key) for ext in exts
                ]
                matches.extend(
                    pair for pair in scan_rows if _terms_compatible(lkey, pair[0])
                )
            for key, extension in matches:
                if charge is not None:
                    charge(1)
                merged = lrow
                if None in lkey:
                    # The pattern bound a variable this left row left
                    # unbound: the joined solution takes the new value.
                    cells = list(lrow)
                    for position, slot in enumerate(self.left_key_slots):
                        if cells[slot] is None and key[position] is not None:
                            cells[slot] = encode(key[position])
                    merged = tuple(cells)
                yield merged + tuple(
                    None if term is None else encode(term) for term in extension
                )

    def label(self) -> str:
        at = ",".join(getattr(s, "name", "?") for s in self.sources)
        return (
            f"RemoteBindJoin({_pattern_text(self.pattern)} @ {at}, "
            f"batch={self.batch_size})"
        )

    def children(self) -> Sequence[PlanNode]:
        return (self.left,)


def _merge_shared(
    lrow: IdRow,
    rrow: IdRow,
    left_slots: Tuple[int, ...],
    right_slots: Tuple[int, ...],
) -> Optional[IdRow]:
    """Compatibility-merge one row pair over their shared slots.

    Returns the left row with unbound shared cells filled from the
    right, or ``None`` when two bound cells clash.  The single merge
    implementation behind :class:`CompatJoinNode` and
    :class:`LeftJoinNode`, so inner- and outer-join compatibility can
    never diverge.
    """
    cells: Optional[List[Optional[int]]] = None
    for lslot, rslot in zip(left_slots, right_slots):
        lval, rval = lrow[lslot], rrow[rslot]
        if lval is None:
            if rval is not None:
                if cells is None:
                    cells = list(lrow)
                cells[lslot] = rval
        elif rval is not None and lval != rval:
            return None
    return tuple(cells) if cells is not None else lrow


def _terms_compatible(left_key: Tuple, right_key: Tuple) -> bool:
    """Join compatibility over decoded terms (None = unbound)."""
    for a, b in zip(left_key, right_key):
        if a is None or b is None:
            continue
        if a != b:
            return False
    return True


class QueryPlanner:
    """Compiles normalized logical algebra into physical plans.

    The shared optimizer of the four-stage pipeline: every consumer
    (local evaluation, federation mediation, HTTP serving) plans
    through this class.  BGP conjunctions become left-deep
    hash/bind-join trees; UNION, MINUS and VALUES compile to their
    dedicated operators.
    """

    def __init__(self, store: TripleStore) -> None:
        self.store = store

    def plan(self, group: GraphPattern, budget: Optional[int] = None) -> Optional[PlanNode]:
        """Plan one group graph pattern (OPTIONALs excluded — the
        evaluator applies those per base solution).

        Returns ``None`` when the group needs the backtracking
        fallback: an empty basic group, fully concrete patterns
        (existence checks), a disconnected pattern join graph, or a
        join keyed on a variable UNION/UNDEF may leave unbound.

        ``budget`` is the caller's cost-meter budget, if any.  Hash
        joins pay a full scan of the build pattern up front; on a
        budgeted (endpoint-guarded) evaluation that scan can burn the
        budget a selective probe sequence would never have touched, so
        a hash join is only chosen while its estimated metered cost
        still fits the budget with a 2x margin — beyond that the
        planner stays on bind joins, whose cost profile matches the
        seed backtracker's.
        """
        root = normalize(translate_group(group, include_optionals=False))
        if isinstance(root, BGP) and not root.patterns:
            # The unit group: the backtracker's "yield the initial
            # binding" path is already exact (and EXPLAIN says Empty()).
            return None
        return self.compile(root, budget)

    def compile(self, node: AlgebraNode, budget: Optional[int] = None) -> Optional[PlanNode]:
        """Compile one normalized logical node; ``None`` = fallback."""
        filters, core = _strip_filters(node)
        compiled = self._compile_core(core, filters, budget)
        return compiled

    def _compile_core(
        self,
        core: AlgebraNode,
        pending: List[Expression],
        budget: Optional[int],
    ) -> Optional[PlanNode]:
        store = self.store
        if isinstance(core, Empty):
            return self._finish(ValuesScanNode(store, (), ()), pending)
        if isinstance(core, ValuesTable):
            node = ValuesScanNode(store, core.names, core.rows)
            if node.has_unknown_terms:
                # A VALUES term the store never interned has no ID; the
                # term-space fallback carries the original terms.
                return None
            return self._finish(node, pending)
        if isinstance(core, LogicalUnion):
            branches = []
            for branch in core.branches:
                compiled = self.compile(branch, budget)
                if compiled is None:
                    return None
                branches.append(compiled)
            return self._finish(UnionNode(branches), pending)
        if isinstance(core, LogicalMinus):
            left = self.compile(core.left, budget)
            if left is None:
                return None
            right = self.compile(core.right, budget)
            if right is None:
                return None
            return self._finish(MinusNode(left, right), pending)
        if isinstance(core, (BGP, LogicalJoin)):
            return self._compile_conjunction(conjuncts(core), pending, budget)
        return None  # LeftJoin and modifiers are handled by the evaluator

    def _finish(self, node: PlanNode, pending: List[Expression]) -> PlanNode:
        """Attach any stripped filters to a finished operator."""
        node.filters.extend(pending)
        return node

    def _compile_conjunction(
        self,
        parts: List[AlgebraNode],
        pending: List[Expression],
        budget: Optional[int],
    ) -> Optional[PlanNode]:
        """Greedy left-deep join over patterns and compiled sub-plans."""
        store = self.store
        patterns: List[TriplePattern] = []
        leaves: List[PlanNode] = []
        pending = list(pending)
        for part in parts:
            part_filters, part_core = _strip_filters(part)
            if isinstance(part_core, BGP):
                patterns.extend(part_core.patterns)
                pending.extend(part_filters)
            else:
                leaf = self._compile_core(part_core, part_filters, budget)
                if leaf is None:
                    return None
                leaves.append(leaf)
        patterns = list(dict.fromkeys(patterns))
        if any(not pattern.variables() for pattern in patterns):
            return None  # fully concrete patterns are existence checks
        if not patterns and not leaves:
            return None
        stats = store.predicate_stats_ids()
        # Sharded stores get the plan-visible scatter-gather scan; it is
        # execution-identical but renders fan-out and records per-shard
        # row counts under the tracer.
        scan_cls = (
            ShardScanNode if getattr(store.backend, "shards", None) is not None
            else ScanNode
        )
        candidates: List[PlanNode] = [
            scan_cls(store, pattern, store.cardinality_estimate(pattern))
            for pattern in patterns
        ] + leaves

        node: PlanNode = min(candidates, key=lambda c: c.est_rows)
        candidates.remove(node)
        self._attach_filters(node, pending)
        est_cost = node.est_rows  # scan candidates charged so far

        while candidates:
            connected = [
                candidate for candidate in candidates
                if any(name in node.slot_of for name in candidate.variables)
            ]
            if not connected:
                if any(isinstance(c, ScanNode) for c in candidates):
                    return None  # pattern cartesian corner: backtracker's
                # Disjoint VALUES/UNION tables: an explicit cross
                # product (keyless hash join) is small and well-defined.
                best = min(candidates, key=lambda c: c.est_rows)
                candidates.remove(best)
                node = HashJoinNode(
                    node, best, (), max(1, node.est_rows) * max(1, best.est_rows)
                )
                self._attach_filters(node, pending)
                continue
            best = min(
                connected,
                key=lambda candidate: self._join_estimate(node, candidate, stats),
            )
            candidates.remove(best)
            keys = tuple(name for name in best.variables if name in node.slot_of)
            if any(
                name in node.maybe_unbound or name in best.maybe_unbound
                for name in keys
            ):
                # Joining on a maybe-unbound variable needs SPARQL
                # compatibility semantics; the term-space fallback has
                # them, the ID-space hash join does not.
                return None
            est = self._join_estimate(node, best, stats)
            hash_cost = est_cost + best.est_rows + est
            prefer_bind = (
                isinstance(best, ScanNode)
                and node.est_rows * BIND_JOIN_FACTOR < best.est_rows
            )
            over_budget = budget is not None and hash_cost * 2 > budget
            if isinstance(best, ScanNode) and (prefer_bind or over_budget):
                node = BindJoinNode(store, node, best.pattern, est)
                est_cost += est  # probes charge per produced candidate
            else:
                # Push single-input filters below the build side so the
                # hash table only holds rows that can survive.
                self._attach_filters(best, pending)
                node = HashJoinNode(node, best, keys, est)
                est_cost = hash_cost
            self._attach_filters(node, pending)

        # Filters whose variables never appear in any input evaluate
        # against an unbound binding at the root: error -> row dropped,
        # exactly like the seed's last-depth assignment.
        node.filters.extend(pending)
        return node

    # -- cost model ----------------------------------------------------

    def _join_estimate(
        self,
        left: PlanNode,
        candidate: PlanNode,
        stats: Dict[int, Tuple[int, int, int]],
    ) -> int:
        shared = [name for name in candidate.variables if name in left.slot_of]
        if not isinstance(candidate, ScanNode):
            # VALUES/UNION inputs: assume near-unique keys, so the join
            # output tracks the larger input.
            if shared:
                return max(left.est_rows, candidate.est_rows)
            return max(1, left.est_rows) * max(1, candidate.est_rows)
        distinct = 1
        for name in shared:
            distinct = max(distinct, self._distinct_values(candidate, name, stats))
        return max(0, left.est_rows * candidate.est_rows // max(distinct, 1))

    def _distinct_values(
        self,
        scan: ScanNode,
        name: str,
        stats: Dict[int, Tuple[int, int, int]],
    ) -> int:
        """Distinct count of variable ``name`` within ``scan``'s pattern."""
        pattern = scan.pattern
        predicate = pattern.predicate
        if isinstance(predicate, Variable):
            return max(scan.est_rows, 1)
        pid = self.store.term_id(predicate)
        stat = stats.get(pid)
        if stat is None:
            return max(scan.est_rows, 1)
        count, distinct_s, distinct_o = stat
        if isinstance(pattern.subject, Variable) and pattern.subject.name == name:
            return max(distinct_s, 1)
        if isinstance(pattern.object, Variable) and pattern.object.name == name:
            return max(distinct_o, 1)
        return max(scan.est_rows, 1)

    # -- filter placement ----------------------------------------------

    @staticmethod
    def _attach_filters(node: PlanNode, pending: List[Expression]) -> None:
        """See :func:`attach_ready_filters` — one implementation serves
        the local and the federated planner."""
        attach_ready_filters(node, pending)


def _strip_filters(node: AlgebraNode) -> Tuple[List[Expression], AlgebraNode]:
    """Peel Filter wrappers off a logical node, outermost first."""
    filters: List[Expression] = []
    while isinstance(node, LogicalFilter):
        filters.append(node.expression)
        node = node.child
    return filters, node


def attach_ready_filters(node: PlanNode, pending: List[Expression]) -> None:
    """Attach every pending filter whose variables are *certainly*
    bound by ``node`` (shared by the local and federated planners).

    A variable that is merely maybe-unbound must wait: evaluating the
    filter against an UNDEF row here would drop it, while a later
    compatibility join could still bind the variable and let the row
    pass.  Filters that never become attachable go onto the plan root
    (group-level scope), where erroring on an unbound variable is the
    correct SPARQL outcome.
    """
    ready = [
        expr for expr in pending
        if all(
            name in node.slot_of and name not in node.maybe_unbound
            for name in expr.variables()
        )
    ]
    for expr in ready:
        node.filters.append(expr)
        pending.remove(expr)


def refresh_plan_estimates(node: PlanNode, store: TripleStore) -> PlanNode:
    """Re-resolve leaf cardinality estimates from current store stats.

    ``est=N`` on a plan is computed at *plan* time; a store mutated
    since then (bumping :attr:`~repro.store.TripleStore.generation`)
    leaves those numbers describing data that no longer exists.  The
    generation-keyed plan cache already replans after mutations, but a
    caller holding a plan object across writes would still print stale
    estimates — EXPLAIN ANALYZE calls this first so the ``est → actual``
    comparison is always against generation-current statistics.  Only
    leaves re-resolve (scans against the backend's free estimates,
    VALUES tables against their literal row count); join estimates
    derive from the same statistics snapshot at planning, so a cached
    same-generation plan is already consistent.
    """
    if isinstance(node, ScanNode):
        node.est_rows = store.cardinality_estimate(node.pattern)
    elif isinstance(node, ValuesScanNode):
        node.est_rows = len(node.id_rows)
    for child in node.children():
        refresh_plan_estimates(child, store)
    return node


def explain_plan(node: PlanNode, indent: int = 0) -> str:
    """Render the plan tree, one operator per line.

    Each operator is annotated ``batch`` (native columnar producer) or
    ``rows`` (row-wise, adapted into batches by the base class), so the
    EXPLAIN surface shows exactly where the vectorized path runs.
    """
    pad = "  " * indent
    native = type(node)._produce_batches is not PlanNode._produce_batches
    mode = "batch" if native else "rows"
    line = f"{pad}{node.label()}  [est={node.est_rows}, {mode}]"
    if node.filters:
        from .serializer import serialize_expression

        rendered = ", ".join(serialize_expression(expr) for expr in node.filters)
        line += f" filter({rendered})"
    lines = [line]
    for child in node.children():
        lines.append(explain_plan(child, indent + 1))
    return "\n".join(lines)
