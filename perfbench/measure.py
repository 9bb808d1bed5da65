"""Percentiles, process accounting from ``/proc``, and span self time."""

from __future__ import annotations

import math
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_TICKS = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def percentile(latencies: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1).

    An unanswered request carries ``inf`` and so ranks slower than every
    answered one; the result is ``inf`` when the rank lands on one.
    """
    if not latencies:
        raise ValueError("no samples")
    ordered = sorted(latencies)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q``-quantile."""
    return count - max(1, math.ceil(q * count))


def tail_supported(count: int, q: float, need: int = 10) -> bool:
    """A tail is reported only with at least ``need`` samples beyond it."""
    return count > 0 and beyond(count, q) >= need


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # comm may hold spaces or parentheses: split after the last ')'.
    return raw[raw.rindex(")") + 2:].split()


def session_pids(leader: int) -> List[int]:
    """Live processes whose session id is ``leader`` (the server was
    started as a session leader, so this is it and all its children)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] is state, [3] the session id.
        if fields is not None and fields[0] != "Z" and int(fields[3]) == leader:
            pids.append(int(entry))
    return sorted(pids)


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])   # utime, stime
    return total / _TICKS


def host_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole host so far, from the
    first line of ``/proc/stat``.  Steal is time the hypervisor ran
    someone else while this machine's vCPUs had work."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    # user nice system idle iowait irq softirq steal
    return fields[7], sum(fields)


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of the host's CPU time stolen between two ``host_ticks()``."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def pss_mb(pids: Iterable[int]) -> float:
    """Proportional set size of ``pids`` summed, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------

#: ``(span id, parent id, request id, name, start, end, stepped)``
Span = Tuple[int, int, int, str, float, float, float]


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of each span: its duration minus the part of it that
    its child spans cover, minus store-scan steps taken while it was the
    innermost open span (``stepped``)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[1]:
            children.setdefault(span[1], []).append((span[4], span[5]))
    return {
        span[0]: (span[5] - span[4]
                  - _covered(children.get(span[0], []), span[4], span[5])
                  - span[6])
        for span in spans
    }


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]
