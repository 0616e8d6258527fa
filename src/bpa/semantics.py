"""Minimal df-complete logs and trace counting.

The *minimal df-complete log* ``L_m(M)`` of a tree ``M`` is the smallest
multiset of traces whose directly-follows graph equals the model's.  It is
built recursively: an activity leaf contributes ``[<v>]``, tau ``[<>]``, a
self-loop ``[<v,v>]`` (one repetition suffices to witness the loop edge),
``xor`` takes the multiset union of its children's logs, ``seq`` all ordered
concatenations, and ``and`` every order-preserving interleaving of one trace
per child.

``ntl`` computes the number of traces and the per-trace lengths of
``L_m(M)`` without materializing it:

* leaf -> (1, <1>); tau -> (1, <0>); self-loop -> (1, <2>)
* xor  -> sum of counts, concatenated lengths (child order)
* seq  -> product of counts; one summed length per combination of child
  traces, combinations enumerated lexicographically
* and  -> per combination, ``m!/(l_1! * ... * l_n!)`` interleavings, each of
  length ``m = l_1 + ... + l_n``

Counts use arbitrary-precision integers; log construction is guarded by a
trace cap because interleaving counts grow multinomially.
"""
from __future__ import annotations

import math
from itertools import chain, product
from typing import NamedTuple

from .logs import Event, EventLog, Trace
from .trees import ProcessTree, require_class

DEFAULT_TRACE_CAP = 100_000


class LogSizeError(RuntimeError):
    """Minimal-log construction would exceed the configured trace cap."""


class _NtlFields(NamedTuple):
    tr: int
    lens: tuple[int, ...]


class NtlResult(_NtlFields):
    """Trace count and per-trace lengths of the minimal df-complete log."""

    __slots__ = ()

    def __new__(cls, tr: int, lens: tuple[int, ...]) -> "NtlResult":
        if tr != len(lens):
            raise ValueError("tr must equal len(lens)")
        return super().__new__(cls, tr, lens)

    @property
    def size(self) -> int:
        """Total number of events, i.e. the sum of all trace lengths."""
        return sum(self.lens)


def ntl(tree: ProcessTree, trace_cap: int = DEFAULT_TRACE_CAP) -> NtlResult:
    """Trace count and lengths of ``L_m(M)``.  The computation aborts with
    :class:`LogSizeError` as soon as any subtree exceeds ``trace_cap`` (a
    child's count is a lower bound for its parent's)."""
    require_class(tree, "C_c")
    tr, lens = _ntl(tree, trace_cap)
    return NtlResult(tr, tuple(lens))


def _multinomial(parts: tuple[int, ...]) -> int:
    m = sum(parts)
    out = math.factorial(m)
    for p in parts:
        out //= math.factorial(p)
    return out


def _ntl(t: ProcessTree, cap: int) -> tuple[int, list[int]]:
    if t.is_tau:
        return 1, [0]
    if t.is_activity:
        return 1, [1]
    if t.is_self_loop:
        return 1, [2]
    subs = [_ntl(c, cap) for c in t.children]
    combos = math.prod(n for n, _ in subs)
    if t.label == "xor":
        lens = [l for _, ls in subs for l in ls]
        _check_cap(len(lens), cap)
        return len(lens), lens
    if t.label == "seq":
        _check_cap(combos, cap)
        lens = [sum(pick) for pick in product(*(ls for _, ls in subs))]
        return len(lens), lens
    if t.label == "and":
        _check_cap(combos, cap)  # every combination yields at least one trace
        tr = 0
        lens: list[int] = []
        for pick in product(*(ls for _, ls in subs)):
            count = _multinomial(pick)
            tr += count
            _check_cap(tr, cap)
            lens.extend([sum(pick)] * count)
        return tr, lens
    raise AssertionError(f"unreachable operator {t.label!r}")  # loop-shape checked upfront


def _check_cap(count: int, cap: int) -> None:
    if count > cap:
        raise LogSizeError(f"minimal log has at least {count} traces, exceeding {cap}")


# ---------------------------------------------------------------------------
# Minimal-log construction
# ---------------------------------------------------------------------------

def minimal_log(tree: ProcessTree, trace_cap: int = DEFAULT_TRACE_CAP) -> EventLog:
    """Materialize ``L_m(M)``, traces in deterministic generation order."""
    ntl(tree, trace_cap=trace_cap)  # also performs the class check
    log = EventLog()
    for trace in _min_traces(tree):
        log.add(trace)
    return log


def _min_traces(t: ProcessTree) -> list[Trace]:
    """The traces of ``L_m(t)``, built from one shared event per leaf."""
    if t.is_tau:
        return [()]
    if t.is_activity:
        return [(Event(t.label),)]
    if t.is_self_loop:
        event = Event(t.children[0].label)
        return [(event, event)]
    subs = [_min_traces(c) for c in t.children]
    if t.label == "xor":
        return [trace for sub in subs for trace in sub]
    if t.label == "seq":
        return [tuple(chain.from_iterable(pick)) for pick in product(*subs)]
    # and: all interleavings per combination, lexicographic in the sequence
    # of child picks; the children of a duplicate-free tree have disjoint
    # alphabets, so the interleavings are distinct traces.
    return [trace for pick in product(*subs) for trace in _interleavings(pick)]


def _interleavings(seqs: tuple[Trace, ...]) -> list[Trace]:
    """Order-preserving shuffles, in lexicographic child-pick order."""
    total = sum(map(len, seqs))
    positions = [0] * len(seqs)
    acc: list[Event] = []
    out: list[Trace] = []

    def rec() -> None:
        if len(acc) == total:
            out.append(tuple(acc))  # every sequence is used up
        for i, seq in enumerate(seqs):
            p = positions[i]
            if p < len(seq):
                acc.append(seq[p])
                positions[i] = p + 1
                rec()
                positions[i] = p
                acc.pop()

    rec()
    return out
