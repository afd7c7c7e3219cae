"""Generalised subset construction over a decorated LTS.

A decorated system determinises into a Moore machine whose states are sets of
base states (plus an absorbing TOP under must testing): outputs join pointwise
and steps are unions of rows.  This module provides lazy evaluation of that
machine (``det_output`` / ``det_step`` / ``behavior``), the interning search
(``explore``) that builds the reachable part of it and of the reversal
machines, and partition refinement to the coarsest quotient.

A set of base states is an int mask, bit ``x`` standing for state ``x``, and
an output is a raw value, so ``det_step`` and ``det_value`` are one join,
:func:`semcheck.lts.join_at` over the set's members (those
:func:`semcheck.lts.root_bits` keeps under the decoration's ``cover``): of
their row masks and of their raw values.  Frozensets and :class:`Output`
values are boundary views: ``det_step`` answers a frozenset in kind,
``det_output`` and ``behavior`` decode, and so do a machine's ``outputs``
and ``state_keys``.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import accumulate
from operator import itemgetter
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from .decorations import (
    DEFAULT_CAP,
    TOP,
    CapExceeded,
    DecoratedLts,
    EffLabel,
    Output,
    Top,
    Value,
    VariantMismatch,
    antichain_to_downset,
    join_outputs,  # noqa: F401  not called; perfbench counts moore.join_outputs
)
from .lts import (Record, StateSet, full_mask, join_at, mask_bits, mask_states, root_bits,
                  state_mask)

#: A determinised state: the mask of a set of base states, or the absorbing
#: top element (must testing only).  Probabilistic systems determinise into
#: distributions instead; those live in :mod:`semcheck.gps` as
#: ``Distribution``.
DetState = Union[int, Top]

#: runs an iterator to its end, keeping nothing
_drain = deque(maxlen=0).extend


def to_mask(state: Union[DetState, StateSet]) -> DetState:
    """A determinised state as a mask; a frozenset (or any iterable of
    states) is converted, masks and TOP pass through."""
    return state if state is TOP or type(state) is int else state_mask(state)


def to_stateset(state: DetState) -> Union[StateSet, Top]:
    """The frozenset a mask stands for; TOP stays TOP."""
    return state if state is TOP else mask_states(state)


def det_value(d: DecoratedLts, state: Union[DetState, StateSet]) -> Value:
    """The raw output of a determinised state: its members' values ORed."""
    if state is TOP:
        return TOP
    mask = state if type(state) is int else state_mask(state)
    return join_at(d.values, root_bits(mask, d.cover) or mask_bits(mask))


def det_output(d: DecoratedLts, state: Union[DetState, StateSet]) -> Output:
    """Pointwise join of the member states' outputs (bottom for the empty set;
    the TOP state is only meaningful under must testing)."""
    if state is TOP and d.output_kind != "top_or_family":
        raise VariantMismatch("TOP state outside must semantics")
    return d.decode(det_value(d, state))


def det_step(d: DecoratedLts, state: Union[DetState, StateSet],
             label: EffLabel) -> Union[DetState, StateSet]:
    """Union of the member states' transition rows; TOP rows absorb.  A
    frozenset ``state`` gives a frozenset (or TOP)."""
    rows = d.masks.get(label)
    if rows is None:
        raise ValueError(f"unknown label {label!r}")
    if state is TOP:
        return TOP
    if type(state) is not int:
        return to_stateset(det_step(d, state_mask(state), label))
    return join_at(rows, root_bits(state, d.cover) or mask_bits(state))


def behavior(d: DecoratedLts, state: DetState, word: Iterable[EffLabel]) -> Output:
    """Output after running ``word`` from ``state`` in the determinised machine."""
    for label in word:
        state = det_step(d, state, label)
    return det_output(d, state)


class MooreMachine(Record):
    """An explicit finite Moore machine with total transitions.

    ``values`` holds the states' raw outputs and ``keys`` what each state
    denotes (a mask or TOP for subset constructions, a tuple of raw values
    for reversal passes); ``decode`` and ``decode_key`` (identities unless
    set) give their views.  ``inits`` lists the initial states in order."""

    _fields = ("semantics", "alphabet", "values", "steps", "inits", "keys", "decode",
               "decode_key")

    def __init__(self, semantics: str, alphabet: Tuple[EffLabel, ...], values: List[object],
                 steps: List[Dict[EffLabel, int]], inits: List[int],
                 keys: Optional[List[object]] = None,
                 decode: Callable[[object], Output] = lambda value: value,
                 decode_key: Callable[[object], object] = lambda key: key):
        self.semantics, self.alphabet, self.values = semantics, alphabet, values
        self.steps, self.inits, self.keys = steps, inits, [] if keys is None else keys
        self.decode, self.decode_key = decode, decode_key

    @property
    def n_states(self) -> int:
        return len(self.values)

    @cached_property
    def outputs(self) -> List[Output]:
        return [self.decode(v) for v in self.values]

    @cached_property
    def state_keys(self) -> List[object]:
        return [self.decode_key(k) for k in self.keys]

    def run(self, word: Iterable[EffLabel]) -> Output:
        q = self.inits[0]
        for label in word:
            q = self.steps[q][label]
        return self.decode(self.values[q])


def explore_steps(inits: Sequence[Hashable], step: Callable[[Hashable, EffLabel], Hashable],
                  alphabet: Sequence[EffLabel], cap: int, stage: str) -> Iterator:
    """:func:`explore`, resumable: a generator that first yields the lists
    :func:`explore` returns (they grow as the search goes on), then each
    state once its step row is stored.  Exhausted, the search is complete."""
    index: Dict[Hashable, int] = {}
    states: List[Hashable] = []

    def intern(s: Hashable) -> int:
        i = index.get(s)
        if i is None:
            if len(states) >= cap:
                raise CapExceeded(stage, len(states))
            i = index[s] = len(states)
            states.append(s)
        return i

    init_idx = [intern(s) for s in inits]
    steps: List[Dict[EffLabel, int]] = []
    yield states, steps, init_idx
    for s in states:  # the list grows while it is walked: that is the queue
        steps.append({label: intern(step(s, label)) for label in alphabet})
        yield s


def explore(inits: Sequence[Hashable], step: Callable[[Hashable, EffLabel], Hashable],
            alphabet: Sequence[EffLabel], cap: int,
            stage: str) -> Tuple[List[Hashable], List[Dict[EffLabel, int]], List[int]]:
    """First-in-first-out interning search over ``step`` from ``inits``.

    States are numbered in discovery order, successors taken in alphabet
    order; equal states are one, so states must be hashable and canonical.
    Returns the stored states, one step row per state and the indices of
    ``inits``.  Raises :class:`CapExceeded` naming ``stage`` once more than
    ``cap`` states would be stored."""
    search = explore_steps(inits, step, alphabet, cap, stage)
    found = next(search)
    _drain(search)
    return found


def reachable_machine(d: DecoratedLts, inits: Sequence[Union[DetState, StateSet]],
                      cap: int = DEFAULT_CAP) -> MooreMachine:
    """Breadth-first construction of the determinised machine reachable from
    ``inits`` (labels explored in alphabet order).  Raises :class:`CapExceeded`
    once more than ``cap`` states would be materialised."""
    keys, steps, init_idx = explore([to_mask(s) for s in inits],
                                    lambda s, a: det_step(d, s, a),
                                    d.eff_alphabet, cap, "determinisation")
    return MooreMachine(d.semantics, d.eff_alphabet, [det_value(d, s) for s in keys],
                        steps, init_idx, keys, d.decode, to_stateset)


def moore_partition_classes(machine: MooreMachine) -> Tuple[int, ...]:
    """Coarsest output-and-step-respecting partition of the machine's states,
    as block identifiers numbered by first occurrence.

    Hopcroft's refinement (1971) on the flat refinable partition of Valmari
    and Lehtinen (STACS 2008): blocks start as the classes of equal values;
    a splitter block's predecessors under each label are moved to the front
    of their blocks, and every block they cut splits there.  When a block
    that already served as a splitter splits, only its smaller half is
    queued, so a state joins O(log n) splitters and the whole run is
    O(m log n) for m transitions."""
    ids: Dict[object, int] = {}
    block = [ids.setdefault(v, len(ids)) for v in machine.values]
    sizes = [0] * len(ids)
    for b in block:
        sizes[b] += 1
    # block b holds elems[start[b]:end[b]]; state q sits at elems[loc[q]]
    elems = sorted(range(len(block)), key=block.__getitem__)
    loc = [0] * len(block)
    for i, q in enumerate(elems):
        loc[q] = i
    end = list(accumulate(sizes))
    start = [e - size for e, size in zip(end, sizes)]
    marked = [0] * len(sizes)   # a block's marked states fill its front
    preds = []
    for a in machine.alphabet:
        into: List[List[int]] = [[] for _ in block]
        for p, q in enumerate(map(itemgetter(a), machine.steps)):
            into[q].append(p)
        preds.append(into)

    # steps are total, so a partition stable under the whole set and every
    # other block is stable under the largest one: it is not queued
    waiting = sorted(range(len(sizes)), key=sizes.__getitem__)[:-1]
    queued = [False] * len(sizes)
    for b in waiting:
        queued[b] = True
    while waiting:
        s = waiting.pop()
        queued[s] = False
        splitter = elems[start[s]:end[s]]
        for into in preds:
            touched = []
            for q in splitter:
                for p in into[q]:
                    b = block[p]
                    k = marked[b]
                    if not k:
                        touched.append(b)
                    marked[b] = k + 1
                    i, j = start[b] + k, loc[p]
                    r = elems[i]
                    elems[i], elems[j], loc[p], loc[r] = p, r, i, j
            for b in touched:
                k, marked[b] = marked[b], 0
                lo = start[b]
                if lo + k == end[b]:
                    continue
                # the marked front becomes block c, the rest stays b
                c = len(start)
                start.append(lo)
                end.append(lo + k)
                start[b] = lo + k
                marked.append(0)
                for p in elems[lo:lo + k]:
                    block[p] = c
                if queued[b] or k <= end[b] - start[b]:
                    waiting.append(c)
                    queued.append(True)
                else:
                    waiting.append(b)
                    queued[b] = True
                    queued.append(False)

    ids = {}
    return tuple(ids.setdefault(b, len(ids)) for b in block)


# ---------------------------------------------------------------------------
# Output coarsenings along semantic inclusions
# ---------------------------------------------------------------------------

def coarsen_failure_to_ctrace(v: Output, alphabet: Tuple[str, ...]) -> Output:
    """A failure-family output is a completed trace exactly when the whole
    alphabet is refusable."""
    if v.kind != "family":
        raise VariantMismatch("expected a family output")
    return Output("bit", 1 if full_mask(alphabet) in v.value else 0)


def coarsen_ready_to_failure(v: Output, alphabet: Tuple[str, ...]) -> Output:
    """Failure family induced by a ready family: everything disjoint from some
    member's enabled set."""
    if v.kind != "family":
        raise VariantMismatch("expected a family output")
    return Output("family", antichain_to_downset(v.value, alphabet))
