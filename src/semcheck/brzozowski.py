"""Minimal Moore machines by double reversal.

Reversing a decorated system and determinising yields a machine whose states
are output-valued coordinate vectors; doing this twice — once over the base
system, once over the intermediate machine — produces the minimal machine for
the original behaviour (reachable and fully distinguishable), without ever
determinising the input forwards.  Two minimal machines realise the same
behaviour exactly when they are isomorphic, which a synchronous traversal
decides.

Both passes run over small-int output ids: each run interns the outputs it
meets in one table and memoises joins on id pairs, so a reversal state is a
tuple of ints, hashed and compared as such.  Every coordinate is a join of
decorated outputs, so for the downward-closed semantics it is a downset,
which is already canonical: no antichain compaction is needed to recognise
a revisit.  Outputs become :class:`Output` values again only at the
boundary, in ``LazyReversal.output`` and in the machines
:func:`explicit_reversal` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Callable, Dict, List, Sequence, Tuple

from .decorations import (
    TOP,
    DecoratedLts,
    EffLabel,
    Output,
    VariantMismatch,
    bottom_output,
    compact_output,  # noqa: F401  not called; perfbench counts brzozowski.compact_output
    join_outputs,
)
from .lts import StateSet, mask_bits, mask_flags
from .moore import DEFAULT_CAP, MooreMachine, explore, to_mask

#: A reversal state: one interned output id per (reachable) base state.
FunctionState = Tuple[int, ...]


class _OutputTable:
    """The outputs one reversal meets, interned to small ints (bottom is 0),
    with joins memoised on id pairs.  ``join`` takes two distinct ids other
    than bottom: joins are idempotent and bottom is their identity, so
    callers settle those cases without a lookup."""

    def __init__(self, kind: str):
        self.values: List[Output] = []
        self.ids: Dict[Output, int] = {}
        self.joins: Dict[Tuple[int, int], int] = {}
        self.intern(bottom_output(kind))

    def intern(self, v: Output) -> int:
        i = self.ids.get(v)
        if i is None:
            i = self.ids[v] = len(self.values)
            self.values.append(v)
        return i

    def join(self, i: int, j: int) -> int:
        pair = (i, j) if i < j else (j, i)
        k = self.joins.get(pair)
        if k is None:
            k = self.joins[pair] = self.intern(join_outputs(self.values[i], self.values[j]))
        return k


@dataclass
class LazyReversal:
    """A reversal machine evaluated on demand.

    States are tuples of output ids, one per coordinate; ``values`` maps an
    id back to its :class:`Output`.  ``initial`` is the vector the reversal
    starts from, ``step`` evaluates one transition on ids, and ``output``
    returns the :class:`Output` a state yields."""

    semantics: str
    alphabet: Tuple[EffLabel, ...]
    initial: FunctionState
    output: Callable[[FunctionState], Output]
    step: Callable[[FunctionState, EffLabel], FunctionState]
    values: List[Output]

    def behavior(self, word: Sequence[EffLabel]) -> Output:
        state = self.initial
        for label in word:
            state = self.step(state, label)
        return self.output(state)


def _forward_reachable(d: DecoratedLts, inits: int) -> int:
    """The mask of the base states reachable from ``inits`` (TOP rows lead
    nowhere)."""
    seen = frontier = inits
    rows = list(d.masks.values())
    while frontier:
        succ = 0
        for x in mask_bits(frontier):
            for label_rows in rows:
                row = label_rows[x]
                if row is not TOP:
                    succ |= row
        frontier = succ & ~seen
        seen |= frontier
    return seen


def reverse_determinize(d: DecoratedLts, inits: StateSet) -> LazyReversal:
    """First reversal pass, straight off the decorated system.

    Coordinates range over the base states forward-reachable from ``inits``
    (unreachable coordinates can never influence an output, so dropping them
    preserves the realised behaviour).  The initial vector is the output
    decoration itself; a step joins each coordinate's successor coordinates,
    with TOP rows forcing the top output.  Each label's rows are resolved to
    coordinate positions once, by picking from a state -> position table
    through the row's :func:`mask_flags` (rows of reachable states reach
    only reachable states), so a step only folds ids."""
    table = _OutputTable(d.output_kind)
    inits = to_mask(inits)
    domain = mask_bits(_forward_reachable(d, inits))
    pos = [0] * d.n_states
    for i, x in enumerate(domain):
        pos[x] = i
    initial = tuple(table.intern(d.outputs[x]) for x in domain)
    init_pos = tuple(compress(pos, mask_flags(inits)))
    rows: Dict[EffLabel, Tuple[object, ...]] = {}
    for label in d.eff_alphabet:
        label_rows = d.masks[label]
        rows[label] = tuple(TOP if label_rows[x] is TOP
                            else tuple(compress(pos, mask_flags(label_rows[x])))
                            for x in domain)
    top = (table.intern(Output("top_or_family", TOP))
           if any(r is TOP for label_rows in rows.values() for r in label_rows) else None)
    join = table.join

    def fold(state: FunctionState, row: Tuple[int, ...]) -> int:
        acc = 0  # bottom, the identity of every join
        for p in row:
            v = state[p]
            if v != acc:
                acc = join(acc, v) if acc else v
        return acc

    def output(state: FunctionState) -> Output:
        return table.values[fold(state, init_pos)]

    def step(state: FunctionState, label: EffLabel) -> FunctionState:
        return tuple([top if row is TOP else fold(state, row) for row in rows[label]])

    return LazyReversal(d.semantics, d.eff_alphabet, initial, output, step, table.values)


def reverse_determinize_moore(m: MooreMachine, init: int) -> LazyReversal:
    """Second reversal pass, over an explicit machine: coordinates range over
    the machine's states, the initial vector is its output assignment, and the
    reversal's output reads the coordinate of ``init``.  A step is a gather:
    coordinate ``q`` takes the coordinate of ``q``'s successor."""
    table = _OutputTable(m.outputs[0].kind)
    initial = tuple(table.intern(v) for v in m.outputs)
    gathers = {label: itemgetter(*(row[label] for row in m.steps)) for label in m.alphabet}

    def output(state: FunctionState) -> Output:
        return table.values[state[init]]

    if m.n_states == 1:  # itemgetter with one index returns the item, not a tuple
        def step(state: FunctionState, label: EffLabel) -> FunctionState:
            return (gathers[label](state),)
    else:
        def step(state: FunctionState, label: EffLabel) -> FunctionState:
            return gathers[label](state)

    return LazyReversal(m.semantics, m.alphabet, initial, output, step, table.values)


def explicit_reversal(lazy: LazyReversal, cap: int, stage: str) -> MooreMachine:
    """Materialise the reachable part of a lazy reversal breadth-first
    (labels in alphabet order); raises :class:`CapExceeded` naming ``stage``.
    The machine's outputs and state keys are :class:`Output` values."""
    states, steps, _ = explore([lazy.initial], lazy.step, lazy.alphabet, cap, stage)
    outputs = [lazy.output(s) for s in states]
    values = lazy.values
    keys = [tuple(values[i] for i in s) for s in states]
    return MooreMachine(lazy.semantics, lazy.alphabet, outputs, steps, [0], keys)


def brzozowski_minimize(d: DecoratedLts, inits: StateSet,
                        cap: int = DEFAULT_CAP) -> Tuple[MooreMachine, MooreMachine]:
    """Minimal machine for the behaviour of ``inits``, via double reversal.

    Returns ``(intermediate, minimal)``: the machine after the first reversal
    (whose size is the interesting cost measure) and the final minimal one."""
    first = explicit_reversal(reverse_determinize(d, inits), cap, "reverse pass 1")
    second = explicit_reversal(
        reverse_determinize_moore(first, first.inits[0]),
        cap, "reverse pass 2")
    return first, second


def moore_isomorphic(m1: MooreMachine, m2: MooreMachine) -> bool:
    """Whether a synchronous traversal from the initial states induces a
    bijection preserving outputs and steps.  Demands equal alphabets."""
    if m1.alphabet != m2.alphabet:
        raise VariantMismatch("cannot compare machines over different alphabets")
    if m1.n_states != m2.n_states:
        return False
    fwd: Dict[int, int] = {}
    bwd: Dict[int, int] = {}
    queue = [(m1.inits[0], m2.inits[0])]
    qi = 0
    while qi < len(queue):
        p, q = queue[qi]
        qi += 1
        if p in fwd or q in bwd:
            if fwd.get(p) != q or bwd.get(q) != p:
                return False
            continue
        if m1.outputs[p] != m2.outputs[q]:
            return False
        fwd[p], bwd[q] = q, p
        for label in m1.alphabet:
            queue.append((m1.steps[p][label], m2.steps[q][label]))
    return len(fwd) == m1.n_states


def equiv_via_minimization(d: DecoratedLts, left: StateSet, right: StateSet,
                           cap: int = DEFAULT_CAP) -> bool:
    """Behavioural equality of two state sets, decided by minimising both and
    testing isomorphism."""
    _, minimal_left = brzozowski_minimize(d, left, cap)
    _, minimal_right = brzozowski_minimize(d, right, cap)
    return moore_isomorphic(minimal_left, minimal_right)
