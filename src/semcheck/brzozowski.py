"""Minimal Moore machines by double reversal.

Reversing a decorated system and determinising yields a machine whose states
are output-valued coordinate vectors; doing this twice — once over the base
system, once over the intermediate machine — produces the minimal machine for
the original behaviour (reachable and fully distinguishable), without ever
determinising the input forwards.  Two minimal machines realise the same
behaviour exactly when they are isomorphic, which equal canonical numberings
by ``explore`` decide.

Both passes run over raw output values: a reversal state is a tuple of
ints (or TOP), one per coordinate, and equal tuples are equal states.  A
step is a gather, each coordinate taking one coordinate of the vector,
except that in the first pass a coordinate whose row keeps two or more
members ORs them.  :class:`Output` values are built only at the boundary,
in ``LazyReversal.output`` and the views of the machines built here.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import compress
from operator import itemgetter
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .decorations import (
    TOP,
    DecoratedLts,
    EffLabel,
    Output,
    Value,
    VariantMismatch,
    compact_output,  # noqa: F401  not called; perfbench counts brzozowski.compact_output
    join_outputs,  # noqa: F401  not called; perfbench counts brzozowski.join_outputs
)
from .lts import StateSet, join_at, mask_bits, mask_flags, root_bits
from .moore import DEFAULT_CAP, MooreMachine, explore, to_mask

#: A reversal state: one raw output value per (reachable) base state.
FunctionState = Tuple[Value, ...]


class LazyReversal(NamedTuple):
    """A reversal machine evaluated on demand, over tuples of raw output
    values: ``step`` evaluates one transition, ``value`` gives a state's raw
    output and ``decode`` turns that into its :class:`Output`."""

    semantics: str
    alphabet: Tuple[EffLabel, ...]
    initial: FunctionState
    value: Callable[[FunctionState], object]
    step: Callable[[FunctionState, EffLabel], FunctionState]
    decode: Callable[[object], Output]

    def output(self, state: FunctionState) -> Output:
        return self.decode(self.value(state))

    def behavior(self, word: Sequence[EffLabel]) -> Output:
        return self.output(reduce(self.step, word, self.initial))


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


def _gather(indices: Sequence[int]) -> Callable[[FunctionState], FunctionState]:
    """The C-level map ``state -> tuple(state[i] for i in indices)``.
    ``itemgetter`` with one index returns the item itself, so one index (or
    none) is read as a slice, which a tuple answers with a tuple."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


#: appended to a pass-1 vector, so a gather reads an empty row's 0 and a TOP
#: row's TOP at the two positions past its coordinates
_SENTINELS = (0, TOP)


def reverse_determinize(d: DecoratedLts, inits: StateSet) -> LazyReversal:
    """First reversal pass, straight off the decorated system.

    Coordinates range over the base states forward-reachable from ``inits``
    (unreachable coordinates can never influence an output, so dropping them
    preserves the realised behaviour).  The initial vector is the output
    decoration itself; a step joins each coordinate's successor coordinates,
    with TOP rows forcing the top output.  Each label's rows are resolved to
    coordinate positions once, at the members :func:`root_bits` keeps under
    the decoration's ``cover``, or through the row's :func:`mask_flags` where
    it keeps none (rows of reachable states reach only reachable states).  That is exact because every vector the pass reaches is
    monotone along the cover, as the initial vector is: if ``y`` is in
    ``cover[x]``, ``y``'s row lies below ``x``'s (or ``x``'s is TOP), so
    after a step ``y``'s coordinate still lies below ``x``'s, and a dropped
    successor adds nothing to a join that reads a kept one.

    A step is then one gather over the vector extended by ``_SENTINELS``:
    each coordinate takes its row's first kept position, the 0 sentinel for
    an empty row or the TOP one for a TOP row.  Only the coordinates whose
    rows keep two or more positions are joined, over the vector itself."""
    inits = to_mask(inits)
    domain = mask_bits(_forward_reachable(d, inits))
    pos = [0] * d.n_states
    for i, x in enumerate(domain):
        pos[x] = i
    initial = tuple(d.values[x] for x in domain)
    init_pos = tuple(compress(pos, mask_flags(inits)))
    at, cover = pos.__getitem__, d.cover
    empty, top = len(domain), len(domain) + 1

    def resolve(row: int) -> Tuple[int, ...]:
        kept = root_bits(row, cover)
        return tuple(map(at, kept)) if kept else tuple(compress(pos, mask_flags(row)))

    rows: Dict[EffLabel, Tuple[Callable[[FunctionState], FunctionState], list, list]] = {}
    for label in d.eff_alphabet:
        label_rows = d.masks[label]
        firsts, wide_at, wide_rows = [], [], []
        for x in domain:
            row = label_rows[x]
            if row is TOP:
                firsts.append(top)
                continue
            kept = resolve(row)
            firsts.append(kept[0] if kept else empty)
            if len(kept) > 1:
                wide_at.append(at(x))
                wide_rows.append(kept)
        rows[label] = _gather(firsts), wide_at, wide_rows

    def step(state: FunctionState, label: EffLabel) -> FunctionState:
        gather, wide_at, wide_rows = rows[label]
        out = gather(state + _SENTINELS)
        if not wide_at:
            return out
        out = list(out)
        for i, row in zip(wide_at, wide_rows):
            out[i] = join_at(state, row)
        return tuple(out)

    return LazyReversal(d.semantics, d.eff_alphabet, initial, partial(join_at, indices=init_pos),
                        step, d.decode)


def reverse_determinize_moore(m: MooreMachine, init: int) -> LazyReversal:
    """Second reversal pass, over an explicit machine: coordinates range over
    the machine's states, the initial vector is its raw output assignment,
    and the reversal's output reads the coordinate of ``init``.  A step is a
    gather: coordinate ``q`` takes the coordinate of ``q``'s successor."""
    gathers = {label: _gather([row[label] for row in m.steps]) for label in m.alphabet}

    def step(state: FunctionState, label: EffLabel) -> FunctionState:
        return gathers[label](state)

    return LazyReversal(m.semantics, m.alphabet, tuple(m.values), itemgetter(init), step,
                        m.decode)


def explicit_reversal(lazy: LazyReversal, cap: int, stage: str) -> MooreMachine:
    """Materialise the reachable part of a lazy reversal breadth-first
    (labels in alphabet order); raises :class:`CapExceeded` naming ``stage``.
    A state's key is its tuple of raw values; ``state_keys`` decodes it."""
    states, steps, _ = explore([lazy.initial], lazy.step, lazy.alphabet, cap, stage)
    decode = lazy.decode
    return MooreMachine(lazy.semantics, lazy.alphabet, [lazy.value(s) for s in states],
                        steps, [0], states, decode, lambda key: tuple(map(decode, key)))


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


def _canonical(m: MooreMachine, outputs: Sequence[object]) -> Optional[Tuple[list, list]]:
    """``m`` renumbered by :func:`explore` from its initial state, as its
    outputs and step rows in that order; ``None`` if some state is
    unreachable."""
    order, steps, _ = explore([m.inits[0]], lambda q, a: m.steps[q][a], m.alphabet,
                              m.n_states, "isomorphism")
    return ([outputs[q] for q in order], steps) if len(order) == m.n_states else None


def moore_isomorphic(m1: MooreMachine, m2: MooreMachine) -> bool:
    """Whether the machines are isomorphic and every state is reachable:
    ``explore`` numbers states canonically, so they are exactly when both
    numberings give equal outputs and steps.  Demands equal alphabets."""
    if m1.alphabet != m2.alphabet:
        raise VariantMismatch("cannot compare machines over different alphabets")
    if m1.n_states != m2.n_states:
        return False
    # raw values compare only within one decoding; otherwise compare outputs
    out1, out2 = ((m1.values, m2.values) if m1.decode == m2.decode
                  else (m1.outputs, m2.outputs))
    form = _canonical(m1, out1)
    return form is not None and form == _canonical(m2, out2)


def equiv_via_minimization(d: DecoratedLts, left: StateSet, right: StateSet,
                           cap: int = DEFAULT_CAP) -> bool:
    """Behavioural equality of two state sets, decided by minimising both and
    testing isomorphism."""
    _, minimal_left = brzozowski_minimize(d, left, cap)
    _, minimal_right = brzozowski_minimize(d, right, cap)
    return moore_isomorphic(minimal_left, minimal_right)
