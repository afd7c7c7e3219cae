"""Minimal Moore machines by double reversal.

Reversing a decorated system and determinising yields a machine whose states
are output-valued coordinate vectors; doing this twice — once over the base
system, once over the intermediate machine — produces the minimal machine for
the original behaviour (reachable and fully distinguishable), without ever
determinising the input forwards.  Two minimal machines realise the same
behaviour exactly when they are isomorphic, which equal canonical numberings
by ``explore`` decide.

Both passes run over raw output values: a reversal state is a tuple of
ints (or TOP), one per coordinate, a step ORs them, and equal tuples are
equal states.  :class:`Output` values are built only at the boundary, in
``LazyReversal.output`` and the views of the machines built here.
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
from .lts import StateSet, join_at, mask_bits, mask_flags
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


def reverse_determinize(d: DecoratedLts, inits: StateSet) -> LazyReversal:
    """First reversal pass, straight off the decorated system.

    Coordinates range over the base states forward-reachable from ``inits``
    (unreachable coordinates can never influence an output, so dropping them
    preserves the realised behaviour).  The initial vector is the output
    decoration itself; a step joins each coordinate's successor coordinates,
    with TOP rows forcing the top output.  Each label's rows are resolved to
    coordinate positions once, through the row's :func:`mask_flags` (rows of
    reachable states reach only reachable states)."""
    inits = to_mask(inits)
    domain = mask_bits(_forward_reachable(d, inits))
    pos = [0] * d.n_states
    for i, x in enumerate(domain):
        pos[x] = i
    initial = tuple(d.values[x] for x in domain)
    init_pos = tuple(compress(pos, mask_flags(inits)))
    rows: Dict[EffLabel, Tuple[object, ...]] = {}
    for label in d.eff_alphabet:
        label_rows = d.masks[label]
        rows[label] = tuple(TOP if label_rows[x] is TOP
                            else tuple(compress(pos, mask_flags(label_rows[x])))
                            for x in domain)

    def step(state: FunctionState, label: EffLabel) -> FunctionState:
        return tuple([TOP if row is TOP else join_at(state, row) for row in rows[label]])

    return LazyReversal(d.semantics, d.eff_alphabet, initial, partial(join_at, indices=init_pos),
                        step, d.decode)


def reverse_determinize_moore(m: MooreMachine, init: int) -> LazyReversal:
    """Second reversal pass, over an explicit machine: coordinates range over
    the machine's states, the initial vector is its raw output assignment,
    and the reversal's output reads the coordinate of ``init``.  A step is a
    gather: coordinate ``q`` takes the coordinate of ``q``'s successor."""
    gathers = {label: itemgetter(*(row[label] for row in m.steps)) for label in m.alphabet}
    if m.n_states == 1:  # itemgetter with one index returns the item, not a tuple
        def step(state: FunctionState, label: EffLabel) -> FunctionState:
            return (gathers[label](state),)
    else:
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
