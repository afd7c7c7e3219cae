"""Minimal Moore machines by double reversal.

Reversing a decorated system and determinising yields a machine whose states
are output-valued coordinate vectors; doing this twice — once over the base
system, once over the intermediate machine — produces the minimal machine for
the original behaviour (reachable and fully distinguishable), without ever
determinising the input forwards.  Two minimal machines realise the same
behaviour exactly when they are isomorphic, which a synchronous traversal
decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from .decorations import (
    TOP,
    DecoratedLts,
    EffLabel,
    Output,
    VariantMismatch,
    bottom_output,
    compact_output,
    join_outputs,
)
from .lts import StateSet
from .moore import DEFAULT_CAP, MooreMachine, explore

#: A reversal state: one output coordinate per (reachable) base state.
FunctionState = Tuple[Output, ...]


@dataclass
class LazyReversal:
    """A reversal machine evaluated on demand.

    ``initial`` is the coordinate vector the reversal starts from; ``output``
    and ``step`` evaluate single states; ``state_key`` gives the canonical
    (antichain-compacted) form used to detect revisits.  ``domain`` names the
    base object each coordinate belongs to."""

    semantics: str
    alphabet: Tuple[EffLabel, ...]
    domain: Tuple[object, ...]
    initial: FunctionState
    output: Callable[[FunctionState], Output]
    step: Callable[[FunctionState, EffLabel], FunctionState]
    state_key: Callable[[FunctionState], Tuple]

    def behavior(self, word: Sequence[EffLabel]) -> Output:
        state = self.initial
        for label in word:
            state = self.step(state, label)
        return self.output(state)


def _forward_reachable(d: DecoratedLts, inits: StateSet) -> Tuple[int, ...]:
    seen = set(inits)
    stack = list(inits)
    while stack:
        x = stack.pop()
        for label in d.eff_alphabet:
            row = d.transitions.get((x, label), frozenset())
            if row is TOP:
                continue
            for y in row:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return tuple(sorted(seen))


def reverse_determinize(d: DecoratedLts, inits: StateSet) -> LazyReversal:
    """First reversal pass, straight off the decorated system.

    Coordinates range over the base states forward-reachable from ``inits``
    (unreachable coordinates can never influence an output, so dropping them
    preserves the realised behaviour).  The initial vector is the output
    decoration itself; a step joins each coordinate's successor coordinates,
    with TOP rows forcing the top output."""
    kind = d.output_kind
    domain = _forward_reachable(d, inits)
    pos = {x: i for i, x in enumerate(domain)}
    initial = tuple(d.outputs[x] for x in domain)
    init_list = sorted(inits)

    def output(state: FunctionState) -> Output:
        out = bottom_output(kind)
        for x in init_list:
            out = join_outputs(out, state[pos[x]])
        return out

    def step(state: FunctionState, label: EffLabel) -> FunctionState:
        coords = []
        for x in domain:
            row = d.transitions.get((x, label), frozenset())
            if row is TOP:
                coords.append(Output("top_or_family", TOP))
            else:
                v = bottom_output(kind)
                for y in row:
                    v = join_outputs(v, state[pos[y]])
                coords.append(v)
        return tuple(coords)

    def state_key(state: FunctionState) -> Tuple:
        return tuple(compact_output(c, d.alphabet, d.semantics) for c in state)

    return LazyReversal(d.semantics, d.eff_alphabet, domain, initial,
                        output, step, state_key)


def reverse_determinize_moore(m: MooreMachine, init: int,
                              base_alphabet: Tuple[str, ...] = ()) -> LazyReversal:
    """Second reversal pass, over an explicit machine: coordinates range over
    the machine's states, the initial vector is its output assignment, and the
    reversal's output reads the coordinate of ``init``."""
    domain = tuple(range(m.n_states))
    initial = tuple(m.outputs)

    def output(state: FunctionState) -> Output:
        return state[init]

    def step(state: FunctionState, label: EffLabel) -> FunctionState:
        return tuple(state[m.steps[q][label]] for q in domain)

    def state_key(state: FunctionState) -> Tuple:
        if not base_alphabet:
            return state  # no base alphabet known: raw coordinates are canonical
        return tuple(compact_output(c, base_alphabet, m.semantics) for c in state)

    return LazyReversal(m.semantics, m.alphabet, domain, initial,
                        output, step, state_key)


def explicit_reversal(lazy: LazyReversal, cap: int, stage: str) -> MooreMachine:
    """Materialise the reachable part of a lazy reversal breadth-first
    (labels in alphabet order); raises :class:`CapExceeded` naming ``stage``."""
    states, steps, _ = explore([lazy.initial], lazy.step, lazy.state_key,
                               lazy.alphabet, cap, stage)
    outputs = [lazy.output(s) for s in states]
    return MooreMachine(lazy.semantics, lazy.alphabet, outputs, steps, [0], states)


def brzozowski_minimize(d: DecoratedLts, inits: StateSet,
                        cap: int = DEFAULT_CAP) -> Tuple[MooreMachine, MooreMachine]:
    """Minimal machine for the behaviour of ``inits``, via double reversal.

    Returns ``(intermediate, minimal)``: the machine after the first reversal
    (whose size is the interesting cost measure) and the final minimal one."""
    first = explicit_reversal(reverse_determinize(d, inits), cap, "reverse pass 1")
    second = explicit_reversal(
        reverse_determinize_moore(first, first.inits[0], d.alphabet),
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
