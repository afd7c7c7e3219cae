"""Generalised subset construction over a decorated LTS.

A decorated system determinises into a Moore machine whose states are sets of
base states (plus an absorbing TOP under must testing): outputs join pointwise
and steps are unions of rows.  This module provides lazy evaluation of that
machine (``det_output`` / ``det_step`` / ``behavior``), the interning search
(``explore``) that builds the reachable part of it and of the reversal
machines, and partition refinement to the coarsest quotient.

A set of base states is an int mask, bit ``x`` standing for state ``x``, so a
step is an OR of row masks.  Frozensets appear only at the boundary:
``det_step``, ``det_output`` and ``behavior`` given a frozenset answer in
frozensets, and ``reachable_machine`` records its states as frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple, Union)

from .decorations import (
    BOTTOM_VALUE,
    DEFAULT_CAP,
    TOP,
    DecoratedLts,
    EffLabel,
    Output,
    Top,
    VariantMismatch,
    join_outputs,  # noqa: F401  not called; perfbench counts moore.join_outputs
)
from .lts import StateSet, full_mask, mask_bits, mask_states, state_mask, submasks

#: A determinised state: the mask of a set of base states, or the absorbing
#: top element (must testing only).  Probabilistic systems determinise into
#: distributions instead; those live in :mod:`semcheck.gps` as
#: ``Distribution``.
DetState = Union[int, Top]


def to_mask(state: Union[DetState, StateSet]) -> DetState:
    """A determinised state as a mask; a frozenset (or any iterable of
    states) is converted, masks and TOP pass through."""
    return state if state is TOP or type(state) is int else state_mask(state)


def to_stateset(state: DetState) -> Union[StateSet, Top]:
    """The frozenset a mask stands for; TOP stays TOP."""
    return state if state is TOP else mask_states(state)


class CapExceeded(RuntimeError):
    """State-count budget exhausted during an explicit construction."""

    def __init__(self, stage: str, states_built: int):
        self.stage = stage
        self.states_built = states_built
        super().__init__(f"{stage}: exceeded cap after building {states_built} states")


def det_output(d: DecoratedLts, state: Union[DetState, StateSet]) -> Output:
    """Pointwise join of the member states' outputs (bottom for the empty set;
    the TOP state is only meaningful under must testing)."""
    kind = d.output_kind
    if state is TOP:
        if kind != "top_or_family":
            raise VariantMismatch("TOP state outside must semantics")
        return Output(kind, TOP)
    values = d.values
    acc = BOTTOM_VALUE[kind]
    for x in mask_bits(state if type(state) is int else state_mask(state)):
        acc = acc | values[x]   # TOP absorbs
    return Output(kind, acc)


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
    acc = 0
    for x in mask_bits(state):
        row = rows[x]
        if row is TOP:
            return TOP
        acc |= row
    return acc


def behavior(d: DecoratedLts, state: DetState, word: Iterable[EffLabel]) -> Output:
    """Output after running ``word`` from ``state`` in the determinised machine."""
    for label in word:
        state = det_step(d, state, label)
    return det_output(d, state)


@dataclass
class MooreMachine:
    """An explicit finite Moore machine with total transitions.

    ``state_keys`` records what each state index denotes (a frozenset or TOP
    for subset constructions, a coordinate tuple for reversal passes) so callers
    can inspect the construction; ``inits`` aligns with the initial states the
    machine was built from, in order.
    """

    semantics: str
    alphabet: Tuple[EffLabel, ...]
    outputs: List[Output]
    steps: List[Dict[EffLabel, int]]
    inits: List[int]
    state_keys: List[object] = field(default_factory=list)

    @property
    def n_states(self) -> int:
        return len(self.outputs)

    def run(self, word: Iterable[EffLabel], start: Optional[int] = None) -> Output:
        q = self.inits[0] if start is None else start
        for label in word:
            q = self.steps[q][label]
        return self.outputs[q]


def explore(inits: Sequence[Hashable], step: Callable[[Hashable, EffLabel], Hashable],
            alphabet: Sequence[EffLabel], cap: int,
            stage: str) -> Tuple[List[Hashable], List[Dict[EffLabel, int]], List[int]]:
    """First-in-first-out interning search over ``step`` from ``inits``.

    States are numbered in discovery order, successors taken in alphabet
    order; equal states are one, so states must be hashable and canonical.
    Returns the stored states, one step row per state and the indices of
    ``inits``.  Raises :class:`CapExceeded` naming ``stage`` once more than
    ``cap`` states would be stored."""
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
    for s in states:  # the list grows while it is walked: that is the queue
        steps.append({label: intern(step(s, label)) for label in alphabet})
    return states, steps, init_idx


def reachable_machine(d: DecoratedLts, inits: Sequence[Union[DetState, StateSet]],
                      cap: int = DEFAULT_CAP) -> MooreMachine:
    """Breadth-first construction of the determinised machine reachable from
    ``inits`` (labels explored in alphabet order).  Raises :class:`CapExceeded`
    once more than ``cap`` states would be materialised."""
    keys, steps, init_idx = explore([to_mask(s) for s in inits],
                                    lambda s, a: det_step(d, s, a),
                                    d.eff_alphabet, cap, "determinisation")
    outputs = [det_output(d, s) for s in keys]
    return MooreMachine(d.semantics, d.eff_alphabet, outputs, steps, init_idx,
                        [to_stateset(s) for s in keys])


def moore_partition_classes(machine: MooreMachine) -> Tuple[int, ...]:
    """Coarsest output-and-step-respecting partition of the machine's states,
    as block identifiers numbered by first occurrence."""
    def renumber(sig: List[object]) -> Tuple[int, ...]:
        ids: Dict[object, int] = {}
        return tuple(ids.setdefault(s, len(ids)) for s in sig)

    blocks = renumber(machine.outputs)
    while True:
        sig = [(blocks[q],
                tuple(blocks[machine.steps[q][a]] for a in machine.alphabet))
               for q in range(machine.n_states)]
        refined = renumber(sig)
        if refined == blocks:
            return blocks
        blocks = refined


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
    full = full_mask(alphabet)
    acc: set = set()
    for ready in v.value:
        acc.update(submasks(full & ~ready))
    return Output("family", frozenset(acc))
