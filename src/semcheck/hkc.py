"""Equivalence checking by product walks, plain and up to congruence.

Both back ends are one breadth-first walk over pairs of determinised states
(``product_walk``) that never builds the determinised machine; they differ
only in which pairs they skip.  The naive walk skips pairs it has already
related.  The congruence check skips pairs that already lie in the
congruence closure of the pairs collected so far, which prunes the search
exponentially on systems whose subset construction blows up.  The closure is
computed by saturating a set with the collected pairs (join a pair's other
component whenever one component is dominated) until a fixpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .decorations import TOP, DecoratedLts, EffLabel
from .moore import DEFAULT_CAP, CapExceeded, DetState, det_output, det_step


def _leq(a: DetState, b: DetState) -> bool:
    """Set inclusion extended with an absorbing top element."""
    if b is TOP:
        return True
    if a is TOP:
        return False
    return a <= b


def _join(a: DetState, b: DetState) -> DetState:
    if a is TOP or b is TOP:
        return TOP
    return a | b


def saturate(pairs: Sequence[Tuple[DetState, DetState]], z: DetState) -> DetState:
    """Least fixpoint of widening ``z`` by the given pairs: whenever one
    component of a pair is dominated by ``z``, join in the other component."""
    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            if _leq(u, z) and not _leq(v, z):
                z = _join(z, v)
                changed = True
            if _leq(v, z) and not _leq(u, z):
                z = _join(z, u)
                changed = True
    return z


def in_congruence(pairs: Sequence[Tuple[DetState, DetState]],
                  left: DetState, right: DetState) -> bool:
    """Whether ``(left, right)`` lies in the congruence closure of ``pairs``
    (both sides saturate to the same set)."""
    return saturate(pairs, left) == saturate(pairs, right)


Pair = Tuple[DetState, DetState]


def product_walk(d: DecoratedLts, left: DetState, right: DetState, cap: float,
                 prune: Callable[[Pair, List[Pair], List[Pair], int], bool]
                 ) -> Tuple[bool, List[Pair], int, Optional[Tuple[EffLabel, ...]]]:
    """Breadth-first walk over pairs of determinised states from ``(left, right)``.

    Pairs are dequeued first-in-first-out.  A pair for which
    ``prune(pair, relation, todo, qi)`` holds is skipped (``todo[qi:]`` are
    the pairs still waiting); any other must agree on its output, joins the
    relation and pushes its successor pairs in alphabet order.  Returns
    ``(equal, relation, pairs_processed, counterexample)``; the counterexample
    is the discovery path of the first pair found to disagree.  Raises
    :class:`CapExceeded` once more than ``cap`` distinct pairs would be
    discovered."""
    todo: List[Pair] = [(left, right)]
    parent: Dict[Pair, Optional[Tuple[Pair, EffLabel]]] = {todo[0]: None}
    relation: List[Pair] = []
    qi = 0
    while qi < len(todo):
        pair = todo[qi]
        qi += 1
        if prune(pair, relation, todo, qi):
            continue
        l, r = pair
        if det_output(d, l) != det_output(d, r):
            word: List[EffLabel] = []
            node = parent[pair]
            while node is not None:
                pair, label = node
                word.append(label)
                node = parent[pair]
            return False, relation, qi, tuple(reversed(word))
        for label in d.eff_alphabet:
            succ = (det_step(d, l, label), det_step(d, r, label))
            if succ not in parent:
                if len(parent) >= cap:
                    raise CapExceeded("pair exploration", len(parent))
                parent[succ] = (pair, label)
            todo.append(succ)
        relation.append(pair)
    return True, relation, qi, None


def naive_bisim(d: DecoratedLts, left: DetState, right: DetState,
                cap: int = DEFAULT_CAP):
    """Breadth-first bisimulation on the determinised machine.

    Returns ``(True, relation)`` where ``relation`` lists the processed state
    pairs in discovery order, or ``(False, word)`` with a distinguishing word.
    At most ``cap`` distinct pairs are discovered."""
    seen: Set[Pair] = set()

    def already_related(pair: Pair, relation, todo, qi) -> bool:
        if pair in seen:
            return True
        seen.add(pair)
        return False

    equal, relation, _, word = product_walk(d, left, right, cap, already_related)
    return (True, relation) if equal else (False, word)


@dataclass
class HkcReport:
    """Outcome of a congruence-based equivalence check."""

    equal: bool
    relation: List[Pair]
    pairs_processed: int
    counterexample: Optional[Tuple[EffLabel, ...]]


def hkc_check(d: DecoratedLts, left: DetState, right: DetState,
              cap: int = DEFAULT_CAP) -> HkcReport:
    """Decide determinised equality of ``left`` and ``right``.

    The naive walk, pruned by congruence: a pair is skipped when it lies in
    the congruence closure of the relation and the pairs still waiting.
    Pairs are processed first-in-first-out and successors pushed in alphabet
    order, so the relation returned for a fixed input is reproducible.  On
    failure the counterexample word distinguishes the two behaviours.  At
    most ``cap`` pairs are processed, pruned ones included; each processed
    pair discovers at most one pair per label, so the walk needs no bound of
    its own."""
    def up_to_congruence(pair: Pair, relation, todo, qi) -> bool:
        if qi > cap:
            raise CapExceeded("pair exploration", qi)
        return in_congruence(relation + todo[qi:], *pair)

    return HkcReport(*product_walk(d, left, right, math.inf, up_to_congruence))


def preorder_check(d: DecoratedLts, semantics: str, x: int, y: int,
                   cap: int = DEFAULT_CAP) -> HkcReport:
    """Testing preorders as determinised equalities over joined state sets.

    may:  x below y iff joining x onto y leaves y's behaviour unchanged;
    must: x below y iff joining y onto x leaves x's behaviour unchanged.
    """
    if semantics not in ("may", "must"):
        raise ValueError(f"preorders are defined for may/must, not {semantics!r}")
    if d.semantics != semantics:
        raise ValueError(f"system decorated for {d.semantics!r}, expected {semantics!r}")
    joined = frozenset({x, y})
    if semantics == "may":
        return hkc_check(d, joined, frozenset({y}), cap)
    return hkc_check(d, joined, frozenset({x}), cap)
