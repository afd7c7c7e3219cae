"""Equivalence checking by product walks, plain and up to congruence.

Both back ends are one breadth-first walk over pairs of determinised states
(``product_walk``) that never builds the determinised machine; they differ
only in which pairs they skip.  The naive walk skips pairs it has already
related.  The congruence check skips pairs that already lie in the
congruence closure of the pairs collected so far, which prunes the search
exponentially on systems whose subset construction blows up.

The closure is Horn-clause propagation (Dowling & Gallier 1984): each pair
``(u, v)`` is the two rules ``u => v`` and ``v => u``, and saturating a set
fires every rule whose premise it covers until none adds anything.
``Generators`` keeps one index of those rules for a whole check: every rule
waits on one premise state, and when that state joins the set being
saturated the rule either fires or moves to a premise state still missing.
A saturation therefore touches only the rules of states it reaches, and the
index is updated as pairs are queued and dequeued instead of being rebuilt
for every pair.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .decorations import TOP, DecoratedLts, EffLabel
from .lts import mask_bits
from .moore import (DEFAULT_CAP, CapExceeded, DetState, det_step, det_value,
                    to_mask, to_stateset)
from .moore import det_output  # noqa: F401  not called; perfbench counts hkc.det_output

Pair = Tuple[DetState, DetState]


def _covers(z: DetState, goal: DetState) -> bool:
    """Whether ``goal`` lies below ``z``, with TOP above every set."""
    return z is TOP or (goal is not TOP and not goal & ~z)


class Generators:
    """A multiset of pairs, indexed as the Horn rules of their congruence.

    Each distinct pair ``(u, v)`` contributes ``u => v`` and ``v => u``; both
    fire only while the pair's multiplicity is positive.  States are masks (or
    TOP).  A rule sits in the watch list of one of its premise states, at
    first the highest; a rule with an empty premise sits under -1, which every
    saturation visits.  A saturation that meets a rule of a pair no longer
    live parks the rule on the pair until the pair is added again.  A rule
    with a TOP premise fires only from TOP, where nothing is left to add, and
    a rule whose conclusion lies inside its premise adds nothing, so neither
    is indexed.  A TOP conclusion makes the saturated set TOP."""

    def __init__(self, pairs: Iterable[Pair] = ()):
        # pair -> [multiplicity, parked rules], the cell of the pair's rules
        self._live: Dict[Pair, list] = {}
        self._watch: Dict[int, List[tuple]] = defaultdict(list)
        for pair in pairs:
            self.add(pair)

    def add(self, pair: Pair) -> None:
        cell = self._live.get(pair)
        if cell is None:
            cell = self._live[pair] = [0, []]
            u, v = pair
            for premise, conclusion in ((u, v), (v, u)):
                if premise is TOP or _covers(premise, conclusion):
                    continue
                cell[1].append((premise, conclusion, cell))
        if not cell[0]:
            # back to life: index the rules a closure parked while it was dead
            for rule in cell[1]:
                self._watch[rule[0].bit_length() - 1].append(rule)
            cell[1].clear()
        cell[0] += 1

    def remove(self, pair: Pair) -> None:
        self._live[pair][0] -= 1

    def __contains__(self, pair: Pair) -> bool:
        cell = self._live.get(pair)
        return cell is not None and cell[0] > 0

    def close(self, z: DetState, goal: Optional[DetState] = None) -> DetState:
        """The least set above ``z`` closed under the live rules; with a
        ``goal``, stop as soon as the set covers it."""
        if z is TOP or (goal is not None and _covers(z, goal)):
            return z
        # 0 never stops the walk early: an empty goal is covered before it
        wanted = 0 if goal is None or goal is TOP else goal
        acc = z
        queue = [*mask_bits(z), -1]
        watch = self._watch
        while queue:
            rules = watch.get(queue.pop())
            if not rules:
                continue
            kept = []
            for i, rule in enumerate(rules):
                premise, conclusion, cell = rule
                if not cell[0]:
                    cell[1].append(rule)   # parked until the pair is added again
                    continue
                missing = premise & ~acc
                if missing:
                    # watch the highest premise state not reached yet
                    watch[missing.bit_length() - 1].append(rule)
                    continue
                kept.append(rule)
                if conclusion is TOP:
                    acc = TOP
                    break
                new = conclusion & ~acc
                if new:
                    acc |= new
                    queue.extend(mask_bits(new))
                    if wanted and not wanted & ~acc:
                        break
            else:
                rules[:] = kept
                continue
            rules[:] = kept + rules[i + 1:]   # TOP or goal covered: the rest stay watched
            return acc
        return acc


def _index(pairs: Iterable[Pair]) -> Generators:
    """A live index as it is; a sequence of pairs indexed as masks."""
    return pairs if isinstance(pairs, Generators) else Generators(
        (to_mask(u), to_mask(v)) for u, v in pairs)


def saturate(pairs: Iterable[Pair], z: DetState,
             goal: Optional[DetState] = None) -> DetState:
    """Least fixpoint of widening ``z`` by the given pairs: whenever one
    component of a pair is dominated by ``z``, join in the other component.

    ``pairs`` is a sequence of pairs or a live :class:`Generators` index.
    With a ``goal``, the widening stops as soon as it covers ``goal``, so the
    result covers ``goal`` exactly when the fixpoint does.  States are masks
    or frozensets: this and ``in_congruence`` convert them, so the index sees
    masks only.  Given a frozenset ``z``, the result is a frozenset (or TOP)."""
    acc = _index(pairs).close(to_mask(z), None if goal is None else to_mask(goal))
    return acc if type(z) is int else to_stateset(acc)


def in_congruence(pairs: Iterable[Pair], left: DetState, right: DetState) -> bool:
    """Whether ``(left, right)`` lies in the congruence closure of ``pairs``.

    ``pairs`` is a sequence of pairs or a live :class:`Generators` index.
    Saturation is a closure operator, so both sides saturate to the same set
    exactly when each side lies below the other's saturation; each side's
    widening stops as soon as it covers the other side."""
    gens = _index(pairs)
    left, right = to_mask(left), to_mask(right)
    return (_covers(saturate(gens, left, right), right)
            and _covers(saturate(gens, right, left), left))


def product_walk(d: DecoratedLts, left: DetState, right: DetState, cap: float,
                 prune: Callable[[Pair, List[Pair], List[Pair], int], bool]
                 ) -> Tuple[bool, List[Pair], int, Optional[Tuple[EffLabel, ...]]]:
    """Breadth-first walk over pairs of determinised states from ``(left, right)``.

    ``left`` and ``right`` are masks or frozensets, and the walk keeps their
    representation: ``det_step`` answers in kind.  Outputs are compared as
    raw values, which are equal exactly when the outputs are.  Pairs
    are dequeued first-in-first-out.  A pair for which
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
        if det_value(d, l) != det_value(d, r):
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
                    raise CapExceeded("pair exploration", len(parent), "pairs")
                parent[succ] = (pair, label)
            todo.append(succ)
        relation.append(pair)
    return True, relation, qi, None


def naive_bisim(d: DecoratedLts, left: DetState, right: DetState,
                cap: int = DEFAULT_CAP):
    """Breadth-first bisimulation on the determinised machine.

    Returns ``(True, relation)`` where ``relation`` lists the processed state
    pairs in discovery order, as frozensets (or TOP), or ``(False, word)``
    with a distinguishing word.  At most ``cap`` distinct pairs are
    discovered."""
    seen: Set[Pair] = set()

    def already_related(pair: Pair, relation, todo, qi) -> bool:
        if pair in seen:
            return True
        seen.add(pair)
        return False

    equal, relation, _, word = product_walk(d, to_mask(left), to_mask(right), cap,
                                            already_related)
    return (True, _stateset_pairs(relation)) if equal else (False, word)


def _stateset_pairs(relation: List[Pair]) -> list:
    return [(to_stateset(l), to_stateset(r)) for l, r in relation]


@dataclass
class HkcReport:
    """Outcome of a congruence-based equivalence check; the relation's states
    are frozensets (or TOP)."""

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
    most ``cap`` distinct pairs are discovered, the walk's one budget.
    ``pairs_processed`` counts pruned duplicates too, so it may exceed
    ``cap``, but never 1 + |labels| × ``cap``."""
    gens = Generators()
    queued = 0   # todo[:queued] has been added to gens

    def up_to_congruence(pair: Pair, relation, todo, qi) -> bool:
        nonlocal queued
        for p in todo[queued:]:
            gens.add(p)
        queued = len(todo)
        gens.remove(pair)   # dequeued: the live pairs are relation + todo[qi:]
        if pair in gens or in_congruence(gens, *pair):
            return True
        gens.add(pair)   # it joins the relation, or the walk ends on its output
        return False

    equal, relation, processed, word = product_walk(
        d, to_mask(left), to_mask(right), cap, up_to_congruence)
    return HkcReport(equal, _stateset_pairs(relation), processed, word)


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
    joined = 1 << x | 1 << y
    if semantics == "may":
        return hkc_check(d, joined, 1 << y, cap)
    return hkc_check(d, joined, 1 << x, cap)
