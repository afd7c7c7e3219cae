"""Equivalence checking by product walks, plain and up to congruence.

Both back ends are one breadth-first walk over pairs of determinised states
(``product_walk``) that never builds the determinised machine; they differ
only in which pairs they skip.  The naive walk skips pairs it has already
related.  The congruence check skips pairs that already lie in the
congruence closure of the pairs collected so far, which prunes the search
exponentially on systems whose subset construction blows up.  The walk
handles masks only: the public functions convert their start states on
entry, naive's relation comes back in kind, and the congruence check's is
decoded to frozensets only when the report's ``relation`` is read.

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
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .decorations import TOP, DecoratedLts, EffLabel, Value
from .lts import Record, join_at, mask_bits, root_bits
from .moore import DEFAULT_CAP, CapExceeded, DetState, to_mask, to_stateset
from .moore import det_output  # noqa: F401  not called; perfbench counts hkc.det_output
from .moore import det_step  # noqa: F401  not called; perfbench counts hkc.det_step

Pair = Tuple[DetState, DetState]


def _covers(z: DetState, goal: DetState) -> bool:
    """Whether ``goal`` lies below ``z``, with TOP above every set."""
    return z is TOP or (goal is not TOP and not goal & ~z)


class Generators:
    """A multiset of pairs, indexed as the Horn rules of their congruence.

    Each distinct pair ``(u, v)`` contributes ``u => v`` and ``v => u``; both
    fire only while the pair's multiplicity is positive.  ``remove`` takes
    one copy away and returns whether the pair is still live, which
    ``in``-tests too.  States are masks (or TOP).  A rule sits in the watch
    list of one of its premise states, at first the highest; a rule with an
    empty premise sits under -1, which a saturation visits while it holds
    rules.  A saturation that meets a rule of a pair no longer live parks the
    rule under the pair until the pair is added again.  The parked rules are
    kept apart from the pair's cell, which every rule of the pair holds, so
    no reference cycle forms and a check's index is freed as soon as it is
    dropped.  A rule with a TOP premise fires only from TOP, where nothing is
    left to add, and a rule whose conclusion lies inside its premise adds
    nothing, so neither is indexed.  A TOP conclusion makes the saturated
    set TOP."""

    def __init__(self, pairs: Iterable[Pair] = ()):
        # pair -> [multiplicity, pair], the cell of the pair's rules
        self._live: Dict[Pair, list] = {}
        self._watch: Dict[int, List[tuple]] = defaultdict(list)
        # pair -> the rules a closure parked while the pair was dead
        self._parked: Dict[Pair, List[tuple]] = defaultdict(list)
        for pair in pairs:
            self.add(pair)

    def add(self, pair: Pair) -> None:
        cell = self._live.get(pair)
        if cell is None:
            self._live[pair] = cell = [1, pair]
            u, v = pair
            if u is not TOP and (v is TOP or v & ~u):
                self._watch[u.bit_length() - 1].append((u, v, cell))
            if v is not TOP and (u is TOP or u & ~v):
                self._watch[v.bit_length() - 1].append((v, u, cell))
        elif cell[0]:
            cell[0] += 1
        else:
            # back to life: index the rules a closure parked while it was dead
            cell[0] = 1
            for rule in self._parked.pop(pair, ()):
                self._watch[rule[0].bit_length() - 1].append(rule)

    def remove(self, pair: Pair) -> bool:
        cell = self._live[pair]
        cell[0] -= 1
        return cell[0] > 0

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
        watch, parked = self._watch, self._parked
        queue = mask_bits(z)
        if watch.get(-1):
            queue.append(-1)
        while queue:
            rules = watch.get(queue.pop())
            if not rules:
                continue
            kept = []
            for i, rule in enumerate(rules):
                premise, conclusion, cell = rule
                if not cell[0]:
                    parked[cell[1]].append(rule)   # until the pair is added again
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
                    if wanted and not wanted & ~acc:
                        break
                    queue.extend(mask_bits(new))
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


def _congruent(gens: Generators, left: DetState, right: DetState) -> bool:
    """Whether two masks (or TOP) saturate to the same set over ``gens``.
    Saturation is a closure operator, so they do exactly when each side lies
    below the other's saturation; each side's widening stops as soon as it
    covers the other side."""
    return (_covers(saturate(gens, left, right), right)
            and _covers(saturate(gens, right, left), left))


def in_congruence(pairs: Iterable[Pair], left: DetState, right: DetState) -> bool:
    """Whether ``(left, right)`` lies in the congruence closure of ``pairs``,
    a sequence of pairs or a live :class:`Generators` index; states are masks
    or frozensets."""
    return _congruent(_index(pairs), to_mask(left), to_mask(right))


def product_walk(d: DecoratedLts, left: DetState, right: DetState, cap: float,
                 prune: Callable[[Pair, List[Pair], List[Pair], int], bool]
                 ) -> Tuple[bool, List[Pair], int, Optional[Tuple[EffLabel, ...]]]:
    """Breadth-first walk over pairs of determinised states from ``(left, right)``.

    States are masks (or TOP), and so are the pairs the walk hands to
    ``prune`` and returns.  A processed pair's states are read once each:
    one pass over a state's members gives its raw output and its successor
    under every label.  With a decoration's ``cover``, the pass reads only
    the members :func:`semcheck.lts.root_bits` keeps (every member where it
    gives up): a member in a kept
    member's cover has its value and rows below that member's, so it adds
    nothing to either join.  Outputs are compared as raw values, which are
    equal exactly when the outputs are.  Pairs are dequeued
    first-in-first-out.  A pair for which ``prune(pair, relation, todo,
    qi)`` holds is skipped (``todo[qi:]`` are the pairs still waiting); any
    other must agree on its output, joins the relation and pushes its
    successor pairs in alphabet order.  Returns ``(equal, relation,
    pairs_processed, counterexample)``; the counterexample is the discovery
    path of the first pair found to disagree.  Raises :class:`CapExceeded`
    once more than ``cap`` distinct pairs would be discovered."""
    alphabet = d.eff_alphabet
    tables = [d.masks[label] for label in alphabet]
    values, cover = d.values, d.cover
    top = (TOP, [TOP] * len(tables))

    def expand(state: DetState) -> Tuple[Value, List[DetState]]:
        """A state's raw output and its successor under each label."""
        if state is TOP:
            return top
        members = root_bits(state, cover) or mask_bits(state)
        return join_at(values, members), [join_at(rows, members) for rows in tables]

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
        lv, lsucc = expand(l)
        rv, rsucc = expand(r)
        if lv != rv:
            word: List[EffLabel] = []
            node = parent[pair]
            while node is not None:
                pair, label = node
                word.append(label)
                node = parent[pair]
            return False, relation, qi, tuple(reversed(word))
        for label, succ in zip(alphabet, zip(lsucc, rsucc)):
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
    pairs in discovery order, as masks (or TOP) for two mask states and as
    frozensets (or TOP) otherwise, or ``(False, word)`` with a
    distinguishing word.  At most ``cap`` distinct pairs are discovered."""
    seen: Set[Pair] = set()

    def already_related(pair: Pair, relation, todo, qi) -> bool:
        if pair in seen:
            return True
        seen.add(pair)
        return False

    equal, relation, _, word = product_walk(d, to_mask(left), to_mask(right), cap,
                                            already_related)
    if not equal:
        return False, word
    return True, relation if type(left) is type(right) is int else _stateset_pairs(relation)


def _stateset_pairs(relation: List[Pair]) -> list:
    return [(to_stateset(l), to_stateset(r)) for l, r in relation]


class HkcReport(Record):
    """Outcome of a congruence-based equivalence check.  ``masks`` is the
    relation as the walk built it, pairs of masks (or TOP); ``relation``
    gives the same pairs as frozensets (or TOP), decoded on first read."""

    _fields = ("equal", "masks", "pairs_processed", "counterexample")

    def __init__(self, equal: bool, masks: List[Pair], pairs_processed: int,
                 counterexample: Optional[Tuple[EffLabel, ...]]):
        self.equal, self.masks = equal, masks
        self.pairs_processed, self.counterexample = pairs_processed, counterexample

    @cached_property
    def relation(self) -> list:
        return _stateset_pairs(self.masks)


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
        for i in range(queued, len(todo)):
            gens.add(todo[i])
        queued = len(todo)
        # dequeued: the live pairs are relation + todo[qi:]; a copy of the
        # pair still queued prunes it at once
        if gens.remove(pair) or _congruent(gens, *pair):
            return True
        gens.add(pair)   # it joins the relation, or the walk ends on its output
        return False

    return HkcReport(*product_walk(d, to_mask(left), to_mask(right), cap,
                                   up_to_congruence))


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
