"""Congruence-closure equivalence checking and the testing preorders."""

from __future__ import annotations

import math
import random

import pytest

from semcheck import (
    SEMANTICS,
    TOP,
    CapExceeded,
    behavior,
    decorate,
    gen_interleave,
    hkc_check,
    in_congruence,
    preorder_check,
    random_lts,
    saturate,
)
from semcheck.hkc import product_walk

from conftest import load_lts


def s(*xs):
    return frozenset(xs)


# -- congruence closure ------------------------------------------------------


def test_saturate_widens_through_pairs():
    pairs = [(s(0), s(1)), (s(1, 2), s(3))]
    assert saturate(pairs, s(0)) == s(0, 1)
    assert saturate(pairs, s(0, 2)) == s(0, 1, 2, 3)
    assert saturate([], s(7)) == s(7)


def test_saturate_top_absorbs():
    pairs = [(s(0), TOP)]
    assert saturate(pairs, s(0)) is TOP
    assert saturate(pairs, s(1)) == s(1)


def test_in_congruence_uses_union_reasoning():
    # The three discovered pairs of the language example force the fourth.
    pairs = [(s(0), s(3)), (s(1), s(4, 5)), (s(2), s(3, 4))]
    assert in_congruence(pairs, s(0, 1), s(3, 4, 5))
    assert not in_congruence(pairs, s(0), s(4, 5))


def test_live_generators_saturate_like_their_pairs():
    # Queue and dequeue pairs at random: the live index must saturate like
    # the list of pairs still live and like the fixpoint by definition, a
    # goal must be covered exactly when that fixpoint covers it, and a pair
    # is in the congruence exactly when both sides reach the same fixpoint.
    from semcheck.hkc import Generators
    from semcheck.moore import to_mask

    rng = random.Random(3)

    def state(n):
        return TOP if rng.random() < 0.08 else frozenset(
            x for x in range(n) if rng.random() < 0.3)

    def covers(z, goal):
        return z is TOP or (goal is not TOP and goal <= z)

    def masks(pair):
        return to_mask(pair[0]), to_mask(pair[1])

    for _ in range(400):
        n = rng.randint(1, 9)
        pool = [(state(n), state(n)) for _ in range(rng.randint(1, 8))]
        gens, live = Generators(), []
        for _ in range(30):
            op = rng.random()
            if op < 0.4 or not live:
                pair = rng.choice(pool)
                gens.add(masks(pair))
                live.append(pair)
            elif op < 0.7:
                gens.remove(masks(live.pop(rng.randrange(len(live)))))
            else:
                z, goal = state(n), state(n)
                full = _reference_saturate(live, z)
                assert saturate(gens, z) == saturate(live, z) == full
                assert covers(saturate(gens, z, goal), goal) == covers(full, goal)
                same = full == _reference_saturate(live, goal)
                assert in_congruence(gens, z, goal) == in_congruence(live, z, goal) == same
            assert all((masks(pair) in gens) == (pair in live) for pair in pool)


# -- equivalence checks ------------------------------------------------------


def test_hkc_language_example_relation():
    lts = load_lts("eq-automata")
    d = decorate(lts, "language")
    rep = hkc_check(d, s(0), s(3))
    assert rep.equal
    assert rep.relation == [
        (s(0), s(3)),          # x  ~ u
        (s(1), s(4, 5)),       # y  ~ {w,v}
        (s(2), s(3, 4)),       # z  ~ {u,w}
    ]
    assert rep.pairs_processed == 4
    assert rep.counterexample is None


def test_hkc_must_example_two_pairs():
    lts = load_lts("must-xy")
    d = decorate(lts, "must")
    rep = hkc_check(d, s(lts.resolve_state("x")), s(lts.resolve_state("y")))
    assert rep.equal
    assert len(rep.relation) == 2


def test_hkc_counterexample_word_distinguishes():
    lts = load_lts("rtrace-pq")
    d = decorate(lts, "rtrace")
    p0, q0 = lts.resolve_state("p0"), lts.resolve_state("q0")
    rep = hkc_check(d, s(p0), s(q0))
    assert not rep.equal
    word = rep.counterexample
    assert word is not None
    assert behavior(d, s(p0), word) != behavior(d, s(q0), word)


def test_hkc_counterexample_on_outputs_at_root():
    lts = load_lts("ct-w")
    d = decorate(lts, "ctrace")
    rep = hkc_check(d, s(0), s(2))
    assert not rep.equal
    assert rep.counterexample == ("a",)


def test_hkc_cap():
    lts = load_lts("fail-pq")
    d = decorate(lts, "failure")
    with pytest.raises(CapExceeded):
        hkc_check(d, s(0), s(11), cap=1)


# -- testing preorders -------------------------------------------------------


def test_may_preorder_strict_inclusion():
    lts = load_lts("ct-w")
    d = decorate(lts, "may")
    w0, w1 = lts.resolve_state("w0"), lts.resolve_state("w1")
    assert preorder_check(d, "may", w1, w0).equal      # {eps} below a*
    assert not preorder_check(d, "may", w0, w1).equal


def test_may_preorder_equivalence_both_ways():
    lts = load_lts("ct-w")
    d = decorate(lts, "may")
    w0, w0p = lts.resolve_state("w0"), lts.resolve_state("w0p")
    assert preorder_check(d, "may", w0, w0p).equal
    assert preorder_check(d, "may", w0p, w0).equal


def test_must_preorder_divergence_is_bottom():
    lts = load_lts("must-xy")
    d = decorate(lts, "must")
    y, y1 = lts.resolve_state("y"), lts.resolve_state("y1")
    assert preorder_check(d, "must", y1, y).equal      # divergent state below y
    assert not preorder_check(d, "must", y, y1).equal


def test_must_preorder_equivalence_both_ways():
    lts = load_lts("must-xy")
    d = decorate(lts, "must")
    x, y = lts.resolve_state("x"), lts.resolve_state("y")
    assert preorder_check(d, "must", x, y).equal
    assert preorder_check(d, "must", y, x).equal


def test_preorder_rejects_other_semantics():
    lts = load_lts("ct-w")
    d = decorate(lts, "trace")
    with pytest.raises(ValueError):
        preorder_check(d, "trace", 0, 1)
    with pytest.raises(ValueError):
        preorder_check(d, "may", 0, 1)   # system decorated for trace


# -- reference walk ----------------------------------------------------------


def _reference_saturate(pairs, z):
    """The congruence closure by its definition: sweep the pairs until no
    component dominated by ``z`` adds anything to it."""
    def leq(a, b):
        return b is TOP or (a is not TOP and a <= b)

    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            for p, q in ((u, v), (v, u)):
                if leq(p, z) and not leq(q, z):
                    z = TOP if q is TOP else z | q
                    changed = True
    return z


def _reference_hkc(d, left, right):
    """HKC with the prune rule spelt out: skip a pair when its two sides
    saturate to the same set over the relation and the pairs still queued."""
    def prune(pair, relation, todo, qi):
        live = relation + todo[qi:]
        return _reference_saturate(live, pair[0]) == _reference_saturate(live, pair[1])

    return product_walk(d, left, right, math.inf, prune)


def _assert_matches_reference(d, left, right, rep):
    equal, relation, processed, word = _reference_hkc(d, left, right)
    assert (rep.equal, rep.relation, rep.pairs_processed, rep.counterexample) == \
        (equal, relation, processed, word), (d.semantics, left, right)


def test_hkc_matches_reference_congruence_walk():
    checked = 0
    for seed in range(300):
        lts = random_lts(seed)
        rng = random.Random(seed)
        starts = [frozenset(rng.sample(range(lts.n_states),
                                       rng.randint(1, min(3, lts.n_states))))
                  for _ in range(4)]
        for tag in SEMANTICS:
            try:
                d = decorate(lts, tag)
            except ValueError:  # language needs final states
                continue
            for left, right in zip(starts[::2], starts[1::2]):
                _assert_matches_reference(d, left, right, hkc_check(d, left, right))
                checked += 1
        for sem in ("may", "must"):
            d = decorate(lts, sem)
            for x in range(lts.n_states):
                for y in range(lts.n_states):
                    joined = frozenset({x, y})
                    other = frozenset({y}) if sem == "may" else frozenset({x})
                    _assert_matches_reference(d, joined, other,
                                              preorder_check(d, sem, x, y))
    assert checked > 1000
    # A pair pruned only because a later copy of itself is still queued must
    # get a real check when that copy comes up.
    lts = gen_interleave(200)
    d = decorate(lts, "must")
    x, y = frozenset({lts.resolve_state("x")}), frozenset({lts.resolve_state("y")})
    rep = hkc_check(d, x, y)
    _assert_matches_reference(d, x, y, rep)
    assert rep.pairs_processed == 405
