"""Metamorphic checks: a verdict must not change under transformations of
the system that preserve the behaviour of the compared state sets."""

from __future__ import annotations

import random

import pytest

from semcheck import ALGORITHMS, SEMANTICS, Lts, decide, decorate, disjoint_union, random_lts

SEEDS = range(150)


def _system(seed):
    """``random_lts(seed)``, with seeded final states on every third seed
    (the others cannot decorate under ``language``)."""
    lts = random_lts(seed)
    if seed % 3:
        return lts
    rng = random.Random(seed)
    finals = frozenset(x for x in range(lts.n_states) if rng.random() < 0.4)
    return Lts(lts.n_states, lts.alphabet, lts.transitions, finals)


def _start_pairs(lts, rng):
    """Two seeded pairs of non-empty start sets."""
    def start():
        return frozenset(rng.sample(range(lts.n_states), rng.randint(1, lts.n_states)))
    return [(start(), start()) for _ in range(2)]


def _permuted(lts, rng):
    """``lts`` with its states renamed by a seeded permutation, and the map."""
    perm = list(range(lts.n_states))
    rng.shuffle(perm)
    trans = {(perm[x], lab): frozenset(perm[y] for y in ys)
             for (x, lab), ys in lts.transitions.items()}
    finals = None if lts.finals is None else frozenset(perm[x] for x in lts.finals)
    return Lts(lts.n_states, lts.alphabet, trans, finals), perm.__getitem__


def _with_junk(lts, seed):
    """``lts`` beside a ``random_lts`` system over the same alphabet, which
    no state of ``lts`` reaches; the junk goes first on odd seeds."""
    junk_seed = 1000 + seed
    while random_lts(junk_seed).alphabet != lts.alphabet:
        junk_seed += 1
    junk = random_lts(junk_seed)
    if seed % 2:
        return disjoint_union(junk, lts), lambda x: x + junk.n_states
    return disjoint_union(lts, junk), lambda x: x


def _tags(lts):
    return [tag for tag in SEMANTICS if tag != "language" or lts.finals is not None]


@pytest.mark.parametrize("transform", ["permutation", "junk"])
def test_verdicts_are_invariant(transform):
    decisions = 0
    for seed in SEEDS:
        lts = _system(seed)
        rng = random.Random(seed)
        pairs = _start_pairs(lts, rng)
        image, rename = _permuted(lts, rng) if transform == "permutation" else _with_junk(lts, seed)
        for tag in _tags(lts):
            d, d_image = decorate(lts, tag), decorate(image, tag)
            for left, right in pairs:
                moved = frozenset(map(rename, left)), frozenset(map(rename, right))
                for algorithm in ALGORITHMS:
                    verdict = decide(d, algorithm, left, right)[0]
                    assert decide(d_image, algorithm, *moved)[0] == verdict, \
                        (seed, tag, algorithm, sorted(left), sorted(right))
                    decisions += 2
    assert decisions == 2 * 2 * len(ALGORITHMS) * (9 * len(SEEDS) + len(SEEDS) // 3)
