"""Every back end against the word oracle, on the tags, alphabets and start
sets that criterion 14c's random check leaves out: start *sets*, up to four
labels, and the tags with final states, trace classes or readiness labels."""

from __future__ import annotations

import random

from semcheck import ALGORITHMS, TAU, Lts, decide, decorate, format_lts, parse_lts

TAGS = ("language", "pfutures", "rtrace", "ftrace")
SEEDS = range(120)


def _system(seed):
    """A seeded system of 2-6 states over 1-4 labels, with τ edges and final
    states."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    labels = tuple("abcd"[: rng.randint(1, 4)])
    trans = {}
    for x in range(n):
        for lab in labels + (TAU,):
            density = 0.2 if lab == TAU else 0.35
            succ = frozenset(y for y in range(n) if rng.random() < density)
            if succ:
                trans[(x, lab)] = succ
    finals = frozenset(x for x in range(n) if rng.random() < 0.4)
    return Lts(n, labels, trans, finals), rng


def test_back_ends_agree_with_the_oracle():
    checks = 0
    for seed in SEEDS:
        lts, rng = _system(seed)
        reread = parse_lts(format_lts(lts))

        def start():
            return frozenset(rng.sample(range(lts.n_states), rng.randint(1, lts.n_states)))

        pairs = [(start(), start()) for _ in range(2)]
        for tag in TAGS:
            d, d_reread = decorate(lts, tag), decorate(reread, tag)
            for left, right in pairs:
                expected = decide(d, "oracle", left, right)[0]
                for algorithm in ALGORITHMS:
                    where = (seed, tag, algorithm, sorted(left), sorted(right))
                    assert decide(d, algorithm, left, right)[0] == expected, where
                    assert decide(d_reread, algorithm, left, right)[0] == expected, where
                    checks += 2
    assert checks == 2 * len(ALGORITHMS) * len(TAGS) * 2 * len(SEEDS)
