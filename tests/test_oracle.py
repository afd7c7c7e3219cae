"""Every back end against the word oracle, on the tags, alphabets and start
sets that criterion 14c's random check leaves out: start *sets*, up to four
labels, and the tags with final states, trace classes or readiness labels.
The other six tags are checked for invariance under a text round trip."""

from __future__ import annotations

import random

from semcheck import (ALGORITHMS, TAU, Lts, decide, decorate, format_lts, hkc_check,
                      naive_bisim, parse_lts)

TAGS = ("language", "pfutures", "rtrace", "ftrace")
ROUND_TRIP_TAGS = ("trace", "ctrace", "ready", "failure", "may", "must")
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


def _cases(tags):
    """For every seed and tag: the decoration of the seed's system, that of
    its ``parse_lts(format_lts(...))`` copy, and two start-set pairs."""
    for seed in SEEDS:
        lts, rng = _system(seed)
        reread = parse_lts(format_lts(lts))

        def start():
            return frozenset(rng.sample(range(lts.n_states), rng.randint(1, lts.n_states)))

        pairs = [(start(), start()) for _ in range(2)]
        for tag in tags:
            d, d_reread = decorate(lts, tag), decorate(reread, tag)
            for left, right in pairs:
                yield (seed, tag, sorted(left), sorted(right)), d, d_reread, left, right


def _answer(d, algorithm, left, right):
    """A back end's verdict, with its counterexample word where it gives one."""
    if algorithm == "naive":
        equal, payload = naive_bisim(d, left, right)
        return equal, None if equal else payload
    if algorithm == "hkc":
        report = hkc_check(d, left, right)
        return report.equal, report.counterexample
    return decide(d, algorithm, left, right)[0], None


def test_back_ends_agree_with_the_oracle():
    checks = 0
    for case, d, d_reread, left, right in _cases(TAGS):
        expected = decide(d, "oracle", left, right)[0]
        for algorithm in ALGORITHMS:
            where = (*case, algorithm)
            assert decide(d, algorithm, left, right)[0] == expected, where
            assert decide(d_reread, algorithm, left, right)[0] == expected, where
            checks += 2
    assert checks == 2 * len(ALGORITHMS) * len(TAGS) * 2 * len(SEEDS)


def test_round_trip_keeps_verdicts_and_counterexamples():
    checks = unequal = 0
    for case, d, d_reread, left, right in _cases(ROUND_TRIP_TAGS):
        for algorithm in ALGORITHMS:
            answer = _answer(d, algorithm, left, right)
            assert _answer(d_reread, algorithm, left, right) == answer, (*case, algorithm)
            checks += 1
            unequal += answer[1] is not None
    assert checks == len(ALGORITHMS) * len(ROUND_TRIP_TAGS) * 2 * len(SEEDS)
    assert unequal > 800  # 916 counterexample words compared
