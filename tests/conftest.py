"""Shared fixture-loading helpers."""

from __future__ import annotations

import gc
import random
from pathlib import Path

import pytest

from semcheck import Gps, Lts, parse_gps, parse_lts

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_lts(name: str) -> Lts:
    return parse_lts((FIXTURES / f"{name}.lts").read_text())


def load_gps(name: str) -> Gps:
    return parse_gps((FIXTURES / f"{name}.lts").read_text())


def kth_lts(k: int, alphabet=("a", "b")) -> Lts:
    """States 0..k with edges on ``a b`` (other labels of ``alphabet`` stay
    unused): 0 loops on both and guesses that the a it reads is k-th from
    the end, then states 1..k-1 step on either label.  Determinising from
    the singletons builds more than 2**k sets, while the backward sets (the
    states from which a word can be read) number k + 1."""
    t = {(0, "a"): frozenset({0, 1}), (0, "b"): frozenset({0})}
    for i in range(1, k):
        t[(i, "a")] = t[(i, "b")] = frozenset({i + 1})
    return Lts(k + 1, alphabet, t)


def perm2r_lts(k: int) -> Lts:
    """Two disjoint copies (bases 0 and k) of a k-state system over ``a b c``:
    a rotates i to i + 1 mod k, b swaps 0 and 1, and c loops on the states
    ``random.Random(k)`` picks with probability 1/2, drawn in order of i.
    Determinising from the singletons stays small (33 sets at k = 16), while
    the backward sets blow up (63,020 at k = 16)."""
    rng = random.Random(k)
    loops = [i for i in range(k) if rng.random() < 0.5]
    t = {}
    for base in (0, k):
        for i in range(k):
            t[(base + i, "a")] = frozenset({base + (i + 1) % k})
            t[(base + i, "b")] = frozenset({base + {0: 1, 1: 0}.get(i, i)})
        for i in loops:
            t[(base + i, "c")] = frozenset({base + i})
    return Lts(2 * k, ("a", "b", "c"), t)


def cycles_left(run) -> int:
    """What ``gc.collect()`` finds after ``run()`` with the collector off:
    the objects ``run`` left in reference cycles."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
