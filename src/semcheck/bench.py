"""Benchmark families, a brute-force oracle, and the cross-check matrix.

The three scalable families exercise the algorithms where their costs
diverge: ``interleave`` blows up the forward subset construction while the
congruence check stays linear, ``chain`` is cheap forwards but exponential
for the first reversal pass, and ``cycles`` drives the determinised state
count to lcm(1..n) from a superposed start.  ``oracle_equal`` is an
independent ground truth used to validate every other algorithm.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from . import brzozowski
from .decorations import DecoratedLts, decorate
from .hkc import hkc_check, naive_bisim
from .lts import TAU, Lts, StateSet
from .moore import DEFAULT_CAP, CapExceeded, MooreMachine, reachable_machine

ALGORITHMS = ("oracle", "naive", "hkc", "brzozowski")


# ---------------------------------------------------------------------------
# Parametric families
# ---------------------------------------------------------------------------

def gen_interleave(n: int) -> Lts:
    """Two b-guarded counters of length ``n`` over {a, b}, one of them hidden
    behind an extra interleaving state, both ending in a divergent sink.
    The forward subset construction from ``x`` reaches at least 2**n states,
    while congruence-based checking of x against y needs n + 2 pairs."""
    if n < 1:
        raise ValueError("n must be positive")
    x, u, y, v, z = 0, n + 1, n + 2, 2 * n + 3, 2 * n + 4
    xs = [x] + list(range(1, n + 1))      # x, x1 .. xn
    ys = [y] + list(range(n + 3, 2 * n + 3))  # y, y1 .. yn
    t: Dict[Tuple[int, str], frozenset] = {
        (x, "a"): frozenset({x}),
        (x, "b"): frozenset({x, xs[1]}),
        (y, "a"): frozenset({y, z}),
        (y, "b"): frozenset({y, ys[1], z}),
        (z, "a"): frozenset({y}),
        (z, "b"): frozenset({ys[1]}),
        (u, TAU): frozenset({u}),
        (v, TAU): frozenset({v}),
    }
    for i in range(1, n):
        t[(xs[i], "a")] = t[(xs[i], "b")] = frozenset({xs[i + 1]})
        t[(ys[i], "a")] = t[(ys[i], "b")] = frozenset({ys[i + 1]})
    t[(xs[n], "b")] = frozenset({u})
    t[(ys[n], "b")] = frozenset({v})
    names = (["x"] + [f"x{i}" for i in range(1, n + 1)] + ["u"]
             + ["y"] + [f"y{i}" for i in range(1, n + 1)] + ["v", "z"])
    return Lts(2 * n + 5, ("a", "b"), t, None, tuple(names))


def gen_chain(n: int) -> Lts:
    """A descending {a, b}-chain of length ``n`` whose last link only offers b
    into an {a, b}-loop.  Forward determinisation from the top stays at n + 2
    states (including the empty sink); the first reversal pass grows
    exponentially in ``n``."""
    if n < 1:
        raise ValueError("n must be positive")
    t: Dict[Tuple[int, str], frozenset] = {
        (0, "a"): frozenset({0}),
        (0, "b"): frozenset({0}),
        (1, "b"): frozenset({0}),
    }
    for i in range(2, n + 1):
        t[(i, "a")] = t[(i, "b")] = frozenset({i - 1})
    names = ["x"] + [f"x{i}" for i in range(1, n + 1)]
    return Lts(n + 1, ("a", "b"), t, None, tuple(names))


def gen_cycles(n: int) -> Lts:
    """Disjoint a-cycles of lengths 1..n.  From the superposition of the
    cycle starts the determinised machine has lcm(1..n) states, yet the
    behaviour is that of a single self-loop."""
    if n < 1:
        raise ValueError("n must be positive")
    t: Dict[Tuple[int, str], frozenset] = {}
    names: List[str] = []
    base = 0
    for length in range(1, n + 1):
        for j in range(length):
            t[(base + j, "a")] = frozenset({base + (j + 1) % length})
            names.append(f"c{length}_{j}")
        base += length
    return Lts(base, ("a",), t, None, tuple(names))


def cycle_starts(n: int) -> StateSet:
    """Initial superposition for :func:`gen_cycles`: the start of each cycle."""
    return frozenset(length * (length - 1) // 2 for length in range(1, n + 1))


# ---------------------------------------------------------------------------
# Seeded random instances
# ---------------------------------------------------------------------------

def random_lts(seed: int, allow_tau: bool = True) -> Lts:
    """Small random system (2-6 states, 1-2 visible labels, visible edge
    density 0.35, tau density 0.2) with reproducible structure for a given
    seed."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    labels = ("a", "b")[: rng.randint(1, 2)]
    t: Dict[Tuple[int, str], set] = {}
    for x in range(n):
        for lab in labels:
            for y in range(n):
                if rng.random() < 0.35:
                    t.setdefault((x, lab), set()).add(y)
    if allow_tau:
        for x in range(n):
            for y in range(n):
                if rng.random() < 0.2:
                    t.setdefault((x, TAU), set()).add(y)
    return Lts(n, tuple(labels), {k: frozenset(v) for k, v in t.items()})


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def oracle_equal(d: DecoratedLts, left: StateSet, right: StateSet,
                 cap: int = DEFAULT_CAP) -> bool:
    """Ground truth by word enumeration on the joint reachable machine.

    With N reachable states, distinguishable Moore states are distinguishable
    by some word of length at most N - 1 (output partition refinement
    stabilises within N - 1 rounds), so comparing the outputs after every
    word of length < N decides equality.  Words are walked depth layer by
    depth layer; a layer adding no new state pair can only repeat outputs
    already compared, so the walk stops there."""
    return _words_agree(reachable_machine(d, [left, right], cap))


def _words_agree(m: MooreMachine) -> bool:
    """The word walk of :func:`oracle_equal` on a built joint machine."""
    n = m.n_states
    seen: set = set()
    frontier = {(m.inits[0], m.inits[1])}
    for _ in range(n):
        frontier -= seen
        if not frontier:
            break
        for p, q in frontier:
            if m.values[p] != m.values[q]:
                return False
        seen |= frontier
        frontier = {(m.steps[p][a], m.steps[q][a])
                    for p, q in frontier for a in m.alphabet}
    return True


# ---------------------------------------------------------------------------
# Cross-check matrix
# ---------------------------------------------------------------------------

@dataclass
class BenchCase:
    name: str
    lts: Lts
    left: StateSet
    right: StateSet


@dataclass
class BenchRecord:
    case: str
    semantics: str
    algorithm: str
    equal: Optional[bool]
    states: Optional[int]
    pairs: Optional[int]
    time_ms: float
    error: Optional[str] = None


@dataclass
class BenchReport:
    records: List[BenchRecord] = field(default_factory=list)
    disagreements: List[Tuple[str, str]] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "schema": 1,
            "records": [vars(r) for r in self.records],
            "disagreements": list(self.disagreements),
        }, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=[f.name for f in fields(BenchRecord)])
        writer.writeheader()
        for r in self.records:
            writer.writerow(vars(r))
        return buf.getvalue()


def decide(d: DecoratedLts, algorithm: str, left: StateSet, right: StateSet,
           cap: int = DEFAULT_CAP) -> Tuple[bool, Optional[int], Optional[int]]:
    """Run one algorithm; returns (equal, states, pairs) where applicable."""
    if algorithm == "oracle":
        m = reachable_machine(d, [left, right], cap)
        return _words_agree(m), m.n_states, None
    if algorithm == "naive":
        ok, witness = naive_bisim(d, left, right, cap)
        return ok, None, (len(witness) if ok else None)
    if algorithm == "hkc":
        report = hkc_check(d, left, right, cap)
        return report.equal, None, len(report.masks)
    if algorithm == "brzozowski":
        inter_l, min_l = brzozowski.brzozowski_minimize(d, left, cap)
        inter_r, min_r = brzozowski.brzozowski_minimize(d, right, cap)
        return (brzozowski.moore_isomorphic(min_l, min_r),
                inter_l.n_states + inter_r.n_states, None)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _counts(exc: Exception) -> Tuple[Optional[int], Optional[int]]:
    """``(states, pairs)`` of a run that raised: a budget failure's count
    under the unit it counted, none for any other error."""
    n = getattr(exc, "states_built", None)
    return (None, n) if getattr(exc, "unit", None) == "pairs" else (n, None)


def run_matrix(cases: Sequence[BenchCase], semantics: Sequence[str],
               algorithms: Sequence[str] = ALGORITHMS,
               cap: int = DEFAULT_CAP) -> BenchReport:
    """Run every case under every semantics and algorithm, recording results
    and flagging any (case, semantics) where the algorithms disagree.
    ``cap`` bounds decoration too; a failed decoration is one ``-`` row."""
    report = BenchReport()
    for case in cases:
        for sem in semantics:
            try:
                d = decorate(case.lts, sem, cap)
            except (ValueError, CapExceeded) as exc:
                report.records.append(BenchRecord(
                    case.name, sem, "-", None, *_counts(exc), 0.0, str(exc)))
                continue
            verdicts = set()
            for algo in algorithms:
                t0 = time.perf_counter()
                try:
                    equal, *counts = decide(d, algo, case.left, case.right, cap)
                    verdicts.add(equal)
                    err = None
                except CapExceeded as exc:
                    equal, counts, err = None, _counts(exc), str(exc)
                ms = (time.perf_counter() - t0) * 1000.0
                report.records.append(BenchRecord(case.name, sem, algo, equal, *counts, ms, err))
            if len(verdicts) > 1:
                report.disagreements.append((case.name, sem))
    return report


def default_cases() -> List[BenchCase]:
    """A small demonstration matrix over the parametric families."""
    inter = gen_interleave(3)
    chain = gen_chain(4)
    cyc = gen_cycles(4)
    return [
        BenchCase("interleave3-x-vs-y", inter,
                  frozenset({inter.names.index("x")}),
                  frozenset({inter.names.index("y")})),
        BenchCase("chain4-top-vs-next", chain,
                  frozenset({chain.names.index("x4")}),
                  frozenset({chain.names.index("x3")})),
        BenchCase("cycles4-superposition-vs-loop", cyc,
                  cycle_starts(4), frozenset({0})),
    ]
