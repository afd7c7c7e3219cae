"""Seeded inputs and pinned expectations for the four benchmark workloads.

Every workload is a fixed corpus of systems and CLI queries, built here from
a fixed corpus seed by code that does not import ``semcheck``, so a change to
the program cannot change its own inputs.  The run seed (``--seed``) then
applies a seeded isomorphism to every system: states are renumbered, the
``names`` line follows them and the transition lines are shuffled.  Queries
name states, never indices, so every verdict, minimal-machine size and
rendered output is invariant under the isomorphism, and the references in
``references.json`` (pinned once, by ``pin.py``) hold for every run seed.
Different seeds give byte-different input files with an identical size
profile.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("families", "tau-heavy", "gps-dense", "cli-small")

#: Seeds of the fixed corpora.  Changing one changes the corpus digest, so the
#: references must be re-pinned with ``pin.py``.
CORPUS_SEEDS = {"families": 0, "tau-heavy": 1101, "gps-dense": 2202,
                "cli-small": 3303}

FILE = "{file}"  # placeholder in a query's argv for the written input path


@dataclass
class System:
    """An LTS or GPS in the semcheck text format, before renumbering.

    ``edges`` holds ``(src, label, dst)`` for an LTS and
    ``(src, label, Fraction, dst)`` for a GPS.  Every state has a name."""

    kind: str  # "lts" or "gps"
    names: List[str]
    alphabet: Tuple[str, ...]
    edges: List[tuple]
    finals: Optional[List[int]] = None

    @property
    def n(self) -> int:
        return len(self.names)

    def render(self, rng: Optional[random.Random] = None) -> str:
        """Text form; with ``rng``, under a random isomorphism."""
        perm = list(range(self.n))
        edges = list(self.edges)
        if rng is not None:
            rng.shuffle(perm)
            rng.shuffle(edges)
        names = [""] * self.n
        for i, nm in enumerate(self.names):
            names[perm[i]] = nm
        out = [f"{self.kind} {self.n}", "alphabet " + " ".join(self.alphabet)]
        if self.finals is not None:
            out.append("final " + " ".join(str(perm[x]) for x in sorted(self.finals)))
        out.append("names " + " ".join(names))
        for e in edges:
            if self.kind == "lts":
                out.append(f"{perm[e[0]]} {e[1]} {perm[e[2]]}")
            else:
                p = e[2]
                out.append(f"{perm[e[0]]} {e[1]} {p.numerator}/{p.denominator} {perm[e[3]]}")
        return "\n".join(out) + "\n"


@dataclass
class Query:
    """One CLI request.  ``argv`` holds :data:`FILE` where the input path goes.
    ``law`` is an expectation that follows from the construction (set here);
    ``pin.py`` stores it, or the agreed verdict, in ``references.json``."""

    qid: str
    system: str
    argv: List[str]
    law: Dict[str, object] = field(default_factory=dict)


@dataclass
class Corpus:
    workload: str
    systems: Dict[str, System]
    queries: List[Query]

    def digest(self) -> str:
        """Hash of the identity-numbered inputs and the query list."""
        h = hashlib.sha256()
        for name in sorted(self.systems):
            h.update(name.encode() + b"\0" + self.systems[name].render().encode())
        h.update(json.dumps([[q.qid, q.system, q.argv] for q in self.queries]).encode())
        return h.hexdigest()

    def write(self, directory: Path, seed: int) -> Dict[str, str]:
        """Write every system under a seeded isomorphism; returns the paths."""
        directory.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{self.workload}/{seed}")
        paths = {}
        for name in sorted(self.systems):
            sys_ = self.systems[name]
            path = directory / f"{name}.{sys_.kind}"
            path.write_text(sys_.render(rng), encoding="utf-8")
            paths[name] = str(path)
        return paths


def _eq(sem: str, algo: str, sysname: str, left: str, right: str,
        qid: str, **law) -> Query:
    return Query(qid, sysname, ["equiv", "--sem", sem, "--algo", algo, FILE,
                                left, right], law)


# ---------------------------------------------------------------------------
# families: the paper's three scalable families
# ---------------------------------------------------------------------------

def interleave(n: int) -> System:
    """Two b-guarded counters of length n, one behind an extra interleaving
    state, both ending in a divergent sink; x and y are must-equivalent."""
    x, u, y, v, z = 0, n + 1, n + 2, 2 * n + 3, 2 * n + 4
    xs = [x] + list(range(1, n + 1))
    ys = [y] + list(range(n + 3, 2 * n + 3))
    e = [(x, "a", x), (x, "b", x), (x, "b", xs[1]),
         (y, "a", y), (y, "a", z), (y, "b", y), (y, "b", ys[1]), (y, "b", z),
         (z, "a", y), (z, "b", ys[1]), (u, "tau", u), (v, "tau", v)]
    for i in range(1, n):
        for lab in "ab":
            e += [(xs[i], lab, xs[i + 1]), (ys[i], lab, ys[i + 1])]
    e += [(xs[n], "b", u), (ys[n], "b", v)]
    names = (["x"] + [f"x{i}" for i in range(1, n + 1)] + ["u", "y"]
             + [f"y{i}" for i in range(1, n + 1)] + ["v", "z"])
    return System("lts", names, ("a", "b"), e)


def chain(n: int) -> System:
    """Descending {a, b}-chain x_n .. x_1 whose last link offers only b into
    an {a, b}-loop x.  Pass 1 of double reversal from x_n builds 2^(n+1) - 1
    states; the minimal machine has n + 2."""
    e = [(0, "a", 0), (0, "b", 0), (1, "b", 0)]
    for i in range(2, n + 1):
        e += [(i, "a", i - 1), (i, "b", i - 1)]
    return System("lts", ["x"] + [f"x{i}" for i in range(1, n + 1)], ("a", "b"), e)


def cycles(n: int) -> System:
    """Disjoint a-cycles of lengths 1..n next to a separate one-state a-loop;
    the superposition of the cycle starts behaves like the loop under trace,
    and HKC walks the whole period lcm(1..n) before the congruence closes."""
    e, names, base = [], [], 0
    for length in range(1, n + 1):
        for j in range(length):
            e.append((base + j, "a", base + (j + 1) % length))
            names.append(f"c{length}_{j}")
        base += length
    e.append((base, "a", base))
    return System("lts", names + ["loop"], ("a",), e)


def families_corpus(_rng: random.Random) -> Corpus:
    systems, queries = {}, []
    for n in (3, 4, 5, 6, 7):
        name = f"cycles{n}"
        systems[name] = cycles(n)
        starts = ",".join(f"c{k}_0" for k in range(1, n + 1))
        # every state enables exactly {a} forever, so the law holds under
        # each of these tags; hkc on n = 7 walks 420 pairs per query
        tags = ("trace", "ready", "failure", "may", "must") if n < 7 else ("trace", "ready", "failure")
        for sem in tags:
            for algo in ("naive", "hkc", "brzozowski"):
                queries.append(_eq(sem, algo, name, starts, "loop",
                                   f"{name}-{sem}-{algo}", equal=True))
    for n in (25, 50, 100, 150, 200, 250, 300, 350, 400):
        name = f"interleave{n}"
        systems[name] = interleave(n)
        queries.append(_eq("must", "hkc", name, "x", "y", f"{name}-hkc", equal=True))
    for n in (3, 4, 5, 6, 7, 8):
        name = f"chain{n}"
        systems[name] = chain(n)
        for sem in ("must", "failure"):
            queries.append(Query(f"{name}-{sem}-min", name,
                                 ["minimize", "--sem", sem, "--init", f"x{n}", FILE],
                                 {"states": n + 2,
                                  "intermediate_states": 2 ** (n + 1) - 1}))
            for algo in ("brzozowski", "naive", "hkc"):
                queries.append(_eq(sem, algo, name, f"x{n}", f"x{n - 1}",
                                   f"{name}-{sem}-{algo}"))
    return Corpus("families", systems, queries)


# ---------------------------------------------------------------------------
# tau-heavy: tau-rich systems whose decoration dominates
# ---------------------------------------------------------------------------

def _tau_chain(rng: random.Random, n: int) -> List[tuple]:
    """tau-chain 0 -> 1 -> ... -> n-1, each state with a visible self-loop."""
    e = [(i, "tau", i + 1) for i in range(n - 1)]
    e += [(i, rng.choice("ab"), i) for i in range(n)]
    return e


def _tau_ladder(rng: random.Random, n: int) -> List[tuple]:
    """Two tau-rails joined by tau rungs, with visible steps between rungs."""
    half = n // 2
    e = []
    for i in range(half):
        lo, hi = 2 * i, 2 * i + 1
        if i + 1 < half:
            e += [(lo, "tau", lo + 2), (hi, "tau", hi + 2)]
            e.append((lo, rng.choice("ab"), hi + 2))
        if rng.random() < 0.5:
            e.append((lo, "tau", hi))
        e.append((hi, rng.choice("abc"), hi))
    return e


def _tau_cycles(rng: random.Random, n: int) -> List[tuple]:
    """A tau-chain with back edges that close tau-cycles (divergence)."""
    e = [(i, "tau", i + 1) for i in range(n - 1)]
    for i in range(n):
        e.append((i, rng.choice("ab"), rng.randrange(n)))
    for _ in range(max(1, n // 40)):
        j = rng.randrange(n // 2, n)
        e.append((j, "tau", j - rng.randint(2, 6)))
    return e


def _with_copy(n: int, edges: List[tuple]) -> System:
    """An LTS next to a copy of itself (states q<i> and r<i>)."""
    names = [f"q{i}" for i in range(n)] + [f"r{i}" for i in range(n)]
    e = list(edges) + [(s + n, lab, d + n) for s, lab, d in edges]
    return System("lts", names, ("a", "b", "c"), e)


def tau_heavy_corpus(rng: random.Random) -> Corpus:
    systems, queries = {}, []
    shapes = [("chain", _tau_chain), ("ladder", _tau_ladder), ("cycles", _tau_cycles)]
    for size in (20, 25, 30, 35, 40):
        for shape, make in shapes:
            name = f"tau-{shape}{size}"
            systems[name] = _with_copy(size, make(rng, size))
            mid = f"q{size // 2}"
            for sem in ("may", "must"):
                queries.append(_eq(sem, "hkc", name, "q0", "r0",
                                   f"{name}-{sem}-copy", equal=True))
                queries.append(_eq(sem, "hkc", name, "q0", mid, f"{name}-{sem}-mid"))
                queries.append(Query(f"{name}-{sem}-pre", name,
                                     ["preorder", "--sem", sem, FILE, mid, "r0"]))
            queries.append(Query(f"{name}-may-pre-up", name,
                                 ["preorder", "--sem", "may", FILE, "r0", mid]))
    return Corpus("tau-heavy", systems, queries)


# ---------------------------------------------------------------------------
# gps-dense: dense random generative probabilistic systems
# ---------------------------------------------------------------------------

GPS_SEMANTICS = ("g_ready", "g_failure", "g_mfailure", "g_trace", "g_mtrace")


def _dense_gps_edges(rng: random.Random, n: int, alphabet: Sequence[str]) -> List[tuple]:
    """Three successors per label; each state's weights share a small
    denominator and leave some termination mass."""
    e = []
    for x in range(n):
        den = rng.choice((8, 9, 10, 12))
        slots = 3 * len(alphabet)
        weights = [1] * slots
        for _ in range(den - slots - rng.randint(1, 2)):
            weights[rng.randrange(slots)] += 1
        k = 0
        for lab in alphabet:
            for y in rng.sample(range(n), 3):
                e.append((x, lab, Fraction(weights[k], den), y))
                k += 1
    return e


def gps_reaches(edges: Sequence[tuple], src: int, target: int) -> bool:
    seen, stack = {src}, [src]
    while stack:
        x = stack.pop()
        if x == target:
            return True
        for s, _, _, d in edges:
            if s == x and d not in seen:
                seen.add(d)
                stack.append(d)
    return False


def gps_corpus(rng: random.Random, sizes: Sequence[int], states_per_system: int,
               semantics: Sequence[str], prefix: str
               ) -> Tuple[Dict[str, System], List[Query]]:
    """Each system is a random GPS (states p<i>), a copy (c<i>) and a copy
    (d<i>) in which one probability out of a state w is halved.  Queries
    compare p<i> with c<i> (equal) and with d<i>; by construction the latter
    differ exactly when w is reachable from i: halving lowers the probability
    of every word through the edge and raises w's termination mass, and every
    semantics here sees both (the first word that reaches w suffices)."""
    systems, queries = {}, []
    alphabet = ("a", "b")
    for idx, n in enumerate(sizes):
        name = f"{prefix}{idx}-n{n}"
        base = _dense_gps_edges(rng, n, alphabet)
        w = rng.randrange(n)
        pert_edge = rng.choice([i for i, ed in enumerate(base) if ed[0] == w])
        e = list(base)
        e += [(s + n, lab, p, d + n) for s, lab, p, d in base]
        for i, (s, lab, p, d) in enumerate(base):
            e.append((s + 2 * n, lab, p / 2 if i == pert_edge else p, d + 2 * n))
        names = ([f"p{i}" for i in range(n)] + [f"c{i}" for i in range(n)]
                 + [f"d{i}" for i in range(n)])
        systems[name] = System("gps", names, alphabet, e)
        for i in rng.sample(range(n), min(states_per_system, n)):
            differs = gps_reaches(base, i, w)
            for sem in semantics:
                queries.append(Query(f"{name}-{sem}-copy{i}", name,
                                     ["gps-equiv", "--sem", sem, FILE, f"p{i}", f"c{i}"],
                                     {"equal": True}))
                queries.append(Query(f"{name}-{sem}-pert{i}", name,
                                     ["gps-equiv", "--sem", sem, FILE, f"p{i}", f"d{i}"],
                                     {"equal": not differs}))
    return systems, queries


def gps_dense_corpus(rng: random.Random) -> Corpus:
    # one state per size keeps the latency tail free of wide steps
    systems, queries = gps_corpus(rng, range(8, 20), 1, GPS_SEMANTICS, "gps")
    return Corpus("gps-dense", systems, queries)


# ---------------------------------------------------------------------------
# cli-small: many small requests of every kind
# ---------------------------------------------------------------------------

#: every tag except ctrace, whose meaning is still open (ROADMAP item 5)
CLI_TAGS = ("language", "trace", "ready", "failure", "pfutures", "rtrace",
            "ftrace", "may", "must")


def small_lts(rng: random.Random, n: int, n_labels: int) -> System:
    alphabet = ("a", "b", "c", "d")[:n_labels]
    e = set()
    for x in range(n):
        for lab in alphabet:
            # mostly deterministic, so every subset construction stays small
            r = rng.random()
            for _ in range(0 if r < 0.45 else 1 if r < 0.93 else 2):
                e.add((x, lab, rng.randrange(n)))
        if rng.random() < 0.2:
            e.add((x, "tau", rng.randrange(n)))
    finals = sorted(rng.sample(range(n), max(1, n // 3)))
    return System("lts", [f"s{i}" for i in range(n)], alphabet, sorted(e), finals)


def cli_small_corpus(rng: random.Random) -> Corpus:
    systems, queries = {}, []
    for idx in range(24):
        # Double reversal (brzozowski, minimize) only on the eight smallest
        # systems, over two labels: its first pass is exponential in the
        # state count and in the output lattice, and exponential growth is
        # what the families workload measures.
        small = idx < 8
        n = rng.randint(6, 8) if small else rng.randint(9, 30)
        name = f"small{idx}-n{n}"
        sys_ = small_lts(rng, n, 2 if small else rng.randint(2, 4))
        systems[name] = sys_
        algos = ("naive", "hkc", "brzozowski") if small else ("naive", "hkc")
        for k in range(6):
            tag = CLI_TAGS[(idx * 6 + k) % len(CLI_TAGS)]
            left, right = rng.sample(sys_.names, 2)
            algo = algos[k % len(algos)]
            queries.append(_eq(tag, algo, name, left, right, f"{name}-{tag}-{algo}-{k}"))
        sem = ("may", "must")[idx % 2]
        x, y = rng.sample(sys_.names, 2)
        queries.append(Query(f"{name}-pre-{sem}", name, ["preorder", "--sem", sem, FILE, x, y]))
        if small:
            tag = CLI_TAGS[idx % len(CLI_TAGS)]
            queries.append(Query(f"{name}-min-{tag}", name,
                                 ["minimize", "--sem", tag, "--init", x, FILE]))
    gsys, gq = gps_corpus(rng, (4, 5, 6), 2, ("g_trace", "g_ready"), "gsmall")
    systems.update(gsys)
    queries += gq
    return Corpus("cli-small", systems, queries)


_BUILDERS = {"families": families_corpus, "tau-heavy": tau_heavy_corpus,
             "gps-dense": gps_dense_corpus, "cli-small": cli_small_corpus}


def build_corpus(workload: str) -> Corpus:
    return _BUILDERS[workload](random.Random(CORPUS_SEEDS[workload]))
