"""Regression guard and differential check for the probabilistic span search.

``gps_equiv`` explores words breadth-first and prunes difference vectors
already in the span of those seen; its counterexample word depends on that
order and on what it prunes.  The digest test reduces (verdict, word) over a seeded corpus to one canonical
text and pins its sha256, so any change to what the search returns shows up
here.  The other tests recompute runs and outputs from ``Gps.row`` with plain
``Fraction`` arithmetic, independently of the library's linear maps.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction
from typing import Dict, Tuple

from semcheck import (
    GPS_SEMANTICS,
    Distribution,
    Gps,
    GpsDecorated,
    Output,
    full_mask,
    gps_decorate,
    gps_det_output,
    gps_det_step,
    gps_equiv,
    parse_gps,
    submasks,
)
import semcheck.gps
from semcheck.gps import _weights

from conftest import FIXTURES, load_gps
from test_gps import _dense_gps_with_copy, lumped_quotient, twisted_copy

PINNED_SHA256 = "79614064d32530b26bbef35203a594a5af17a70208d166d20dba0bcccf3aaddb"
LUMPING_SHA256 = "798160bfb404a490a60f984d1d8d06ce7040c01951e946d0030f5f6858417938"

DENOMINATORS = (2, 3, 4, 6, 8, 12)


def random_gps(seed: int, max_states: int = 9, max_labels: int = 3) -> Gps:
    """A seeded GPS of 1..max_states states and 1..max_labels labels, each
    state spending a random part of its mass in units of 1/d for a d drawn
    from ``DENOMINATORS``, next to a copy of itself (states shifted by n) in
    which about one probability in ten is halved."""
    rng = random.Random(seed)
    n = rng.randint(1, max_states)
    labels = ("a", "b", "c")[: rng.randint(1, max_labels)]
    base: Dict[Tuple[int, str], Dict[int, Fraction]] = {}
    for x in range(n):
        d = rng.choice(DENOMINATORS)
        units = rng.randint(0, d)
        for _ in range(rng.randint(0, 4)):
            if units == 0:
                break
            k = rng.randint(1, units)
            units -= k
            row = base.setdefault((x, rng.choice(labels)), {})
            y = rng.randrange(n)
            row[y] = row.get(y, Fraction(0)) + Fraction(k, d)
    trans = dict(base)
    for (x, a), row in base.items():
        trans[(x + n, a)] = {y + n: p / 2 if rng.random() < 0.1 else p
                             for y, p in row.items()}
    return Gps(2 * n, labels, trans)


def _corpus():
    for seed in range(300):
        yield f"random{seed}", random_gps(seed)
    for path in sorted(FIXTURES.glob("gps-*.lts")):
        yield path.stem, load_gps(path.stem)


def _search_lines():
    for name, g in _corpus():
        for sem in GPS_SEMANTICS:
            verdicts = []
            for x, y in itertools.product(range(g.n_states), repeat=2):
                equal, word = gps_equiv(g, sem, x, y)
                verdicts.append("=" if equal else "." + "".join(word))
            yield f"{name} {sem} " + " ".join(verdicts)


def test_gps_search_matches_pinned_digest():
    text = "\n".join(_search_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256


# -- an independent replay ---------------------------------------------------


def _step(g: Gps, vec: Dict[int, Fraction], a: str) -> Dict[int, Fraction]:
    out: Dict[int, Fraction] = {}
    for x, p in vec.items():
        for y, q in g.row(x, a).items():
            out[y] = out.get(y, Fraction(0)) + p * q
    return {y: p for y, p in out.items() if p != 0}


def _output(g: Gps, sem: str, vec: Dict[int, Fraction]) -> Output:
    """The semantics' observable of a vector, from its definition."""
    if sem == "g_trace":
        return Output("prob", sum(vec.values(), Fraction(0)))
    if sem == "g_mtrace":
        return Output("prob", sum(
            (p * (1 - sum(q for a in g.alphabet for q in g.row(x, a).values()))
             for x, p in vec.items()), Fraction(0)))
    full = full_mask(g.alphabet)
    acc: Dict[int, Fraction] = {}
    for x, p in vec.items():
        enabled = sum(1 << i for i, a in enumerate(g.alphabet) if g.row(x, a))
        refusals = {"g_ready": [enabled], "g_mfailure": [full & ~enabled],
                    "g_failure": submasks(full & ~enabled)}[sem]
        for z in refusals:
            acc[z] = acc.get(z, Fraction(0)) + p
    return Output("prob_family", tuple(sorted((z, w) for z, w in acc.items() if w)))


def test_det_step_and_output_on_random_walks():
    rng = random.Random(7)
    for seed in range(200):
        g = random_gps(seed)
        decs = {sem: gps_decorate(g, sem) for sem in GPS_SEMANTICS}
        x, y = rng.randrange(g.n_states), rng.randrange(g.n_states)
        signed = rng.random() < 0.5
        phi = Distribution.point(x).sub(Distribution.point(y)) if signed \
            else Distribution.point(x)
        vec = phi.as_dict()
        for _ in range(6):
            for sem, dec in decs.items():
                assert gps_det_output(dec, phi) == _output(g, sem, vec), (seed, sem)
            a = rng.choice(g.alphabet)
            phi, vec = gps_det_step(g, phi, a), _step(g, vec, a)
            assert phi.as_dict() == vec and phi.signed == signed, (seed, a)


def test_det_output_takes_weights_of_any_denominator():
    g = random_gps(3)
    outputs = tuple(Output("prob", Fraction(x + 1, 7)) for x in range(g.n_states))
    dec = GpsDecorated("g_mtrace", g, outputs)
    phi = Distribution.from_dict({0: Fraction(1, 3), g.n_states - 1: Fraction(1, 5)})
    expected = Fraction(1, 21) + Fraction(g.n_states, 35)
    assert gps_det_output(dec, phi) == Output("prob", expected)


def test_gps_equiv_agrees_with_word_enumeration(monkeypatch):
    """Two states are equal exactly when no word of length below n_states
    separates them; an unequal verdict returns the shortlex-first separating
    word (``words`` is in shortlex order).  The search tests a vector's
    output when it is generated, so it returns a word of length k without
    stepping any vector of length k: at most |A| * sum_{i<k} |A|^i steps.

    That word does not depend on what the search prunes: a vector with
    nonzero output is never in the span of the zero-output vectors it is
    compared against, and every extension of a pruned prefix is a
    combination of extensions of words earlier in shortlex order.  So any
    exact reduction of the system, such as a lumping quotient, returns the
    same word."""
    real_step, steps = semcheck.gps._step, [0]

    def counted_step(row, vec, into):
        steps[0] += 1
        return real_step(row, vec, into)

    monkeypatch.setattr(semcheck.gps, "_step", counted_step)
    for seed in range(400):
        g = random_gps(seed, max_states=3)
        n_labels = len(g.alphabet)
        words = [w for k in range(g.n_states)
                 for w in itertools.product(g.alphabet, repeat=k)]
        for sem in GPS_SEMANTICS:
            runs = []
            for x in range(g.n_states):
                vecs = {(): {x: Fraction(1)}}
                for w in words[1:]:
                    vecs[w] = _step(g, vecs[w[:-1]], w[-1])
                runs.append([_output(g, sem, vecs[w]) for w in words])
            for x, y in itertools.product(range(g.n_states), repeat=2):
                separating = [w for w, p, q in zip(words, runs[x], runs[y]) if p != q]
                steps[0] = 0
                equal, word = gps_equiv(g, sem, x, y)
                assert equal == (not separating), (seed, sem, x, y)
                if not equal:
                    assert word == separating[0], (seed, sem, x, y, word)
                    bound = n_labels * sum(n_labels ** i for i in range(len(word)))
                    assert steps[0] <= bound, (seed, sem, x, y, word, steps[0])
                elif sem in ("g_ready", "g_failure", "g_mfailure"):
                    # why gps-equiv --with-trace searches again only under g_mtrace
                    assert gps_equiv(g, "g_trace", x, y)[0], (seed, sem, x, y)


# -- the lumping behind the search -------------------------------------------


def _round_based_lumping(g: Gps) -> Tuple[int, ...]:
    """Reference lumping: every state's signature (its block and, per label,
    its weight into each block) rebuilt once a round from ``Gps.row`` until
    no block splits, blocks numbered by first occurrence.  Quadratic; kept
    only to compare against."""
    def renumber(sig):
        ids: Dict[object, int] = {}
        return tuple(ids.setdefault(s, len(ids)) for s in sig)

    blocks = (0,) * g.n_states
    while True:
        sig = []
        for x in range(g.n_states):
            into = []
            for a in g.alphabet:
                acc: Dict[int, Fraction] = {}
                for y, p in g.row(x, a).items():
                    acc[blocks[y]] = acc.get(blocks[y], Fraction(0)) + p
                into.append(tuple(sorted(acc.items())))
            sig.append((blocks[x], tuple(into)))
        refined = renumber(sig)
        if refined == blocks:
            return blocks
        blocks = refined


def test_lumping_matches_round_based_refinement():
    """The cached lumping equals the reference up to numbering, and it is a
    lumping: every state sends, under each label, the weight into each block
    that its block's least state sends, and has that state's output under
    every semantics.  So the search, which reads each block at its least
    state, asks the same questions as a search on the states."""
    merged = 0
    for name, g in _corpus():
        fresh = Gps(g.n_states, g.alphabet, g.transitions, g.names)
        block = g._blocks
        assert fresh._blocks == block, name
        ids: Dict[int, int] = {}
        assert tuple(ids.setdefault(b, len(ids)) for b in block) == _round_based_lumping(g), name
        assert len(ids) == max(block, default=-1) + 1, name
        merged += len(ids) < g.n_states
        least: Dict[int, int] = {}
        for x, b in enumerate(block):
            least.setdefault(b, x)
        scaled = g._scaled

        def into(x: int, a: str) -> Dict[int, int]:
            sums: Dict[int, int] = {}
            for y, w in scaled.rows[a][x].items():
                sums[block[y]] = sums.get(block[y], 0) + w
            return sums

        for x in range(g.n_states):
            for a in g.alphabet:
                assert into(x, a) == into(least[block[x]], a), (name, x, a)
        for sem in GPS_SEMANTICS:
            table = _weights(scaled, sem)
            assert all(table[x] == table[least[block[x]]] for x in range(g.n_states)), (name, sem)
    assert merged > 250


def test_constructor_transitions_survive_every_view():
    """The integer rows of a constructor-built system are built on copies:
    after ``_scaled``, ``_blocks``, ``transitions`` and ``gps_equiv`` under
    every tag, the caller's mapping holds the same inner dicts with the same
    ``Fraction`` values."""
    for seed in range(40):
        g = random_gps(seed)
        trans = g.transitions
        rows = {key: (row, dict(row)) for key, row in trans.items()}
        g._scaled, g._blocks
        assert g.transitions is trans
        for sem in GPS_SEMANTICS:
            for x, y in ((0, g.n_states - 1), (0, g.n_states // 2)):
                gps_equiv(g, sem, x, y)
        assert g.transitions is trans and trans.keys() == rows.keys(), seed
        for key, (row, values) in rows.items():
            assert trans[key] is row and row == values, (seed, key)
            assert all(type(p) is Fraction for p in row.values()), (seed, key)


def _heavy_gps(seed: int) -> Gps:
    """A seeded constructor-built GPS whose states often emit more than 1,
    which the constructor accepts and the parser refuses, next to a copy of
    itself (states shifted by n)."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    labels = ("a", "b", "c")[: rng.randint(1, 3)]
    base: Dict[Tuple[int, str], Dict[int, Fraction]] = {}
    for x in range(n):
        for a in labels:
            if rng.random() < 0.6:
                d = rng.choice((1, 2, 3))
                base[(x, a)] = {rng.randrange(n): Fraction(rng.randint(1, 3 * d), d)
                                for _ in range(rng.randint(1, 3))}
    trans = dict(base)
    trans.update(((x + n, a), {y + n: p for y, p in row.items()})
                 for (x, a), row in base.items())
    return Gps(2 * n, labels, trans)


def test_lumping_with_mass_over_one_matches_round_based_refinement():
    """The constructor does not bound a state's mass by 1, and the lumping
    must not assume it does: a state's weights under every label, packed
    into one int, stay apart however large they are."""
    two = {(0, "a"): {1: Fraction(1)}, (0, "b"): {1: Fraction(1)}}
    # under a packing sized for weights of at most 1, 0's a-weight 2 would
    # read as 1's b-weight 1
    apart = {(0, "a"): {2: Fraction(2)}, (1, "b"): {2: Fraction(1)}}
    systems = [Gps(2, ("a", "b"), two), Gps(3, ("a", "b"), apart)]
    systems += map(_heavy_gps, range(80))
    systems = [g for g in systems if max(map(g.emission_mass, range(g.n_states))) > 1]
    assert len(systems) > 60
    for i, g in enumerate(systems):
        ids: Dict[int, int] = {}
        block = g._blocks
        assert tuple(ids.setdefault(b, len(ids)) for b in block) == _round_based_lumping(g), i
        assert len(ids) == max(block) + 1, i
    assert systems[1]._blocks[0] != systems[1]._blocks[1]


def _lumping_lines():
    systems = list(_corpus())
    systems += [(f"twisted{n}", parse_gps(twisted_copy(n))) for n in (3, 6, 10)]
    systems.append(("dense70", parse_gps(_dense_gps_with_copy(70, 70))))
    for name, g in systems:
        block, lumped = g._blocks, lumped_quotient(g)
        rows = {a: [sorted(dict(r).items()) for r in row] for a, row in lumped.rows.items()}
        yield repr((name, block, lumped.denom, lumped.emission, lumped.enabled, rows))


def test_lumping_matches_pinned_digest():
    """Each system's block numbering and quotient (derived from the blocks
    by ``lumped_quotient``), exactly: a faster refinement must find the
    same blocks in the same order.  Rows are read
    as sorted (target, weight) items, whatever container holds them."""
    text = "\n".join(_lumping_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == LUMPING_SHA256
