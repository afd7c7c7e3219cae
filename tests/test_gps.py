"""Probabilistic semantics: distributions, linear-span checking, collapses."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from semcheck import (
    GPS_SEMANTICS,
    Distribution,
    Gps,
    Output,
    failure_from_ready,
    full_mask,
    gps_decorate,
    gps_det_output,
    gps_det_step,
    gps_equiv,
    mask_of,
    mfailure_from_ready,
    parse_gps,
    ready_to_trace_collapse,
    submasks,
)
from semcheck.cli import main
from semcheck.lts import ScaledGps

from conftest import load_gps

F = Fraction


# -- distributions -----------------------------------------------------------


def test_distribution_basics():
    d = Distribution.from_dict({2: F(1, 3), 0: F(1, 3)})
    assert d.entries == ((0, F(1, 3)), (2, F(1, 3)))
    assert d.mass() == F(2, 3)
    assert Distribution.point(4).as_dict() == {4: F(1)}
    assert not d.is_zero()


def test_distribution_difference_is_signed():
    d = Distribution.point(0).sub(Distribution.point(1))
    assert d.signed
    assert d.as_dict() == {0: F(1), 1: F(-1)}
    assert d.sub(d).is_zero()


def test_distribution_rejects_overweight_unsigned():
    with pytest.raises(ValueError):
        Distribution.from_dict({0: F(2, 3), 1: F(1, 2)})
    with pytest.raises(ValueError):
        Distribution.from_dict({0: F(-1, 2)})


# -- decorations and linear maps ---------------------------------------------


def test_gps_decorations():
    g = load_gps("gps-pu")
    p, s = g.resolve_state("p"), g.resolve_state("s")
    a = mask_of(["a"], g.alphabet)

    ready = gps_decorate(g, "g_ready")
    assert ready.outputs[p] == Output("prob_family", ((a, F(1)),))
    assert ready.outputs[s] == Output("prob_family", ((0, F(1)),))

    mtrace = gps_decorate(g, "g_mtrace")
    assert mtrace.outputs[p] == Output("prob", F(0))
    assert mtrace.outputs[s] == Output("prob", F(1))

    failure = gps_decorate(g, "g_failure")
    assert failure.outputs[s] == Output("prob_family",
                                        tuple((z, F(1)) for z in sorted(submasks(a))))

    with pytest.raises(ValueError):
        gps_decorate(g, "g_bogus")


def test_gps_det_step_is_linear_image():
    g = load_gps("gps-pu")
    p = g.resolve_state("p")
    phi = gps_det_step(g, Distribution.point(p), "a")
    assert phi.as_dict() == {1: F(1, 3), 2: F(2, 3)}
    phi2 = gps_det_step(g, phi, "a")
    assert phi2.as_dict() == {3: F(1, 3), 4: F(2, 3)}
    assert gps_det_step(g, phi2, "a").is_zero()
    with pytest.raises(ValueError):
        gps_det_step(g, phi, "z")


def test_gps_det_output_is_linear():
    g = load_gps("gps-pu")
    phi = Distribution.from_dict({3: F(1, 3), 4: F(2, 3)})  # s and t
    ready = gps_decorate(g, "g_ready")
    assert gps_det_output(ready, phi) == Output("prob_family", ((0, F(1)),))
    mtrace = gps_decorate(g, "g_mtrace")
    assert gps_det_output(mtrace, phi) == Output("prob", F(1))
    trace = gps_decorate(g, "g_trace")
    assert gps_det_output(trace, phi) == Output("prob", F(1))


# -- equivalence by linear span ----------------------------------------------


def test_gps_equiv_all_semantics_on_fixture():
    for name in ("gps-pu", "gps-pu-alt"):
        g = load_gps(name)
        p, u = g.resolve_state("p"), g.resolve_state("u")
        for sem in GPS_SEMANTICS:
            equal, word = gps_equiv(g, sem, p, u)
            assert equal, (name, sem, word)


def test_gps_equiv_distinguishes_unequal_masses():
    g = parse_gps("gps 4\nalphabet a\n0 a 1/2 1\n2 a 1/3 3\n")
    equal, word = gps_equiv(g, "g_trace", 0, 2)
    assert not equal
    assert word == ("a",)


def test_gps_equiv_reflexive_and_on_merged_copies():
    g = load_gps("gps-pu")
    p = g.resolve_state("p")
    assert gps_equiv(g, "g_ready", p, p) == (True, None)
    with pytest.raises(ValueError, match="unknown GPS semantics"):
        gps_equiv(g, "g_bogus", p, p)


def test_mtrace_blind_to_circulating_mass():
    # Two never-terminating loops over different letters: the termination-mass
    # semantics cannot tell them apart, the trace semantics can.
    g = parse_gps("gps 2\nalphabet a b\n0 a 1/1 0\n1 b 1/1 1\n")
    assert gps_equiv(g, "g_mtrace", 0, 1) == (True, None)
    equal, word = gps_equiv(g, "g_trace", 0, 1)
    assert not equal
    assert word == ("a",)


def test_gps_equiv_needs_two_steps():
    # Branching now versus branching later: ready weights agree on every word
    # prefix, so only the length-two mass split separates unequal variants.
    g = parse_gps(
        "gps 7\nalphabet a\n"
        "0 a 1/2 1\n0 a 1/2 2\n1 a 1/1 3\n2 a 1/1 3\n"
        "4 a 1/1 5\n5 a 3/4 6\n"
    )
    equal, word = gps_equiv(g, "g_trace", 0, 4)
    assert not equal
    assert word == ("a", "a")


def test_gps_equiv_decorates_nothing_and_takes_64_labels(monkeypatch, tmp_path):
    import semcheck.gps as gps

    def refuse(g, semantics):
        raise AssertionError(f"gps_equiv decorated under {semantics}")

    monkeypatch.setattr(gps, "gps_decorate", refuse)
    g = load_gps("gps-pu")
    p, u = g.resolve_state("p"), g.resolve_state("u")
    for sem in GPS_SEMANTICS:
        assert gps_equiv(g, sem, p, u) == (True, None), sem
    # State 1 emits nothing, so under g_failure it refuses all 2**64 label
    # sets; the search must not list them.
    f = tmp_path / "wide.lts"
    labels = " ".join(f"l{i}" for i in range(64))
    f.write_text(f"gps 2\nalphabet {labels}\n0 l0 1/2 1\n")
    for sem in GPS_SEMANTICS:
        t0 = time.perf_counter()
        assert main(["gps-equiv", "--sem", sem, str(f), "0", "1"]) == 1, sem
        assert time.perf_counter() - t0 < 1.0, sem


# -- spectrum collapses ------------------------------------------------------


def test_failure_from_ready_example():
    ab = ("a", "b")
    v = Output("prob_family", ((mask_of(["a"], ab), F(1)),))
    out = failure_from_ready(v, ab)
    assert out == Output("prob_family", ((0, F(1)), (mask_of(["b"], ab), F(1))))


def test_mfailure_from_ready_example():
    ab = ("a", "b")
    v = Output("prob_family", ((mask_of(["a"], ab), F(1, 2)), (0, F(1, 2))))
    out = mfailure_from_ready(v, ab)
    assert out == Output("prob_family", ((mask_of(["b"], ab), F(1, 2)),
                                         (full_mask(ab), F(1, 2))))


def test_ready_to_trace_collapse_sums_mass():
    v = Output("prob_family", ((0, F(1, 3)), (1, F(1, 3))))
    assert ready_to_trace_collapse(v) == Output("prob", F(2, 3))


def test_collapses_commute_with_determinised_outputs():
    g = load_gps("gps-pu")
    ready = gps_decorate(g, "g_ready")
    fail = gps_decorate(g, "g_failure")
    mfail = gps_decorate(g, "g_mfailure")
    trace = gps_decorate(g, "g_trace")
    phi = Distribution.point(g.resolve_state("p"))
    for word in [(), ("a",), ("a", "a"), ("a", "a", "a")]:
        cur = phi
        for a in word:
            cur = gps_det_step(g, cur, a)
        r = gps_det_output(ready, cur)
        assert ready_to_trace_collapse(r) == gps_det_output(trace, cur)
        assert failure_from_ready(r, g.alphabet) == gps_det_output(fail, cur)
        assert mfailure_from_ready(r, g.alphabet) == gps_det_output(mfail, cur)


# -- the lumping behind the search -------------------------------------------


def lumped_quotient(g: Gps) -> ScaledGps:
    """The quotient of ``g`` by its lumping, from ``g._blocks`` and
    ``g._scaled``: a state per block, each block read at its least state,
    with that state's weights summed per target block."""
    block, scaled = g._blocks, g._scaled
    reps = [0] * (max(block, default=-1) + 1)
    for x in range(g.n_states - 1, -1, -1):
        reps[block[x]] = x
    rows = {}
    for a, row in scaled.rows.items():
        lumped = []
        for x in reps:
            sums = {}
            for y, w in row[x].items():
                sums[block[y]] = sums.get(block[y], 0) + w
            lumped.append(sums)
        rows[a] = tuple(lumped)
    return ScaledGps(scaled.denom, rows, tuple(scaled.emission[x] for x in reps),
                     tuple(scaled.enabled[x] for x in reps))


def cached(g: Gps) -> set:
    """What ``g`` holds besides its constructor fields."""
    return set(vars(g)) - {"n_states", "alphabet", "transitions", "names"}


# x splits its a-mass between a b-state and a c-state; y moves it to one state
# that splits it between b and c.  Different blocks, equal traces.
CROSS_BLOCK = ("gps 6\nalphabet a b c\nnames x x1 x2 y y1 z\n"
               "0 a 1/2 1\n0 a 1/2 2\n1 b 1/1 5\n2 c 1/1 5\n"
               "3 a 1/1 4\n4 b 1/2 5\n4 c 1/2 5\n")


def test_gps_equiv_equal_across_blocks(tmp_path):
    g = parse_gps(CROSS_BLOCK)
    x, y = g.resolve_state("x"), g.resolve_state("y")
    assert g._blocks[x] != g._blocks[y]
    expected = {"g_trace": (True, None), "g_mtrace": (True, None), "g_ready": (False, ("a",)),
                "g_failure": (False, ("a",)), "g_mfailure": (False, ("a",))}
    f = tmp_path / "cross-block.lts"
    f.write_text(CROSS_BLOCK)
    for sem, answer in expected.items():
        assert gps_equiv(g, sem, x, y) == answer, sem
        assert main(["gps-equiv", "--sem", sem, str(f), "x", "y"]) == (0 if answer[0] else 1), sem


def test_gps_equiv_with_states_that_emit_nothing():
    # 1, 2 and 3 emit nothing and share block 0; 0 is the one live block.
    # No benchmark system has a state that emits nothing.
    g = parse_gps("gps 4\nalphabet a\n0 a 1/2 1\n")
    for sem in GPS_SEMANTICS:
        assert gps_equiv(g, sem, 2, 3) == (True, None), sem
        assert cached(g) == {"_scaled", "_blocks"}, sem
    assert g._blocks == (1, 0, 0, 0)
    for sem in GPS_SEMANTICS:
        assert gps_equiv(g, sem, 1, 0) == (False, ("a",) if sem == "g_trace" else ()), sem
    # the dead block is read at its least state, 1; the live block at 0
    assert lumped_quotient(g) == (2, {"a": ({}, {0: 1})}, (0, 1), (0, 1))


def test_gps_equiv_caches_only_the_blocks():
    g = load_gps("gps-pu")
    p, u = g.resolve_state("p"), g.resolve_state("u")
    for sem in GPS_SEMANTICS:
        assert gps_equiv(g, sem, p, u) == (True, None), sem
    assert g._blocks[p] == g._blocks[u] and cached(g) == {"_scaled", "_blocks"}
    g = parse_gps(CROSS_BLOCK)
    x, y = g.resolve_state("x"), g.resolve_state("y")
    assert gps_equiv(g, "g_trace", x, y) == (True, None)
    assert gps_equiv(g, "g_ready", x, y) == (False, ("a",))
    assert g._blocks[x] != g._blocks[y] and cached(g) == {"_scaled", "_blocks"}


def _dense_gps_with_copy(seed: int, n: int) -> str:
    """A seeded dense GPS of n states over ``a b`` (three successors a label,
    weights over a denominator of 8-12, some termination mass) and a copy of
    it in states n..2n-1, in the text format."""
    rng = random.Random(seed)
    lines = [f"gps {2 * n}", "alphabet a b"]
    for x in range(n):
        den = rng.choice((8, 9, 10, 12))
        weights = [1] * 6
        for _ in range(den - 6 - rng.randint(1, 2)):
            weights[rng.randrange(6)] += 1
        k = 0
        for a in ("a", "b"):
            for y in rng.sample(range(n), 3):
                lines += [f"{x} {a} {weights[k]}/{den} {y}",
                          f"{x + n} {a} {weights[k]}/{den} {y + n}"]
                k += 1
    return "\n".join(lines) + "\n"


def test_gps_equiv_on_a_70_state_copy_in_under_a_second():
    g = parse_gps(_dense_gps_with_copy(70, 70))
    t0 = time.perf_counter()
    for sem in GPS_SEMANTICS:
        assert gps_equiv(g, sem, 0, 70) == (True, None), sem
    assert time.perf_counter() - t0 < 1.0


def test_lumping_a_5000_state_chain_in_under_a_second():
    # the two chains of test_gps_equiv_on_5000_state_chain: a round-based
    # refinement would take one round per chain state, 2,500 of them
    n = 2500
    lines = [f"gps {2 * n}", "alphabet a b"]
    for x in (*range(n - 1), *range(n, 2 * n - 1)):
        lines += [f"{x} a 1/2 {x + 1}", f"{x} b 1/3 {x + 1}"]
    g = parse_gps("\n".join(lines) + "\n")
    t0 = time.perf_counter()
    block = g._blocks
    assert time.perf_counter() - t0 < 1.0
    assert max(block) + 1 == n
    assert all(block[x] == block[x + n] for x in range(n))


def twisted_copy(n: int) -> str:
    """Base states b0..b{n-1} over ``a b`` and a twisted copy of them, in the
    text format.  Under each label, b_i sends w to b_j, w to b_k and u to
    b_t; c_i sends 2w to the mixture state m_{jk} and u to c_t, and m_{jk}
    takes half of c_j's and half of c_k's rows.  So c_i behaves as b_i and
    m_{jk} as the average of b_j and b_k, while no two states are lumped
    together: an equal pair the span search must decide in full."""
    rng = random.Random(n)
    rows = {}
    for i in range(n):
        den = rng.choice((12, 14, 16))
        for a in ("a", "b"):
            j, k, t = rng.sample(range(n), 3)
            rows[i, a] = (min(j, k), max(j, k), F(rng.randint(1, 2), den), t,
                          F(rng.randint(1, 2), den))
    pairs = sorted({r[:2] for r in rows.values()})
    names = ([f"b{i}" for i in range(n)] + [f"c{i}" for i in range(n)]
             + [f"m{j}_{k}" for j, k in pairs])
    index = {name: x for x, name in enumerate(names)}
    edges = {}

    def add(src, a, dst, p):
        key = (index[src], a, index[dst])
        edges[key] = edges.get(key, 0) + p

    for (i, a), (j, k, w, t, u) in rows.items():
        add(f"b{i}", a, f"b{j}", w)
        add(f"b{i}", a, f"b{k}", w)
        add(f"b{i}", a, f"b{t}", u)
        add(f"c{i}", a, f"m{j}_{k}", 2 * w)
        add(f"c{i}", a, f"c{t}", u)
    for j, k in pairs:
        for s in (j, k):
            for a in ("a", "b"):
                jj, kk, w, t, u = rows[s, a]
                add(f"m{j}_{k}", a, f"m{jj}_{kk}", w)
                add(f"m{j}_{k}", a, f"c{t}", u / 2)
    lines = [f"gps {len(names)}", "alphabet a b", "names " + " ".join(names)]
    lines += [f"{x} {a} {p.numerator}/{p.denominator} {y}" for (x, a, y), p in edges.items()]
    return "\n".join(lines) + "\n"


def test_twisted_copy_is_equal_but_never_lumped():
    for n in (3, 6, 10):
        g = parse_gps(twisted_copy(n))
        assert len(set(g._blocks)) == g.n_states, n
        b0, c0 = g.resolve_state("b0"), g.resolve_state("c0")
        for sem in GPS_SEMANTICS:
            assert gps_equiv(g, sem, b0, c0) == (True, None), (n, sem)


def symmetric_trees(depth: int):
    """Two complete binary trees over ``a b`` (each edge 1/3) of the given
    depth, in the text format, and their two roots.  Every leaf steps ``c``
    with 1/2 into a tail of its own: in the first tree s, with s -c 1/2-> u
    and u -a 1/2, b 1/2-> t; in the second v, with v -c 1/4-> u1 -a-> t and
    v -c 1/4-> u2 -b-> t.  The two tails are g_trace-equal but not lumpable,
    so each tree lumps to one block a level and the roots, equal, lie in
    different blocks.  Over the states, every word up to the leaves reaches
    a pair of states no other word reaches."""
    lines, fresh = [], itertools.count()

    def tree(d, tail):
        x = next(fresh)
        if d == depth:
            tail(x)
        else:
            for a in ("a", "b"):
                lines.append(f"{x} {a} 1/3 {tree(d + 1, tail)}")
        return x

    def tail1(x):
        s, u, t = next(fresh), next(fresh), next(fresh)
        lines.extend([f"{x} c 1/2 {s}", f"{s} c 1/2 {u}", f"{u} a 1/2 {t}", f"{u} b 1/2 {t}"])

    def tail2(x):
        v, u1, u2, t = next(fresh), next(fresh), next(fresh), next(fresh)
        lines.extend([f"{x} c 1/2 {v}", f"{v} c 1/4 {u1}", f"{v} c 1/4 {u2}",
                      f"{u1} a 1/1 {t}", f"{u2} b 1/1 {t}"])

    r1, r2 = tree(0, tail1), tree(0, tail2)
    return "\n".join([f"gps {next(fresh)}", "alphabet a b c", *lines]) + "\n", r1, r2


def test_symmetric_trees_are_searched_over_their_blocks(monkeypatch):
    # 2,814 states in 24 blocks.  The search takes 33 steps over the blocks;
    # a search over the states takes 3,837, since no two words up to the
    # leaves reach the same pair of states.
    import semcheck.gps as gps

    text, r1, r2 = symmetric_trees(8)
    g = parse_gps(text)
    real_step, steps = gps._step, [0]

    def counted_step(*args):
        steps[0] += 1
        return real_step(*args)

    monkeypatch.setattr(gps, "_step", counted_step)
    for sem in ("g_trace", "g_mtrace"):
        steps[0] = 0
        assert gps_equiv(g, sem, r1, r2) == (True, None), sem
        n_blocks = max(g._blocks) + 1
        assert (g.n_states, n_blocks) == (2814, 24)
        assert steps[0] <= len(g.alphabet) * (n_blocks + 1), (sem, steps[0])
